// Session-based public API: hold the precompute, answer many queries.
//
// The paper's central economics is amortization -- precompute the cost
// diagonal once, then make each layer (and, with src/batch/, each
// schedule) cheap. ProblemSession carries that economics to the API
// boundary: construct it once per problem and it owns the simulator, the
// precomputed diagonal, a BatchEvaluator scratch pool, and the sampling
// seed, but no initial-state copy: every entry point refills a pool slot
// with |+> (or the Dicke state) in place. Scalar evaluation, batched
// evaluation, optimization and sampling all route through one typed
// EvalRequest/EvalResult surface and one pool, with zero re-precompute and
// zero steady-state statevector allocations. The one-line
// free functions in api/qokit.hpp remain as the stable compatibility
// layer; each is a thin wrapper over a throwaway session.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "batch/batch_eval.hpp"
#include "obs/obs.hpp"
#include "optimize/nelder_mead.hpp"
#include "optimize/params.hpp"
#include "optimize/spsa.hpp"
#include "problems/graph.hpp"
#include "problems/portfolio.hpp"
#include "problems/sat.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit::api {

namespace detail {

/// Cheap exclusive-entry guard for the session's single-caller contract.
/// The reused pool slots and batch_scratch_ make concurrent calls on one
/// ProblemSession silent data corruption; Scope turns that misuse into an
/// immediate std::logic_error instead (one uncontended atomic exchange on
/// entry, a store on exit). Not a lock: the second caller fails, it never
/// waits -- callers that want serialized access to one session go through
/// serve::SessionCache, whose checkout hands out exclusive leases (an
/// annotated qokit::Mutex protocol; see common/sync.hpp). Deliberately an
/// atomic, not a capability: there is no blocking discipline here for the
/// thread-safety analysis to prove, only a tripwire.
class ReentrancyGuard {
 public:
  ReentrancyGuard() = default;
  // A session is only movable between calls, so the flag never transfers:
  // both sides come out idle.
  ReentrancyGuard(ReentrancyGuard&&) noexcept {}
  ReentrancyGuard& operator=(ReentrancyGuard&&) noexcept { return *this; }

  class Scope {
   public:
    Scope(const ReentrancyGuard& guard, const char* what) : guard_(guard) {
      if (guard_.busy_.exchange(true, std::memory_order_acquire))
        throw std::logic_error(
            std::string(what) +
            ": concurrent call on one ProblemSession (sessions reuse "
            "per-instance scratch and are single-caller; use one session "
            "per thread or a serve::SessionCache checkout)");
    }
    ~Scope() { guard_.busy_.store(false, std::memory_order_release); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const ReentrancyGuard& guard_;
  };

 private:
  mutable std::atomic<bool> busy_{false};
};

}  // namespace detail

/// Where an evaluation's time went, in nanoseconds.
struct Timings {
  /// The session's one-time diagonal precompute. Paid at construction and
  /// amortized over every subsequent call -- reported (unchanged) on each
  /// result so callers can see what the session saved them, never re-paid.
  std::uint64_t precompute_ns = 0;
  std::uint64_t simulate_ns = 0;  ///< state evolution (whole batch when
                                  ///< batched; evolution and scoring are
                                  ///< interleaved there)
  std::uint64_t reduce_ns = 0;    ///< scoring: expectation / overlap /
                                  ///< sampling (0 for batched calls)
  /// Per-layer breakdown of simulate_ns (scalar evaluate() only; empty
  /// for batched calls): layer_ns[l] is the wall time of layer l's fused
  /// (or unfused) pass sequence, measured by chaining one-layer
  /// simulate_qaoa_from calls (bit-identical to the single call). Each
  /// entry includes that call's dispatch overhead — in particular the
  /// dist:K backend re-spawns its rank team per call, so its layer_ns is
  /// team setup + compute; compare single-node numbers, not dist ones,
  /// against perfbench's traced pipeline.layer_ms.
  std::vector<std::uint64_t> layer_ns{};
  /// Batched calls only: wall time of the whole evaluate_batch submission
  /// this item rode in (the same value on every item of one call; 0 for
  /// scalar evaluate()). simulate_ns / reduce_ns above are this item's
  /// own evolution / scoring time.
  std::uint64_t batch_ns = 0;
};

/// What an evaluate() / evaluate_batch() call should compute.
struct EvalRequest {
  bool expectation = true;  ///< fill EvalResult::expectation
  bool overlap = false;     ///< fill EvalResult::overlap
  int overlap_weight = -1;  ///< restrict the overlap minimum to this
                            ///< Hamming-weight sector; -1 = full space
  int shots = 0;            ///< >0: fill EvalResult::samples
  bool timings = false;     ///< fill EvalResult::timings
  /// Batched calls only: schedule- vs state-parallel execution (Auto lets
  /// the BatchEvaluator cost heuristic decide). Ignored by evaluate().
  BatchParallelism parallelism = BatchParallelism::Auto;
};

/// Unified result shape: requested fields are engaged, everything else is
/// nullopt. Subsumes the historical LabsEvaluation / SatEvaluation /
/// BatchResult / OptimizeOutcome shapes (which remain in the
/// compatibility layer, populated from this).
struct EvalResult {
  std::optional<double> expectation;  ///< <C> over the evolved state
  std::optional<double> overlap;      ///< ground-state probability mass
  std::optional<std::vector<std::uint64_t>> samples;  ///< drawn bitstrings
  std::optional<Timings> timings;

  // Engaged by ProblemSession::optimize only:
  std::optional<QaoaParams> params;  ///< optimized schedule
  std::optional<int> evaluations;    ///< simulator calls spent
  std::optional<int> batches;        ///< batch submissions those arrived in
  std::optional<int> iterations;     ///< optimizer iterations
  std::optional<bool> converged;     ///< tolerance met within budget
};

/// Which optimizer ProblemSession::optimize runs and how.
struct OptimizerSpec {
  enum class Method { NelderMead, Spsa };
  Method method = Method::NelderMead;
  int p = 1;           ///< QAOA depth (parameter layout is 2p)
  QaoaParams initial;  ///< start schedule; empty -> linear_ramp(p)
  NelderMeadOptions nelder_mead{};  ///< used when method == NelderMead
  SpsaOptions spsa{};               ///< used when method == Spsa
};

/// A reusable handle over one problem: owns the simulator (and with it
/// the precomputed cost diagonal), the batch scratch pool, and the
/// sampling seed from its SimulatorSpec. Its 2^n buffers are exactly the
/// diagonal and the pool slots in use: scalar evaluate borrows slot 0 and
/// optimize runs its populations through the same pool. Repeated calls
/// perform zero re-precompute and zero steady-state statevector
/// allocations (pinned by tests/test_session_api.cpp via the
/// instrumented AlignedAllocator counter). Results are bit-identical to
/// the legacy free functions on every backend.
///
/// Single-caller contract: a session is NOT safe for concurrent calls on
/// one instance -- evaluate / evaluate_batch / expectations / optimize /
/// simulate mutate the per-instance scratch buffers. Concurrent entry is
/// detected by an atomic reentrancy guard and throws std::logic_error
/// instead of silently corrupting results (sample routes through evaluate
/// and is covered by its guard). Distinct sessions are independent; a
/// multi-threaded server shares sessions via serve::SessionCache, whose
/// exclusive checkout upholds this contract. Movable (between calls only),
/// not copyable.
class ProblemSession {
 public:
  /// Precomputes the diagonal for `terms` under `spec` (the one expensive
  /// step; see precompute_ns()).
  explicit ProblemSession(const TermList& terms, SimulatorSpec spec = {});

  // Problem-family builders (the session-shaped counterparts of the
  // one-line methods).
  static ProblemSession maxcut(const Graph& g, SimulatorSpec spec = {});
  static ProblemSession labs(int n, SimulatorSpec spec = {});
  /// Defaults the spec to the ring-XY mixer started from the in-budget
  /// Dicke state (Listing 2 semantics) unless the spec already picked an
  /// xy mixer / weight.
  static ProblemSession portfolio(const PortfolioInstance& inst,
                                  SimulatorSpec spec = {});
  static ProblemSession sat(const SatInstance& inst, SimulatorSpec spec = {});
  static ProblemSession sk(int n, std::uint64_t seed,
                           SimulatorSpec spec = {});

  /// Evaluate one schedule. Refills and evolves batch pool slot 0 (zero
  /// steady-state statevector allocations) and scores exactly as a
  /// freshly built simulator would -- bit-identical outputs.
  ///
  /// Every schedule-taking method here (and optimize's initial point)
  /// runs QaoaParams::check() first: ragged or non-finite schedules throw
  /// std::invalid_argument naming the layer before any state is touched.
  EvalResult evaluate(const QaoaParams& schedule,
                      const EvalRequest& request = {}) const;

  /// Evaluate many schedules through the batch engine (shared diagonal,
  /// per-thread scratch pool, outer/inner parallelism by cost heuristic).
  /// Results are indexed like `schedules`; expectations and overlaps are
  /// bit-identical to calling evaluate() in a loop. Sampling draws
  /// schedule i from Rng(spec().sample_seed + i) -- independent of
  /// evaluation order and mode, and matching a scalar evaluate() (which
  /// draws from Rng(sample_seed)) at index 0 only.
  std::vector<EvalResult> evaluate_batch(
      std::span<const QaoaParams> schedules,
      const EvalRequest& request = {}) const;

  /// Expectations-only fast path (what optimizer populations use).
  std::vector<double> expectations(
      std::span<const QaoaParams> schedules) const;

  /// Run a parameter optimization. The population steps go through the
  /// session's own BatchEvaluator (QaoaBatchObjective over batch()), so a
  /// warm session allocates no state here either; the result engages
  /// params / expectation (the optimized objective) / evaluations /
  /// batches / iterations / converged.
  EvalResult optimize(const OptimizerSpec& optimizer) const;

  /// The evolved state itself (allocates; the get_statevector analogue).
  StateVector simulate(const QaoaParams& schedule) const;

  /// Draw `shots` measurement outcomes at a schedule, seeded with
  /// spec().sample_seed: sessions with equal specs produce identical
  /// sample streams, whatever their Exec policy.
  std::vector<std::uint64_t> sample(const QaoaParams& schedule,
                                    int shots) const;

  const SimulatorSpec& spec() const { return spec_; }
  const TermList& terms() const { return terms_; }
  const QaoaFastSimulatorBase& simulator() const { return *sim_; }
  const CostDiagonal& cost_diagonal() const {
    return sim_->get_cost_diagonal();
  }
  /// The session's batch engine (for BatchOptions-level control; the
  /// compatibility wrappers use this).
  const BatchEvaluator& batch() const { return evaluator_; }
  int num_qubits() const { return sim_->num_qubits(); }
  /// Wall time of the one-time diagonal precompute at construction.
  std::uint64_t precompute_ns() const { return precompute_ns_; }
  /// Scrape the process-wide metrics registry (src/obs/): every counter,
  /// gauge, and histogram, merged across threads. Metrics are
  /// process-global, not per-session -- this is a convenience handle on
  /// qokit::obs::snapshot(). Empty values unless observability is on
  /// (QOKIT_OBS=1 or obs::set_enabled(true)).
  obs::Snapshot metrics() const { return obs::snapshot(); }

 private:
  SimulatorSpec spec_;
  TermList terms_;
  std::uint64_t precompute_ns_ = 0;
  std::unique_ptr<QaoaFastSimulatorBase> sim_;
  BatchEvaluator evaluator_;          ///< the pool; slot 0 serves evaluate
  mutable BatchResult batch_scratch_; ///< reused across evaluate_batch calls
  detail::ReentrancyGuard guard_;     ///< trips on concurrent entry
};

}  // namespace qokit::api
