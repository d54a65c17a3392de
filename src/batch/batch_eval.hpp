// Batched multi-schedule evaluation engine (the "many (gamma, beta)
// queries, one problem" workload).
//
// Algorithm 3 amortizes the cost-diagonal precompute over every QAOA
// layer; a parameter-optimization or serving workload should amortize it
// over every *schedule* too. BatchEvaluator owns that amortization: it
// wraps one QaoaFastSimulatorBase (whose diagonal was precomputed once) and
// reuses per-thread scratch statevectors, refilled in place with the
// initial state per schedule, so evaluating a batch of schedules performs
// zero steady-state allocations and holds no state beyond its pool.
//
// Parallelism is two-level, and one rule read from the simulator picks
// the level (see DESIGN.md "Outer vs inner parallelism"); no option
// overrides it:
//  - Inner: sequential over schedules in pool slot 0; each schedule's
//    layers thread over their own units under the simulator's Exec. The
//    default: one state, every thread.
//  - Outer: one team across schedules, one scratch state per thread. Only
//    when one schedule's layer has fewer units than the team has threads
//    (small states, whose one or two tiles would leave threads idle).
// Either way each schedule is filled, evolved, scored (the expectation
// riding its final pass) and sampled on the thread that runs it, with the
// exact arithmetic of a sequential simulate_qaoa + get_expectation loop;
// every reduction sums fixed partials in index order, so results are
// bit-identical to that loop (the cross-validation suite asserts
// equality, not tolerance). A session's scalar evaluate is a
// one-schedule batch through the same engine.
//
// The fused layer pipeline (src/pipeline/) is inherited for free: the
// LayerPlan lives in the wrapped simulator, built once at construction, so
// every schedule in every batch replays the same cache-blocked pass
// schedule with zero per-schedule planning cost.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fur/simulator.hpp"
#include "optimize/params.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// How BatchEvaluator::evaluate maps schedules onto the machine
/// (BatchEvaluator::resolve_parallelism decides).
enum class BatchParallelism {
  Outer,  ///< one team across schedules, serial kernels inside each
  Inner,  ///< sequential over schedules, simulator's Exec inside each
};

/// Where an evaluation's time went, in nanoseconds.
struct Timings {
  /// The session's one-time diagonal precompute. Paid at construction and
  /// amortized over every subsequent call -- reported (unchanged) on each
  /// session result so callers can see what the session saved them, never
  /// re-paid. 0 from a bare BatchEvaluator.
  std::uint64_t precompute_ns = 0;
  /// This schedule's initial-state fill, evolution and fused expectation,
  /// timed on the thread that evolved it.
  std::uint64_t simulate_ns = 0;
  /// This schedule's overlap and sampling (its expectation rides
  /// simulate_ns), timed on the same thread.
  std::uint64_t reduce_ns = 0;
  /// ProblemSession::evaluate_batch only: wall time of the whole
  /// submission this item rode in (the same value on every item of one
  /// call; 0 for a scalar evaluate()).
  std::uint64_t batch_ns = 0;
};

/// What an evaluation computes per schedule.
struct EvalRequest {
  bool expectation = true;  ///< fill EvalResult::expectation
  bool overlap = false;     ///< fill EvalResult::overlap
  int overlap_weight = -1;  ///< restrict the overlap minimum to this
                            ///< Hamming-weight sector; -1 = full space
  int shots = 0;            ///< >0: fill EvalResult::samples
};

/// One schedule's result: requested fields are engaged, everything else
/// is nullopt; timings are always filled. Subsumes the historical
/// LabsEvaluation / SatEvaluation / OptimizeOutcome shapes (which remain
/// in the compatibility layer, populated from this).
struct EvalResult {
  std::optional<double> expectation;  ///< <C> over the evolved state
  std::optional<double> overlap;      ///< ground-state probability mass
  std::optional<std::vector<std::uint64_t>> samples;  ///< drawn bitstrings
  Timings timings;

  // Engaged by ProblemSession::optimize only:
  std::optional<QaoaParams> params;  ///< optimized schedule
  std::optional<int> evaluations;    ///< simulator calls spent
  std::optional<int> batches;        ///< batch submissions those arrived in
  std::optional<int> iterations;     ///< optimizer iterations
  std::optional<bool> converged;     ///< tolerance met within budget
};

/// The batch engine's one input check, run before any slot fills: throws
/// std::invalid_argument on negative shots, a requested overlap whose
/// weight is outside [-1, num_qubits] (-1 is the full space), or a
/// schedule that fails QaoaParams::check(). qaoa_batch_evaluate runs it
/// before it builds its simulator, and the server before its cache
/// checkout.
void check_batch(std::span<const QaoaParams> schedules,
                 const EvalRequest& request, int num_qubits);

/// Evaluates batches of QAOA schedules against one simulator, sharing the
/// precomputed diagonal and reusing scratch statevectors across schedules
/// and across evaluate() calls. Schedules in one batch may have different
/// depths. Not safe for concurrent evaluate() calls on one instance (the
/// scratch pool is per-instance); distinct instances are independent.
class BatchEvaluator {
 public:
  /// `sim` must outlive the evaluator. Schedule i of every batch samples
  /// from Rng(sample_seed + i). Sizes the pool and allocates nothing: a
  /// slot's buffer appears on its first use. The pool has one slot per
  /// OpenMP thread when Outer could run (one schedule's layer has fewer
  /// units than there are threads, and that many states fit
  /// kMaxOuterScratchBytes), and one slot otherwise.
  explicit BatchEvaluator(const QaoaFastSimulatorBase& sim,
                          std::uint64_t sample_seed = 1);

  /// Evaluate every schedule; results are indexed like `schedules`. Runs
  /// check_batch first, so a refused batch fills no slot.
  std::vector<EvalResult> evaluate(std::span<const QaoaParams> schedules,
                                   const EvalRequest& request = {}) const;

  /// Expectations only (the optimizer-population fast path).
  std::vector<double> expectations(std::span<const QaoaParams> schedules)
      const;

  /// The mode a batch of `batch` schedules runs in (exposed so tests and
  /// benches can see it before the call): Outer only for two or more
  /// schedules whose layer has fewer units
  /// (QaoaFastSimulatorBase::layer_units) than the Outer team would have
  /// threads, min(pool_size(), max_threads()).
  BatchParallelism resolve_parallelism(std::size_t batch) const;

  const QaoaFastSimulatorBase& simulator() const { return *sim_; }

  /// The simulator's initial state as a fresh allocation (by value: the
  /// evaluator keeps no copy; each schedule's slot is refilled in place).
  StateVector initial_state() const { return sim_->initial_state(); }

  /// Number of pool slots: the most states the evaluator can hold at once.
  std::size_t pool_size() const { return scratch_.size(); }

  /// Outer mode keeps one scratch state per thread; a pool above this
  /// total footprint gets one slot, so its batches stay Inner.
  static constexpr std::uint64_t kMaxOuterScratchBytes = 1ull << 32;

 private:
  const QaoaFastSimulatorBase* sim_;
  std::uint64_t sample_seed_;
  mutable std::vector<StateVector> scratch_;  ///< the pool (see pool_size)
};

}  // namespace qokit
