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
#include <span>
#include <vector>

#include "fur/simulator.hpp"
#include "optimize/params.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// How BatchEvaluator::evaluate mapped schedules onto the machine
/// (BatchEvaluator::resolve_parallelism decides; BatchResult::used says).
enum class BatchParallelism {
  Outer,  ///< one team across schedules, serial kernels inside each
  Inner,  ///< sequential over schedules, simulator's Exec inside each
};

/// What evaluate() computes per schedule.
struct BatchOptions {
  bool compute_expectation = true;  ///< fill BatchResult::expectations
  bool compute_overlap = false;     ///< fill BatchResult::overlaps
  int overlap_weight = -1;   ///< restrict the overlap to this HW sector
  bool keep_states = false;  ///< fill BatchResult::states (copies; test aid)
  int sample_shots = 0;      ///< >0: sample this many bitstrings/schedule
  std::uint64_t sample_seed = 1;  ///< schedule i samples with seed+i
  /// Fill BatchResult::simulate_ns / reduce_ns with per-schedule wall
  /// times, both taken on the thread that evolved the schedule:
  /// simulate_ns covers the initial-state fill, the evolution and the
  /// expectation fused into its final pass; reduce_ns covers the overlap,
  /// the sampling and the kept-state copy (the "reduce" span).
  bool record_timings = false;
};

/// The batch engine's one input check, run before any slot fills: throws
/// std::invalid_argument on negative shots, a requested overlap whose
/// weight is outside [-1, num_qubits] (-1 is the full space), or a
/// schedule that fails QaoaParams::check(). qaoa_batch_evaluate runs it
/// before it builds its simulator, and the server before its cache
/// checkout.
void check_batch(std::span<const QaoaParams> schedules,
                 const BatchOptions& opts, int num_qubits);

/// Per-schedule outputs, indexed like the submitted schedule span.
struct BatchResult {
  std::vector<double> expectations;  ///< empty unless compute_expectation
  std::vector<double> overlaps;      ///< empty unless compute_overlap
  std::vector<StateVector> states;   ///< empty unless keep_states
  std::vector<std::vector<std::uint64_t>> samples;  ///< empty unless shots
  /// Per-schedule wall times in nanoseconds (see
  /// BatchOptions::record_timings); empty unless record_timings.
  std::vector<std::uint64_t> simulate_ns;
  std::vector<std::uint64_t> reduce_ns;
  BatchParallelism used = BatchParallelism::Inner;  ///< mode that ran
};

/// Evaluates batches of QAOA schedules against one simulator, sharing the
/// precomputed diagonal and reusing scratch statevectors across schedules
/// and across evaluate() calls. Schedules in one batch may have different
/// depths. Not safe for concurrent evaluate() calls on one instance (the
/// scratch pool is per-instance); distinct instances are independent.
class BatchEvaluator {
 public:
  /// `sim` must outlive the evaluator. Sizes the pool and allocates
  /// nothing: a slot's buffer appears on its first use. The pool has one
  /// slot per OpenMP thread when Outer could run (one schedule's layer has
  /// fewer units than there are threads, and that many states fit
  /// kMaxOuterScratchBytes), and one slot otherwise.
  explicit BatchEvaluator(const QaoaFastSimulatorBase& sim);

  /// Evaluate every schedule; results are indexed like `schedules`.
  BatchResult evaluate(std::span<const QaoaParams> schedules,
                       const BatchOptions& opts = {}) const;

  /// Evaluate into a caller-owned result, reusing its buffers: the output
  /// vectors are resized (which reuses capacity) and kept states are
  /// copy-assigned into existing slots (which reuses their statevector
  /// allocations when sizes match). Repeated same-shape calls therefore
  /// perform zero steady-state statevector allocations even with
  /// keep_states on. Fields not requested by `opts` are cleared. Runs
  /// check_batch first.
  void evaluate_into(std::span<const QaoaParams> schedules,
                     const BatchOptions& opts, BatchResult& out) const;

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
  mutable std::vector<StateVector> scratch_;  ///< the pool (see pool_size)
};

}  // namespace qokit
