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
// Parallelism is two-level and chosen by a cost heuristic (see DESIGN.md):
//  - Outer: thread across schedules, one scratch state per thread. Wins
//    for many small jobs, where the per-kernel OpenMP dispatch is pure
//    overhead (sub-grain loops run serially anyway).
//  - Inner: sequential over schedules; each simulate_qaoa uses the
//    simulator's own Exec policy. Wins for few large jobs, and is forced
//    for simulators that already own the machine's threads (dist:K).
// Either way the per-schedule arithmetic is the exact code path of a
// sequential simulate_qaoa loop, so results are bit-identical to it (the
// cross-validation suite asserts equality, not tolerance).
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

/// How BatchEvaluator::evaluate maps schedules onto the machine.
enum class BatchParallelism {
  Auto,   ///< resolve_parallelism picks Outer or Inner per batch
  Outer,  ///< thread across schedules, serial kernels inside each
  Inner,  ///< sequential over schedules, simulator's Exec inside each
};

/// What evaluate() computes per schedule.
struct BatchOptions {
  BatchParallelism parallelism = BatchParallelism::Auto;
  bool compute_expectation = true;  ///< fill BatchResult::expectations
  bool compute_overlap = false;     ///< fill BatchResult::overlaps
  int overlap_weight = -1;   ///< restrict the overlap to this HW sector
  bool keep_states = false;  ///< fill BatchResult::states (copies; test aid)
  int sample_shots = 0;      ///< >0: sample this many bitstrings/schedule
  std::uint64_t sample_seed = 1;  ///< schedule i samples with seed+i
  /// Fill BatchResult::simulate_ns / reduce_ns with per-schedule wall
  /// times. Evolution is timed on whichever thread ran it (valid in Outer
  /// mode: schedule(static, 1) pins each slot to one thread); scoring is
  /// timed on the submitting thread where it always runs.
  bool record_timings = false;
};

/// Per-schedule outputs, indexed like the submitted schedule span.
struct BatchResult {
  std::vector<double> expectations;  ///< empty unless compute_expectation
  std::vector<double> overlaps;      ///< empty unless compute_overlap
  std::vector<StateVector> states;   ///< empty unless keep_states
  std::vector<std::vector<std::uint64_t>> samples;  ///< empty unless shots
  /// Per-schedule evolution / scoring wall time in nanoseconds; empty
  /// unless record_timings.
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
  /// `sim` must outlive the evaluator. Sizes the pool (one empty slot per
  /// thread) and allocates nothing: a slot's buffer appears on its first
  /// use.
  explicit BatchEvaluator(const QaoaFastSimulatorBase& sim,
                          BatchOptions opts = {});

  /// Evaluate every schedule; results are indexed like `schedules`.
  BatchResult evaluate(std::span<const QaoaParams> schedules) const;

  /// Same, with per-call options (construction options are ignored; the
  /// parallelism choice comes from `opts`).
  BatchResult evaluate(std::span<const QaoaParams> schedules,
                       const BatchOptions& opts) const;

  /// Evaluate into a caller-owned result, reusing its buffers: the output
  /// vectors are resized (which reuses capacity) and kept states are
  /// copy-assigned into existing slots (which reuses their statevector
  /// allocations when sizes match). Repeated same-shape calls therefore
  /// perform zero steady-state statevector allocations even with
  /// keep_states on. Fields not requested by `opts` are cleared.
  void evaluate_into(std::span<const QaoaParams> schedules,
                     const BatchOptions& opts, BatchResult& out) const;

  /// Expectations only (the optimizer-population fast path); ignores the
  /// compute_* options.
  std::vector<double> expectations(std::span<const QaoaParams> schedules)
      const;

  /// Expectations of packed optimizer points x = (gamma_1..gamma_p,
  /// beta_1..beta_p); each point may be any even length.
  std::vector<double> expectations_packed(
      const std::vector<std::vector<double>>& points) const;

  /// The Auto heuristic's decision for a batch of `batch` schedules
  /// (exposed so tests and benches can see which mode will run).
  BatchParallelism resolve_parallelism(std::size_t batch) const;

  const QaoaFastSimulatorBase& simulator() const { return *sim_; }
  const BatchOptions& options() const { return opts_; }

  /// The simulator's initial state as a fresh allocation (by value: the
  /// evaluator keeps no copy; each schedule's slot is refilled in place).
  StateVector initial_state() const { return sim_->initial_state(); }

  /// Pool slot 0: the slot an Inner batch evolves in, lent to the
  /// session's scalar evaluate so that one state serves both paths. Like
  /// the rest of the pool, not safe for concurrent use.
  StateVector& scratch_slot() const { return scratch_.front(); }

  /// Number of pool slots, one per OpenMP thread at construction: the
  /// most states the evaluator can hold at once.
  std::size_t pool_size() const { return scratch_.size(); }

  /// Outer mode keeps one scratch state per thread; above this total
  /// footprint the Auto heuristic falls back to Inner.
  static constexpr std::uint64_t kMaxOuterScratchBytes = 1ull << 32;

 private:
  BatchParallelism resolve(BatchParallelism requested,
                           std::size_t batch) const;

  const QaoaFastSimulatorBase* sim_;
  BatchOptions opts_;
  mutable std::vector<StateVector> scratch_;  ///< one reusable state/thread
};

}  // namespace qokit
