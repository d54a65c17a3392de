#include "batch/batch_eval.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "statevector/sampling.hpp"

namespace qokit {
namespace {

std::uint64_t tick_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Fill the requested per-schedule outputs from an evolved state. Always
/// called on the submitting thread, in schedule order, so every reduction
/// runs in the exact context a sequential simulate_qaoa loop would use.
void score_one(const QaoaFastSimulatorBase& sim, const BatchOptions& opts,
               std::size_t index, StateVector& state, BatchResult& out) {
  if (!out.expectations.empty())
    out.expectations[index] = sim.get_expectation(state);
  if (!out.overlaps.empty())
    out.overlaps[index] = sim.get_overlap(state, opts.overlap_weight);
  if (!out.samples.empty()) {
    // Seeded per schedule index, so the drawn bitstrings are independent
    // of evaluation order and of the parallelism mode.
    Rng rng(opts.sample_seed + index);
    out.samples[index] = sample_states(state, opts.sample_shots, rng);
  }
  if (!out.states.empty()) out.states[index] = state;  // copy; slot lives on
}

}  // namespace

BatchEvaluator::BatchEvaluator(const QaoaFastSimulatorBase& sim,
                               BatchOptions opts)
    : sim_(&sim),
      opts_(opts),
      scratch_(static_cast<std::size_t>(max_threads())) {
  if (opts_.sample_shots < 0)
    throw std::invalid_argument("BatchEvaluator: sample_shots must be >= 0");
}

BatchParallelism BatchEvaluator::resolve_parallelism(std::size_t batch) const {
  return resolve(opts_.parallelism, batch);
}

BatchParallelism BatchEvaluator::resolve(BatchParallelism requested,
                                         std::size_t batch) const {
  if (requested != BatchParallelism::Auto) return requested;
  const int threads = max_threads();
  if (threads <= 1 || batch < 2) return BatchParallelism::Inner;
  // One simulate_qaoa call already employs the machine's threads itself
  // (the virtual-rank distributed simulator): stacking an outer team on
  // top would only oversubscribe.
  if (sim_->prefers_sequential_batches()) return BatchParallelism::Inner;
  // Actual amplitude width (f32 states cost half), so the outer-scratch
  // budget admits twice the f32 slots it would f64 ones.
  const std::uint64_t amps = dim_of(sim_->num_qubits());
  const std::uint64_t bytes = amps * amplitude_bytes(sim_->precision());
  if (static_cast<std::uint64_t>(threads) * bytes > kMaxOuterScratchBytes)
    return BatchParallelism::Inner;
  // Sub-grain states get no inner parallelism at all (parallel_for runs
  // them serially), so threading across schedules is the only parallelism
  // available -- and it skips the per-kernel team dispatch entirely.
  if (amps < static_cast<std::uint64_t>(kParallelGrain))
    return BatchParallelism::Outer;
  // Large states: outer only when the batch can fill every thread;
  // otherwise the simulator's own kernels use the machine better.
  return batch >= static_cast<std::size_t>(threads) ? BatchParallelism::Outer
                                                    : BatchParallelism::Inner;
}

void BatchEvaluator::evaluate_into(std::span<const QaoaParams> schedules,
                                   const BatchOptions& opts,
                                   BatchResult& out) const {
  // Same guard the constructor applies to its own options: per-call
  // options must not silently drop a nonsensical shot count.
  if (opts.sample_shots < 0)
    throw std::invalid_argument("BatchEvaluator: sample_shots must be >= 0");
  for (const QaoaParams& s : schedules)
    if (s.gammas.size() != s.betas.size())
      throw std::invalid_argument(
          "BatchEvaluator: gammas/betas length mismatch");
  const std::size_t m = schedules.size();
  out.used = resolve(opts.parallelism, m);
  // resize() reuses existing capacity (and, for states, the statevector
  // buffers inside surviving slots), so a reused `out` allocates nothing
  // in steady state; unrequested fields are cleared.
  out.expectations.resize(opts.compute_expectation ? m : 0);
  out.overlaps.resize(opts.compute_overlap ? m : 0);
  out.states.resize(opts.keep_states ? m : 0);
  out.samples.resize(opts.sample_shots > 0 ? m : 0);
  out.simulate_ns.resize(opts.record_timings ? m : 0);
  out.reduce_ns.resize(opts.record_timings ? m : 0);

  static const obs::Counter batch_calls =
      obs::counter("qokit_batch_calls_total");
  static const obs::Counter batch_schedules =
      obs::counter("qokit_batch_schedules_total");
  static const obs::Counter scratch_hits =
      obs::counter("qokit_batch_scratch_hits_total");
  static const obs::Counter scratch_allocs =
      obs::counter("qokit_batch_scratch_allocs_total");
  batch_calls.add();
  batch_schedules.add(m);
  obs::Span span("evaluate_batch");
  span.attr("schedules", static_cast<std::int64_t>(m));
  span.attr("mode",
            out.used == BatchParallelism::Outer ? "outer" : "inner");

  // Evolve schedule i in slot: the simulator writes its initial state
  // into the slot in place (reusing the buffer, so no allocation after the
  // slot's first use), then the consume-in-place evolution; the buffer
  // round-trips through moves and comes back to the slot.
  const std::uint64_t amps = dim_of(sim_->num_qubits());
  const Precision prec = sim_->precision();
  auto evolve = [&](std::size_t i, StateVector& slot) {
    // A slot already sized (and precision-matched) like the initial state
    // refills in place; a fresh or mismatched slot pays an allocation.
    if (slot.size() == amps && slot.precision() == prec)
      scratch_hits.add();
    else scratch_allocs.add();
    const std::uint64_t t0 = opts.record_timings ? tick_ns() : 0;
    sim_->fill_initial_state(slot);
    slot = sim_->simulate_qaoa_from(std::move(slot), schedules[i].gammas,
                                    schedules[i].betas);
    if (opts.record_timings) out.simulate_ns[i] = tick_ns() - t0;
  };
  auto score = [&](std::size_t i, StateVector& slot) {
    const std::uint64_t t0 = opts.record_timings ? tick_ns() : 0;
    score_one(*sim_, opts, i, slot, out);
    if (opts.record_timings) out.reduce_ns[i] = tick_ns() - t0;
  };

  if (out.used == BatchParallelism::Inner) {
    StateVector& slot = scratch_.front();
    for (std::size_t i = 0; i < m; ++i) {
      evolve(i, slot);
      score(i, slot);
    }
    return;
  }

  // Outer: rounds of up to one schedule per scratch slot. Evolution
  // threads across the round (schedule(static, 1) pins iteration c to one
  // thread, so slot c is touched by exactly one thread; the kernels are
  // elementwise, so partitioning cannot change their arithmetic). Scoring
  // runs after the join on the calling thread, exactly where a sequential
  // loop would score, which keeps the reductions bit-identical to the
  // non-batched path at every state size.
  const std::size_t slots = scratch_.size();
  std::vector<std::exception_ptr> errors(slots);
  for (std::size_t base = 0; base < m; base += slots) {
    const std::int64_t chunk =
        static_cast<std::int64_t>(std::min(slots, m - base));
    QOKIT_OMP_PRAGMA(omp parallel for schedule(static, 1))
    for (std::int64_t c = 0; c < chunk; ++c) {
      // Exceptions (e.g. bad_alloc filling a scratch slot) must not
      // escape the parallel region -- that would call std::terminate.
      // Funnel them through per-slot pointers and rethrow after the join,
      // so failure behaves like the sequential loop's.
      try {
        evolve(base + static_cast<std::size_t>(c),
               scratch_[static_cast<std::size_t>(c)]);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (std::int64_t c = 0; c < chunk; ++c)
      score(base + static_cast<std::size_t>(c),
            scratch_[static_cast<std::size_t>(c)]);
  }
}

BatchResult BatchEvaluator::evaluate(
    std::span<const QaoaParams> schedules) const {
  return evaluate(schedules, opts_);
}

BatchResult BatchEvaluator::evaluate(std::span<const QaoaParams> schedules,
                                     const BatchOptions& opts) const {
  BatchResult out;
  evaluate_into(schedules, opts, out);
  return out;
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const QaoaParams> schedules) const {
  BatchOptions trimmed = opts_;  // keep the parallelism choice
  trimmed.compute_expectation = true;
  trimmed.compute_overlap = false;
  trimmed.keep_states = false;
  trimmed.sample_shots = 0;
  BatchResult out;
  evaluate_into(schedules, trimmed, out);
  return std::move(out.expectations);
}

std::vector<double> BatchEvaluator::expectations_packed(
    const std::vector<std::vector<double>>& points) const {
  std::vector<QaoaParams> schedules;
  schedules.reserve(points.size());
  for (const std::vector<double>& x : points)
    schedules.push_back(QaoaParams::unflatten(x));
  return expectations(schedules);
}

}  // namespace qokit
