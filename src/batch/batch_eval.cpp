#include "batch/batch_eval.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/obs.hpp"
#include "statevector/sampling.hpp"

namespace qokit {
namespace {

std::size_t pool_slots(const QaoaFastSimulatorBase& sim) {
  // One schedule's layer already gives every thread a unit (always so on
  // one thread, and for dist's rank threads): Outer never runs, so one
  // slot is all the pool can fill.
  const int threads = max_threads();
  if (sim.layer_units() >= threads) return 1;
  // Actual amplitude width (f32 states cost half), so the outer-scratch
  // budget admits twice the f32 slots it would f64 ones.
  const std::uint64_t bytes =
      dim_of(sim.num_qubits()) * amplitude_bytes(sim.precision());
  if (static_cast<std::uint64_t>(threads) * bytes >
      BatchEvaluator::kMaxOuterScratchBytes)
    return 1;
  return static_cast<std::size_t>(threads);
}

}  // namespace

void check_batch(std::span<const QaoaParams> schedules,
                 const EvalRequest& request, int num_qubits) {
  if (request.shots < 0)
    throw std::invalid_argument("BatchEvaluator: shots must be >= 0");
  // -1 is the full space; any other weight names a Hamming-weight sector.
  if (request.overlap &&
      (request.overlap_weight < -1 || request.overlap_weight > num_qubits))
    throw std::invalid_argument(
        "overlap_weight " + std::to_string(request.overlap_weight) +
        " is outside [-1, " + std::to_string(num_qubits) + "]");
  for (const QaoaParams& s : schedules) s.check();
}

BatchEvaluator::BatchEvaluator(const QaoaFastSimulatorBase& sim,
                               std::uint64_t sample_seed)
    : sim_(&sim), sample_seed_(sample_seed), scratch_(pool_slots(sim)) {}

BatchParallelism BatchEvaluator::resolve_parallelism(std::size_t batch) const {
  // The Outer team is min(pool, threads now): a pool sized at one thread
  // stays Inner when the caller later runs four.
  const auto team = static_cast<std::int64_t>(
      std::min(scratch_.size(), static_cast<std::size_t>(max_threads())));
  if (batch < 2 || sim_->layer_units() >= team) return BatchParallelism::Inner;
  return BatchParallelism::Outer;
}

std::vector<EvalResult> BatchEvaluator::evaluate(
    std::span<const QaoaParams> schedules, const EvalRequest& request) const {
  check_batch(schedules, request, sim_->num_qubits());
  const std::size_t m = schedules.size();
  const BatchParallelism mode = resolve_parallelism(m);
  std::vector<EvalResult> out(m);

  static const obs::Counter batch_calls =
      obs::counter("qokit_batch_calls_total");
  static const obs::Counter batch_schedules =
      obs::counter("qokit_batch_schedules_total");
  static const obs::Counter scratch_hits =
      obs::counter("qokit_batch_scratch_hits_total");
  static const obs::Counter scratch_allocs =
      obs::counter("qokit_batch_scratch_allocs_total");
  static const obs::Histogram reduce_hist = obs::histogram("qokit_reduce_ns");
  batch_calls.add();
  batch_schedules.add(m);
  obs::Span span("evaluate_batch");
  span.attr("schedules", static_cast<std::int64_t>(m));
  span.attr("mode", mode == BatchParallelism::Outer ? "outer" : "inner");

  // Schedule i, start to finish, on the thread that runs it: refill the
  // slot in place (no allocation after the slot's first use), evolve it
  // with the expectation riding the final pass, then score the evolved
  // slot. Every reduction sums fixed kReduceBlock / kSimdBlock partials in
  // index order, so the bits do not depend on which thread, or how large
  // a team, runs it.
  const std::uint64_t amps = dim_of(sim_->num_qubits());
  const Precision prec = sim_->precision();
  auto run = [&](std::size_t i, StateVector& slot) {
    // A slot already sized (and precision-matched) like the initial state
    // refills in place; a fresh or mismatched slot pays an allocation.
    if (slot.size() == amps && slot.precision() == prec)
      scratch_hits.add();
    else scratch_allocs.add();
    const QaoaParams& s = schedules[i];
    EvalResult& r = out[i];
    const auto t0 = std::chrono::steady_clock::now();
    sim_->fill_initial_state(slot);
    if (request.expectation)
      r.expectation = sim_->simulate_qaoa_expectation(slot, s.gammas, s.betas);
    else
      slot = sim_->simulate_qaoa_from(std::move(slot), s.gammas, s.betas);
    const auto t1 = std::chrono::steady_clock::now();
    {
      obs::Span reduce("reduce");
      const obs::HistTimer reduce_timer(reduce_hist);
      if (request.overlap)
        r.overlap = sim_->get_overlap(slot, request.overlap_weight);
      if (request.shots > 0) {
        // Seeded per schedule index, so the drawn bitstrings are
        // independent of evaluation order and of the parallelism mode.
        Rng rng(sample_seed_ + i);
        r.samples = sample_states(slot, request.shots, rng);
      }
    }
    r.timings.simulate_ns = elapsed_ns(t0, t1);
    r.timings.reduce_ns = elapsed_ns(t1);
  };

  if (mode == BatchParallelism::Inner) {
    StateVector& slot = scratch_.front();
    for (std::size_t i = 0; i < m; ++i) run(i, slot);
    return out;
  }

  // Outer: one team across the batch, never larger than the pool; thread
  // t works in slot t, and schedule(static, 1) gives it schedules t,
  // t + team, ... The team does not shrink to a small batch: with
  // libgomp a smaller team retires pool threads that the next full team
  // (an Inner kernel's, or a larger batch's) must respawn, each with
  // fresh thread-local scratch. Kernels inside run serially (OpenMP
  // regions nest inactively). An exception must not escape the region
  // (that would call std::terminate), so the lowest failing index keeps
  // its exception and it is rethrown after the join, as the sequential
  // loop would throw it.
  [[maybe_unused]] const int team = static_cast<int>(
      std::min(scratch_.size(), static_cast<std::size_t>(max_threads())));
  const auto count = static_cast<std::int64_t>(m);
  std::size_t failed = m;
  std::exception_ptr error;
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static, 1) num_threads(team))
  for (std::int64_t i = 0; i < count; ++i) {
    const auto index = static_cast<std::size_t>(i);
    try {
      run(index, scratch_[static_cast<std::size_t>(thread_num())]);
    } catch (...) {
      QOKIT_OMP_PRAGMA(omp critical(qokit_batch_error))
      if (index < failed) {
        failed = index;
        error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
  return out;
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const QaoaParams> schedules) const {
  std::vector<double> values;
  values.reserve(schedules.size());
  for (const EvalResult& r : evaluate(schedules))
    values.push_back(*r.expectation);
  return values;
}

}  // namespace qokit
