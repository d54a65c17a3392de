// Scratch-pool and consume-in-place regression tests: the batch engine
// and the objective functor reuse statevector buffers across evaluations;
// these tests pin that (a) reuse never aliases results across schedules,
// (b) repeated batches are bitwise deterministic, (c) the steady-state
// evaluation loops perform zero statevector allocations (via the
// instrumented AlignedAllocator counter), and (d) a slot refilled in
// place holds exactly initial_state()'s bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "api/qokit.hpp"

namespace qokit {
namespace {

std::vector<QaoaParams> two_distinct_schedules() {
  QaoaParams a;
  a.gammas = {0.3, -0.2};
  a.betas = {0.7, 0.4};
  QaoaParams b;
  b.gammas = {-0.5, 0.1};
  b.betas = {0.2, -0.8};
  return {a, b};
}

TEST(BatchScratch, DifferentSchedulesNeverShareOutputState) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  BatchOptions opts;
  opts.keep_states = true;
  for (const auto mode : {BatchParallelism::Outer, BatchParallelism::Inner}) {
    opts.parallelism = mode;
    const BatchResult r = BatchEvaluator(sim, opts).evaluate(batch);
    ASSERT_EQ(r.states.size(), 2u);
    // The two outputs must be the two distinct per-schedule states, not
    // one scratch buffer reported twice.
    EXPECT_GT(r.states[0].max_abs_diff(r.states[1]), 1e-3);
    EXPECT_NE(r.states[0].data(), r.states[1].data());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const StateVector ref =
          sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
      EXPECT_EQ(r.states[i].max_abs_diff(ref), 0.0) << "schedule " << i;
    }
  }
}

TEST(BatchScratch, RepeatedBatchCallsAreBitwiseDeterministic) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 7));
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  BatchOptions opts;
  opts.compute_overlap = true;
  opts.keep_states = true;
  opts.sample_shots = 32;
  const BatchEvaluator evaluator(sim, opts);
  const BatchResult first = evaluator.evaluate(batch);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const BatchResult again = evaluator.evaluate(batch);
    EXPECT_EQ(again.expectations, first.expectations);
    EXPECT_EQ(again.overlaps, first.overlaps);
    EXPECT_EQ(again.samples, first.samples);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(again.states[i].max_abs_diff(first.states[i]), 0.0);
  }
}

TEST(BatchScratch, SimulateQaoaFromConsumesInPlace) {
  // The contract the scratch pool relies on: simulate_qaoa_from evolves
  // the passed state's buffer, never reallocating it.
  const TermList terms = labs_terms(8);
  const std::vector<double> g{0.3, -0.2}, b{0.7, 0.4};
  const FurQaoaSimulator serial(terms, {.exec = Exec::Serial});
  const DistributedFurSimulator dist_sim(terms, {.ranks = 2});
  for (const QaoaFastSimulatorBase* sim :
       {static_cast<const QaoaFastSimulatorBase*>(&serial),
        static_cast<const QaoaFastSimulatorBase*>(&dist_sim)}) {
    StateVector state = sim->initial_state();
    const cdouble* buffer = state.data();
    const StateVector evolved =
        sim->simulate_qaoa_from(std::move(state), g, b);
    EXPECT_EQ(evolved.data(), buffer);
  }
}

const void* amplitudes(const StateVector& s) {
  if (s.precision() == Precision::F32) return s.data_f32();
  return s.data();
}

bool same_bytes(const StateVector& a, const StateVector& b) {
  return a.size() == b.size() && a.precision() == b.precision() &&
         std::memcmp(amplitudes(a), amplitudes(b), a.bytes()) == 0;
}

TEST(BatchScratch, RefilledSlotEqualsInitialStateBitForBit) {
  // Every pool slot is refilled in place by fill_initial_state. Over a
  // dirty (evolved) slot the refill must keep the buffer and reproduce
  // initial_state() byte for byte; a slot of the wrong size or precision
  // must be reallocated whole. Below and above kParallelGrain, under both
  // Exec policies, for every simulator family and several Dicke weights.
  const std::vector<double> g{0.3, -0.2}, b{0.7, 0.4};
  for (const int n : {10, 16}) {
    ASSERT_EQ(dim_of(n) >= static_cast<std::uint64_t>(kParallelGrain),
              n == 16);
    const TermList terms = labs_terms(n);
    std::vector<std::string> specs = {
        "auto", "auto:prec=f32", "serial", "serial:prec=f32", "u16",
        "dist:2", "dist:2:prec=f32"};
    for (const char* mixer : {"xyring", "xycomplete"})
      for (const int k : {0, 1, n / 2, n - 1})
        for (const char* exec : {"auto", "serial"})
          specs.push_back(std::string(exec) + ":mixer=" + mixer +
                          ":weight=" + std::to_string(k));
    for (const std::string& name : specs) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
      const StateVector expected = sim->initial_state();
      StateVector slot =
          sim->simulate_qaoa_from(sim->initial_state(), g, b);
      ASSERT_FALSE(same_bytes(slot, expected));
      const void* buffer = amplitudes(slot);
      sim->fill_initial_state(slot);
      EXPECT_TRUE(same_bytes(slot, expected));
      EXPECT_EQ(amplitudes(slot), buffer);
      // Wrong size, then wrong precision: reallocated to the full state.
      StateVector smaller = StateVector::plus_state(n - 1, sim->precision());
      sim->fill_initial_state(smaller);
      EXPECT_TRUE(same_bytes(smaller, expected));
      StateVector other = StateVector::basis_state(
          n, 1,
          sim->precision() == Precision::F32 ? Precision::F64
                                             : Precision::F32);
      sim->fill_initial_state(other);
      EXPECT_TRUE(same_bytes(other, expected));
    }
  }
}

TEST(BatchScratch, ObjectiveSteadyStateAllocatesNoStatevectors) {
  const TermList terms = maxcut_terms(Graph::random_regular(10, 3, 11));
  const FurQaoaSimulator sim(terms, {});
  const QaoaObjective objective(sim, 2);
  const std::vector<double> x{0.3, -0.2, 0.7, 0.4};
  (void)objective(x);  // warm-up: first call may allocate the scratch
  const std::uint64_t baseline = aligned_allocation_count();
  double value = 0.0;
  for (int i = 0; i < 5; ++i) value = objective(x);
  EXPECT_EQ(aligned_allocation_count(), baseline);
  // And the reused scratch still computes the right number.
  const StateVector ref = sim.simulate_qaoa(
      std::vector<double>{0.3, -0.2}, std::vector<double>{0.7, 0.4});
  EXPECT_EQ(value, sim.get_expectation(ref));
}

TEST(BatchScratch, BatchSteadyStateAllocatesNoStatevectors) {
  const TermList terms = labs_terms(10);
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);  // expectations only
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const std::vector<double> first = evaluator.expectations(batch);
  const std::uint64_t baseline = aligned_allocation_count();
  for (int repeat = 0; repeat < 4; ++repeat)
    EXPECT_EQ(evaluator.expectations(batch), first);
  EXPECT_EQ(aligned_allocation_count(), baseline);
}

TEST(BatchScratch, EvaluateIntoReusesResultBuffersAcrossCalls) {
  // evaluate_into must reuse the caller's BatchResult: after the first
  // call, repeated same-shape calls perform zero aligned allocations even
  // with keep_states on (the per-schedule state slots are refilled by
  // copy-assign, which reuses their buffers).
  const TermList terms = labs_terms(9);
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  BatchOptions opts;
  opts.compute_overlap = true;
  opts.keep_states = true;
  opts.sample_shots = 8;

  const BatchResult fresh = evaluator.evaluate(batch, opts);
  BatchResult reused;
  evaluator.evaluate_into(batch, opts, reused);
  const std::uint64_t baseline = aligned_allocation_count();
  for (int repeat = 0; repeat < 3; ++repeat) {
    evaluator.evaluate_into(batch, opts, reused);
    EXPECT_EQ(reused.expectations, fresh.expectations);
    EXPECT_EQ(reused.overlaps, fresh.overlaps);
    EXPECT_EQ(reused.samples, fresh.samples);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(reused.states[i].max_abs_diff(fresh.states[i]), 0.0);
  }
  EXPECT_EQ(aligned_allocation_count(), baseline);

  // Dropping a request clears the stale field instead of leaving it.
  opts.keep_states = false;
  opts.sample_shots = 0;
  evaluator.evaluate_into(batch, opts, reused);
  EXPECT_TRUE(reused.states.empty());
  EXPECT_TRUE(reused.samples.empty());
  EXPECT_EQ(reused.expectations, fresh.expectations);
}

TEST(BatchScratch, SessionBatchSteadyStateAllocatesNoStatevectors) {
  // The session wrapper behind qaoa_batch_evaluate reserves once via its
  // scratch pool and reused BatchResult: repeated evaluate_batch calls
  // (expectations + overlaps + samples) allocate no aligned memory.
  const api::ProblemSession session = api::ProblemSession::labs(9);
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  api::EvalRequest request;
  request.overlap = true;
  request.shots = 8;
  const std::vector<api::EvalResult> first =
      session.evaluate_batch(batch, request);
  const std::uint64_t baseline = aligned_allocation_count();
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::vector<api::EvalResult> again =
        session.evaluate_batch(batch, request);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(*again[i].expectation, *first[i].expectation);
      EXPECT_EQ(*again[i].overlap, *first[i].overlap);
      EXPECT_EQ(*again[i].samples, *first[i].samples);
    }
  }
  EXPECT_EQ(aligned_allocation_count(), baseline);
}

TEST(BatchScratch, U16PhaseTableIsReusedAcrossEvaluations) {
  // The u16 phase path builds a 65536-entry factor table per layer; it
  // must come from the per-thread reusable scratch, not a fresh aligned
  // allocation, so the u16 backend meets the same zero-steady-state-
  // allocation contract as every other backend.
  const api::ProblemSession session =
      api::ProblemSession::labs(9, SimulatorSpec::parse("u16"));
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const std::vector<double> first = session.expectations(batch);
  (void)session.evaluate(batch.front());  // warm the scalar scratch too
  const std::uint64_t baseline = aligned_allocation_count();
  for (int repeat = 0; repeat < 3; ++repeat)
    EXPECT_EQ(session.expectations(batch), first);
  (void)session.evaluate(batch.front());
  EXPECT_EQ(aligned_allocation_count(), baseline);
}

TEST(BatchScratch, HeuristicRespectsThreadCountAndSimulatorPreference) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);
  // Singleton batches never go outer.
  EXPECT_EQ(evaluator.resolve_parallelism(1), BatchParallelism::Inner);
  // Sub-grain states (2^8 amplitudes) have no inner parallelism, so any
  // real batch threads across schedules -- when threads exist at all.
  const BatchParallelism multi = evaluator.resolve_parallelism(16);
  if (max_threads() > 1)
    EXPECT_EQ(multi, BatchParallelism::Outer);
  else
    EXPECT_EQ(multi, BatchParallelism::Inner);
  // The distributed simulator's rank threads are the parallelism; Auto
  // must never stack an outer team on top.
  const DistributedFurSimulator dist_sim(terms, {.ranks = 4});
  EXPECT_EQ(BatchEvaluator(dist_sim).resolve_parallelism(16),
            BatchParallelism::Inner);
  // Forced modes are honored as stated.
  BatchOptions forced;
  forced.parallelism = BatchParallelism::Outer;
  EXPECT_EQ(BatchEvaluator(sim, forced).resolve_parallelism(1),
            BatchParallelism::Outer);
}

}  // namespace
}  // namespace qokit
