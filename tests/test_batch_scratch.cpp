// Scratch-pool and consume-in-place regression tests: the batch engine
// reuses statevector buffers across evaluations; these tests pin that
// (a) reuse never mixes results across schedules, (b) repeated batches
// are bitwise deterministic, (c) the steady-state evaluation loops
// perform zero statevector allocations (via the instrumented
// AlignedAllocator counter), (d) a slot refilled in place holds exactly
// initial_state()'s bytes, and (e) a batch goes Outer only when one
// schedule's layer has fewer units than the Outer team has threads, and
// the pool holds a slot per thread only then. Each mode is reached
// through the thread count (support/threads.hpp): a one-unit layer runs
// a batch Outer at four threads and Inner at one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/qokit.hpp"
#include "support/threads.hpp"

namespace qokit {
namespace {

using testing::spread_mode;
using testing::with_threads;

/// Thread counts that reach both modes for a one-unit layer: Outer at
/// four (where OpenMP is built in), Inner at one.
constexpr int kModeThreads[] = {4, 1};

std::vector<QaoaParams> two_distinct_schedules() {
  QaoaParams a;
  a.gammas = {0.3, -0.2};
  a.betas = {0.7, 0.4};
  QaoaParams b;
  b.gammas = {-0.5, 0.1};
  b.betas = {0.2, -0.8};
  return {a, b};
}

TEST(BatchScratch, DifferentSchedulesNeverShareResults) {
  // Two schedules through one reused slot (Inner) or two slots (Outer):
  // each result is its own schedule's, not one slot's reported twice.
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const EvalRequest request{.overlap = true, .shots = 16};
  for (const int threads : kModeThreads) {
    SCOPED_TRACE(threads);
    with_threads(threads, [&] {
      const BatchEvaluator evaluator(sim);
      EXPECT_EQ(evaluator.resolve_parallelism(batch.size()), spread_mode());
      const std::vector<EvalResult> r = evaluator.evaluate(batch, request);
      ASSERT_EQ(r.size(), 2u);
      EXPECT_NE(r[0].expectation, r[1].expectation);
      EXPECT_NE(r[0].samples, r[1].samples);
      // Each equals its own schedule's sequential reference, drawn from
      // Rng(1 + i).
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const StateVector ref =
            sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
        EXPECT_EQ(r[i].expectation, sim.get_expectation(ref)) << i;
        EXPECT_EQ(r[i].overlap, sim.get_overlap(ref)) << i;
        Rng rng(1 + i);
        EXPECT_EQ(r[i].samples, sample_states(ref, 16, rng)) << i;
      }
    });
  }
}

TEST(BatchScratch, RepeatedBatchCallsAreBitwiseDeterministic) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 7));
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const EvalRequest request{.overlap = true, .shots = 32};
  const BatchEvaluator evaluator(sim);
  const std::vector<EvalResult> first = evaluator.evaluate(batch, request);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::vector<EvalResult> again = evaluator.evaluate(batch, request);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(again[i].expectation, first[i].expectation);
      EXPECT_EQ(again[i].overlap, first[i].overlap);
      EXPECT_EQ(again[i].samples, first[i].samples);
    }
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
        "u16:prec=f32", "dist:2", "dist:2:prec=f32"};
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

TEST(BatchScratch, ScoredBatchesAllocateNoStatevectors) {
  // Overlaps and samples are scored on the pool slot in place: after the
  // first call, repeated batches allocate no aligned memory and return the
  // same bits. Fields a request leaves off stay empty.
  const TermList terms = labs_terms(9);
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const EvalRequest request{.overlap = true, .shots = 8};
  const std::vector<EvalResult> first = evaluator.evaluate(batch, request);
  const std::uint64_t baseline = aligned_allocation_count();
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::vector<EvalResult> again = evaluator.evaluate(batch, request);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(again[i].expectation, first[i].expectation);
      EXPECT_EQ(again[i].overlap, first[i].overlap);
      EXPECT_EQ(again[i].samples, first[i].samples);
    }
  }
  EXPECT_EQ(aligned_allocation_count(), baseline);

  const std::vector<EvalResult> plain = evaluator.evaluate(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(plain[i].expectation, first[i].expectation);
    EXPECT_FALSE(plain[i].overlap.has_value());
    EXPECT_FALSE(plain[i].samples.has_value());
  }
}

TEST(BatchScratch, SessionBatchSteadyStateAllocatesNoStatevectors) {
  // The session wrapper behind qaoa_batch_evaluate reserves once via its
  // scratch pool: repeated evaluate_batch calls (expectations + overlaps
  // + samples) allocate no aligned memory.
  for (const char* name : {"auto", "auto:prec=f32"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session =
        api::ProblemSession::labs(9, SimulatorSpec::parse(name));
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
}

TEST(BatchScratch, U16PhaseTableIsReusedAcrossEvaluations) {
  // The u16 phase path builds a 65536-entry factor table per layer; it
  // must come from the per-thread reusable scratch, not a fresh aligned
  // allocation, so the u16 backend meets the same zero-steady-state-
  // allocation contract as every other backend, at either width.
  for (const char* name : {"u16", "u16:prec=f32"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session =
        api::ProblemSession::labs(9, SimulatorSpec::parse(name));
    const std::vector<QaoaParams> batch = two_distinct_schedules();
    const std::vector<double> first = session.expectations(batch);
    (void)session.evaluate(batch.front());  // warm the scalar scratch too
    const std::uint64_t baseline = aligned_allocation_count();
    for (int repeat = 0; repeat < 3; ++repeat)
      EXPECT_EQ(session.expectations(batch), first);
    (void)session.evaluate(batch.front());
    EXPECT_EQ(aligned_allocation_count(), baseline);
  }
}

TEST(BatchScratch, LayerUnitsCountTheFewestThreadedUnitsOfAnyPass) {
  // The default plan splits 2^n amplitudes into 2^(n-16) tiles of 2^16;
  // a strided pass over g <= 6 qubits has 2^(n-g-10) chunk-column units,
  // never fewer. A pass the executor runs serially counts 1.
  for (const auto& [n, units] :
       {std::pair{8, 1}, {14, 1}, {16, 1}, {17, 2}, {18, 4}, {20, 16}}) {
    SCOPED_TRACE(n);
    const TermList terms(n, {{1.0, 0b11}});  // the plan ignores the terms
    EXPECT_EQ(FurQaoaSimulator(terms, {}).layer_units(), units);
    EXPECT_EQ(FurQaoaSimulator(terms, {.exec = Exec::Serial}).layer_units(),
              1);
  }
  // The unfused xy loop: the phase's 2^(n-13) kSimdBlock blocks, unless
  // the 2^(n-2) pair groups of each XY rotation run serially (n < 17).
  const TermList sixteen(16, {{1.0, 0b11}});
  const TermList seventeen(17, {{1.0, 0b11}});
  EXPECT_EQ(FurQaoaSimulator(sixteen, {.mixer = MixerType::XYRing})
                .layer_units(),
            1);
  EXPECT_EQ(FurQaoaSimulator(seventeen, {.mixer = MixerType::XYRing})
                .layer_units(),
            16);
  // dist's K rank threads count as filling the machine.
  EXPECT_GE(DistributedFurSimulator(sixteen, {.ranks = 2}).layer_units(),
            std::int64_t{1} << 40);
}

TEST(BatchScratch, HeuristicRespectsThreadCountAndSimulatorPreference) {
  // A batch runs Outer only for two or more schedules whose layer cannot
  // give every thread of the Outer team a unit, and the pool holds a slot
  // per thread only where that can happen. Each thread count is set in
  // turn, so the rule is checked whatever the machine has.
  const TermList small = labs_terms(8);
  const FurQaoaSimulator sim(small, {});
  const TermList sixteen = labs_terms(16);
  const FurQaoaSimulator one_tile(sixteen, {});
  // 2^8-amplitude tiles and 2-qubit groups of 2^4-amplitude chunks: every
  // pass splits the n = 16 layer into at least 256 units.
  const FurQaoaSimulator many_tiles(
      sixteen, {.geometry = pipeline::Geometry{8, 2, 4}});
  const DistributedFurSimulator dist_sim(small, {.ranks = 4});
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    with_threads(threads, [&] {
      // A build without OpenMP always has one thread.
      const auto team = static_cast<std::size_t>(max_threads());
      const BatchEvaluator evaluator(sim);
      // Singleton batches never go outer.
      EXPECT_EQ(evaluator.resolve_parallelism(1), BatchParallelism::Inner);
      EXPECT_EQ(BatchEvaluator(one_tile).resolve_parallelism(1),
                BatchParallelism::Inner);
      // Sub-grain states (2^8 amplitudes) and the one-tile n = 16 plan
      // leave threads idle, so any real batch threads across schedules,
      // each thread in its own slot.
      EXPECT_EQ(evaluator.resolve_parallelism(16), spread_mode());
      EXPECT_EQ(BatchEvaluator(one_tile).resolve_parallelism(2),
                spread_mode());
      EXPECT_EQ(evaluator.pool_size(), team);
      // A plan with a unit for every thread in every pass keeps one state
      // and every thread on it, however large the batch.
      ASSERT_GE(many_tiles.layer_units(), static_cast<std::int64_t>(team));
      const BatchEvaluator filling(many_tiles);
      EXPECT_EQ(filling.resolve_parallelism(16), BatchParallelism::Inner);
      EXPECT_EQ(filling.pool_size(), 1u);
      // The distributed simulator's rank threads are the parallelism; an
      // outer team must never stack on top.
      const BatchEvaluator ranks(dist_sim);
      EXPECT_EQ(ranks.resolve_parallelism(16), BatchParallelism::Inner);
      EXPECT_EQ(ranks.pool_size(), 1u);
    });
  }
  // A pool sized at one thread has one slot, so the Outer team it could
  // give has one thread: run at four threads, its batches stay Inner.
  std::optional<BatchEvaluator> narrow;
  with_threads(1, [&] { narrow.emplace(sim); });
  with_threads(4, [&] {
    EXPECT_EQ(narrow->pool_size(), 1u);
    EXPECT_EQ(narrow->resolve_parallelism(16), BatchParallelism::Inner);
    EXPECT_EQ(narrow->evaluate(two_distinct_schedules()).size(), 2u);
  });
}

TEST(BatchScratch, TimingsAreTakenOnTheEvolvingThreadInBothModes) {
  // simulate_ns covers the fill, the evolution and the fused expectation;
  // reduce_ns the overlap and the sampling. Every result carries both,
  // whichever mode runs it.
  const TermList terms = labs_terms(12);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = two_distinct_schedules();
  const EvalRequest request{.overlap = true, .shots = 16};
  for (const int threads : kModeThreads) {
    SCOPED_TRACE(threads);
    with_threads(threads, [&] {
      const BatchEvaluator evaluator(sim);
      EXPECT_EQ(evaluator.resolve_parallelism(batch.size()), spread_mode());
      const std::vector<EvalResult> r = evaluator.evaluate(batch, request);
      ASSERT_EQ(r.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_GT(r[i].timings.simulate_ns, 0u) << "schedule " << i;
        EXPECT_GT(r[i].timings.reduce_ns, 0u) << "schedule " << i;
        // A bare engine has no precompute or enclosing submission.
        EXPECT_EQ(r[i].timings.precompute_ns, 0u) << "schedule " << i;
        EXPECT_EQ(r[i].timings.batch_ns, 0u) << "schedule " << i;
      }
      // The session surface stamps its precompute and the whole call.
      const api::ProblemSession session = api::ProblemSession::labs(12);
      ASSERT_EQ(session.batch().resolve_parallelism(batch.size()),
                spread_mode());
      for (const EvalResult& item : session.evaluate_batch(batch, request)) {
        EXPECT_GT(item.timings.simulate_ns, 0u);
        EXPECT_GT(item.timings.reduce_ns, 0u);
        EXPECT_EQ(item.timings.precompute_ns, session.precompute_ns());
        EXPECT_GE(item.timings.batch_ns, item.timings.simulate_ns);
      }
    });
  }
}

TEST(BatchScratch, AFailingScheduleThrowsAfterTheTeamJoins) {
  // A finite gamma so large that gamma * C overflows passes the engine's
  // schedule check, and the simulator refuses it before its first layer,
  // on the thread that runs the schedule. In Outer mode that is a worker
  // thread: the throw must surface after the join as the caller's
  // exception (not std::terminate), as the sequential loop throws it, and
  // leave the evaluator usable.
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  std::vector<QaoaParams> batch(6, two_distinct_schedules().front());
  batch[3].gammas[1] = std::numeric_limits<double>::max();
  const EvalRequest request{.shots = 4};
  for (const int threads : kModeThreads) {
    SCOPED_TRACE(threads);
    with_threads(threads, [&] {
      const BatchEvaluator evaluator(sim);
      ASSERT_EQ(evaluator.resolve_parallelism(batch.size()), spread_mode());
      EXPECT_THROW((void)evaluator.evaluate(batch, request),
                   std::invalid_argument);
      const std::vector<QaoaParams> good = two_distinct_schedules();
      const std::vector<EvalResult> r = evaluator.evaluate(good, request);
      for (std::size_t i = 0; i < good.size(); ++i)
        EXPECT_EQ(r[i].expectation,
                  sim.get_expectation(
                      sim.simulate_qaoa(good[i].gammas, good[i].betas)));
    });
  }
}

}  // namespace
}  // namespace qokit
