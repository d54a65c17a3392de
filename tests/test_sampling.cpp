#include "statevector/sampling.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>

#include "api/session.hpp"
#include "common/bitops.hpp"
#include "fur/simulator.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"
#include "support/table_sampler.hpp"

namespace qokit {
namespace {

/// Largest single operator-new request since the last reset (the global
/// replacement below): pins that batch sampling asks for no 2^n table.
std::atomic<std::size_t> largest_new{0};

}  // namespace
}  // namespace qokit

void* operator new(std::size_t bytes) {
  std::size_t seen = qokit::largest_new.load(std::memory_order_relaxed);
  while (bytes > seen && !qokit::largest_new.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qokit {
namespace {

/// How often sample_states drew each basis state in `shots` shots.
std::vector<int> sample_counts(const StateVector& sv, int shots, Rng& rng) {
  std::vector<int> counts(sv.size(), 0);
  for (const std::uint64_t x : sample_states(sv, shots, rng)) ++counts[x];
  return counts;
}

TEST(Sampler, BasisStateAlwaysSamplesItself) {
  const StateVector sv = StateVector::basis_state(5, 19);
  Rng rng(1);
  for (std::uint64_t x : sample_states(sv, 100, rng)) EXPECT_EQ(x, 19u);
}

TEST(Sampler, RespectsZeroAmplitudes) {
  StateVector sv(4);
  sv[3] = cdouble(0.6, 0.0);
  sv[12] = cdouble(0.0, 0.8);
  Rng rng(2);
  for (std::uint64_t x : sample_states(sv, 500, rng))
    EXPECT_TRUE(x == 3 || x == 12);
}

TEST(Sampler, FrequenciesTrackProbabilities) {
  StateVector sv(2);
  sv[0] = cdouble(std::sqrt(0.7), 0.0);
  sv[3] = cdouble(0.0, std::sqrt(0.3));
  Rng rng(3);
  const auto counts = sample_counts(sv, 20000, rng);
  EXPECT_NEAR(counts[0] / 20000.0, 0.7, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.3, 0.02);
  EXPECT_EQ(counts[0] + counts[3], 20000);
}

TEST(Sampler, UniformStateCoversSpace) {
  const StateVector sv = StateVector::plus_state(4);
  Rng rng(4);
  const auto counts = sample_counts(sv, 16000, rng);
  for (std::size_t x = 0; x < counts.size(); ++x)
    EXPECT_NEAR(counts[x], 1000, 200) << x;
}

TEST(Sampler, DeterministicPerSeed) {
  const StateVector sv = StateVector::plus_state(6);
  Rng a(7), b(7);
  EXPECT_EQ(sample_states(sv, 50, a), sample_states(sv, 50, b));
}

TEST(Sampler, UnnormalizedStatesHandled) {
  StateVector sv(3);
  sv[1] = cdouble(2.0, 0.0);  // norm 4
  sv[6] = cdouble(2.0, 0.0);
  Rng rng(8);
  const auto counts = sample_counts(sv, 4000, rng);
  EXPECT_NEAR(counts[1], 2000, 200);
  EXPECT_NEAR(counts[6], 2000, 200);
}

TEST(Sampler, ThrowsOnZeroState) {
  StateVector sv(3);
  Rng rng(10);
  EXPECT_THROW((void)sample_states(sv, 1, rng), std::invalid_argument);
  const auto f = [](std::uint64_t) { return 1.0; };
  EXPECT_THROW((void)estimate_expectation_sampled(sv, f, 1, rng),
               std::invalid_argument);
}

TEST(Sampler, TrailingZeroAmplitudesNeverSampled) {
  // Regression: a uniform variate at (or rounding up to) the full mass
  // used to clamp to the last index overall, which could be a
  // zero-probability state when the trailing amplitudes are zero.
  StateVector sv(4);
  sv[2] = cdouble(0.8, 0.0);
  sv[5] = cdouble(0.0, 0.6);  // indices 6..15 stay zero
  const std::vector<double> top{1.0, std::nextafter(1.0, 0.0)};
  EXPECT_EQ(sample_from_uniforms(sv, top),
            (std::vector<std::uint64_t>{5, 5}));
  Rng rng(11);
  for (const std::uint64_t x : sample_states(sv, 1000, rng))
    EXPECT_TRUE(x == 2u || x == 5u) << x;
}

TEST(Sampler, ShotCountsValidated) {
  const StateVector sv = StateVector::plus_state(3);
  Rng rng(12);
  EXPECT_THROW(sample_states(sv, -3, rng), std::invalid_argument);
  EXPECT_TRUE(sample_states(sv, 0, rng).empty());
  const auto f = [](std::uint64_t) { return 1.0; };
  EXPECT_THROW(estimate_expectation_sampled(sv, f, -1, rng),
               std::invalid_argument);
  const SampledExpectation z = estimate_expectation_sampled(sv, f, 0, rng);
  EXPECT_EQ(z.shots, 0);
  EXPECT_EQ(z.mean, 0.0);
  EXPECT_EQ(z.std_error, 0.0);
}

TEST(Sampler, QaoaSamplesConcentrateOnGoodCuts) {
  // After a few optimized-ish layers, sampled cuts must on average beat
  // the random-assignment baseline |E|/2 -- the sampling-based estimator
  // agreeing with the exact expectation.
  const Graph g = Graph::random_regular(10, 3, 3);
  const TermList terms = maxcut_terms(g);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.35, 0.6}, bs{-0.55, -0.3};
  const StateVector result = sim.simulate_qaoa(gs, bs);

  Rng rng(5);
  const auto samples = sample_states(result, 3000, rng);
  double mean_cut = 0.0;
  for (std::uint64_t x : samples) mean_cut += g.cut_value(x);
  mean_cut /= static_cast<double>(samples.size());

  EXPECT_GT(mean_cut, g.num_edges() / 2.0);
  // Sampling estimator within a few standard errors of the exact value.
  EXPECT_NEAR(mean_cut, -sim.get_expectation(result), 0.35);
}

TEST(SampledEstimator, ConvergesToExactExpectation) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 11));
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.4}, bs{-0.5};
  const StateVector r = sim.simulate_qaoa(gs, bs);
  const double exact = sim.get_expectation(r);

  Rng rng(9);
  const auto est = estimate_expectation_sampled(
      r, [&terms](std::uint64_t x) { return terms.evaluate(x); }, 40000, rng);
  EXPECT_NEAR(est.mean, exact, 5.0 * est.std_error + 1e-9);
  EXPECT_GT(est.std_error, 0.0);
}

TEST(SampledEstimator, ErrorShrinksWithShots) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.1}, bs{-0.6};
  const StateVector r = sim.simulate_qaoa(gs, bs);
  Rng rng(11);
  const auto coarse = estimate_expectation_sampled(
      r, [&terms](std::uint64_t x) { return terms.evaluate(x); }, 500, rng);
  const auto fine = estimate_expectation_sampled(
      r, [&terms](std::uint64_t x) { return terms.evaluate(x); }, 50000, rng);
  EXPECT_LT(fine.std_error, coarse.std_error);
}

/// An unnormalized n-qubit state with every fifth amplitude zero and
/// every amplitude from `zero_from` on zero: repeated cumulative masses
/// mid-table and trailing zero-probability states.
StateVector ragged_state(int n, std::uint64_t zero_from, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t x = 0; x < zero_from; ++x)
    if (x % 5 != 3)
      sv[x] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return sv;
}

TEST(Sampler, TwoPassDrawsEqualTheTableOverManySeeds) {
  std::vector<std::pair<std::string, StateVector>> states;
  states.emplace_back("ragged", ragged_state(9, 300, 1));
  states.emplace_back("ragged f32",
                      ragged_state(9, 300, 2).to_precision(Precision::F32));
  states.emplace_back("plus f32", StateVector::plus_state(7, Precision::F32));
  states.emplace_back("basis", StateVector::basis_state(6, 41));
  for (const auto& [name, sv] : states) {
    const testing::StateSampler table(sv);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng a(seed), b(seed);
      std::vector<std::uint64_t> expected(97);
      for (std::uint64_t& x : expected) x = table.sample(a);
      ASSERT_EQ(sample_states(sv, 97, b), expected)
          << name << " seed " << seed;
      ASSERT_EQ(a.next_u64(), b.next_u64()) << name << ": streams diverged";
    }
  }
}

TEST(Sampler, TwoPassMatchesTheTableAtTiesAndTheClamp) {
  // |+>^2 has cumulative masses 0.25, 0.5, 0.75 and 1 exactly: a variate
  // landing on one takes the next index (upper_bound), and 1.0 clamps to
  // the last index. The ragged state clamps to its last nonzero index.
  const StateVector plus = StateVector::plus_state(2);
  const std::vector<double> u01{0.75, 0.0, 1.0, 0.25, 0.5,
                                std::nextafter(1.0, 0.0), 0.3, 0.25, 1.0};
  const std::vector<std::uint64_t> got = sample_from_uniforms(plus, u01);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{3, 0, 3, 1, 2, 3, 1, 1, 3}));
  const StateVector ragged = ragged_state(6, 40, 3);
  for (const StateVector& sv :
       {plus, ragged, ragged.to_precision(Precision::F32)}) {
    const testing::StateSampler table(sv);
    const std::vector<std::uint64_t> drawn = sample_from_uniforms(sv, u01);
    ASSERT_EQ(drawn.size(), u01.size());
    for (std::size_t s = 0; s < u01.size(); ++s)
      EXPECT_EQ(drawn[s], table.sample_from_uniform(u01[s]))
          << "u01 = " << u01[s];
  }
  EXPECT_LT(sample_from_uniforms(ragged, std::vector<double>{1.0})[0], 40u);
  EXPECT_THROW(sample_from_uniforms(
                   plus, std::vector<double>{
                             std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(sample_from_uniforms(plus, std::vector<double>{1.5}),
               std::invalid_argument);
  EXPECT_THROW(sample_from_uniforms(StateVector(3), std::vector<double>{0.5}),
               std::invalid_argument);
}

TEST(Sampler, BatchSamplingAllocatesNoStateSizedTable) {
  // 512 KiB of doubles would be the CDF (at either amplitude width); the
  // shots' own vectors are tiny.
  const int n = 16;
  const TermList terms = maxcut_terms(Graph::random_regular(n, 3, 4));
  for (const char* name : {"auto", "auto:prec=f32"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session(terms, SimulatorSpec::parse(name));
    const QaoaParams schedule{{0.4}, {0.3}};
    api::EvalRequest request;
    request.shots = 256;
    (void)session.evaluate(schedule, request);  // warm the pool slot
    largest_new.store(0);
    const api::EvalResult sampled = session.evaluate(schedule, request);
    ASSERT_TRUE(sampled.samples.has_value());
    EXPECT_LT(largest_new.load(), dim_of(n) * sizeof(double) / 8)
        << "ProblemSession::evaluate";
    largest_new.store(0);
    (void)session.evaluate_batch(std::vector<QaoaParams>(3, schedule),
                                 request);
    EXPECT_LT(largest_new.load(), dim_of(n) * sizeof(double) / 8)
        << "BatchEvaluator";
  }
}

TEST(SampledEstimator, MeanIsTheTableOraclesDrawsBitForBit) {
  // Same seed, same shots: the estimate averages exactly the outcomes the
  // table oracle draws, in shot order, and leaves the stream where the
  // oracle's draws leave it. SK's non-integral costs make the sums depend
  // on the order they are added in.
  const TermList terms = sk_terms(9, 4);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.3, -0.15}, bs{-0.6, 0.25};
  const StateVector r = sim.simulate_qaoa(gs, bs);
  const auto f = [&terms](std::uint64_t x) { return terms.evaluate(x); };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const StateVector& sv : {r, r.to_precision(Precision::F32)}) {
    const int shots = 777;
    Rng a(31), b(31);
    const SampledExpectation est = estimate_expectation_sampled(sv, f, shots, a);
    const testing::StateSampler table(sv);
    double sum = 0.0, sum_sq = 0.0;
    for (int s = 0; s < shots; ++s) {
      const double v = f(table.sample(b));
      sum += v;
      sum_sq += v * v;
    }
    const double mean = sum / shots;
    EXPECT_EQ(est.shots, shots);
    EXPECT_EQ(bits(est.mean), bits(mean));
    EXPECT_EQ(bits(est.std_error),
              bits(std::sqrt((sum_sq / shots - mean * mean) / shots)));
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SampledEstimator, ZeroVarianceOnBasisState) {
  const TermList terms = labs_terms(6);
  const StateVector sv = StateVector::basis_state(6, 13);
  Rng rng(3);
  const auto est = estimate_expectation_sampled(
      sv, [&terms](std::uint64_t x) { return terms.evaluate(x); }, 100, rng);
  EXPECT_DOUBLE_EQ(est.mean, terms.evaluate(13));
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
}

}  // namespace
}  // namespace qokit
