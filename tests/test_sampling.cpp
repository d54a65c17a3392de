#include "statevector/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "api/session.hpp"
#include "common/bitops.hpp"
#include "fur/simulator.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"

namespace qokit {
namespace {

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
  const auto counts = StateSampler(sv).sample_counts(20000, rng);
  EXPECT_NEAR(counts.at(0) / 20000.0, 0.7, 0.02);
  EXPECT_NEAR(counts.at(3) / 20000.0, 0.3, 0.02);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(Sampler, UniformStateCoversSpace) {
  const StateVector sv = StateVector::plus_state(4);
  Rng rng(4);
  const auto counts = StateSampler(sv).sample_counts(16000, rng);
  EXPECT_EQ(counts.size(), 16u);  // every outcome seen
  for (const auto& [x, c] : counts) EXPECT_NEAR(c, 1000, 200) << x;
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
  const auto counts = StateSampler(sv).sample_counts(4000, rng);
  EXPECT_NEAR(counts.at(1), 2000, 200);
  EXPECT_NEAR(counts.at(6), 2000, 200);
}

TEST(Sampler, ThrowsOnZeroState) {
  StateVector sv(3);
  EXPECT_THROW(StateSampler{sv}, std::invalid_argument);
}

TEST(Sampler, TrailingZeroAmplitudesNeverSampled) {
  // Regression: a uniform variate at (or rounding up to) the full mass
  // used to clamp to the last index overall, which could be a
  // zero-probability state when the trailing amplitudes are zero.
  StateVector sv(4);
  sv[2] = cdouble(0.8, 0.0);
  sv[5] = cdouble(0.0, 0.6);  // indices 6..15 stay zero
  const StateSampler sampler(sv);
  EXPECT_EQ(sampler.sample_from_uniform(1.0), 5u);
  EXPECT_EQ(sampler.sample_from_uniform(std::nextafter(1.0, 0.0)), 5u);
  Rng rng(11);
  for (int s = 0; s < 1000; ++s) {
    const std::uint64_t x = sampler.sample(rng);
    EXPECT_TRUE(x == 2u || x == 5u) << x;
  }
}

TEST(Sampler, ShotCountsValidated) {
  const StateVector sv = StateVector::plus_state(3);
  const StateSampler sampler(sv);
  Rng rng(12);
  EXPECT_THROW(sampler.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.sample_counts(-1, rng), std::invalid_argument);
  EXPECT_THROW(sample_states(sv, -3, rng), std::invalid_argument);
  EXPECT_TRUE(sampler.sample(0, rng).empty());
  EXPECT_TRUE(sampler.sample_counts(0, rng).empty());
  const auto f = [](std::uint64_t) { return 1.0; };
  EXPECT_THROW(estimate_expectation_sampled(sv, f, -1, rng),
               std::invalid_argument);
  const SampledExpectation z = estimate_expectation_sampled(sv, f, 0, rng);
  EXPECT_EQ(z.shots, 0);
  EXPECT_EQ(z.mean, 0.0);
  EXPECT_EQ(z.std_error, 0.0);
}

TEST(Sampler, SeededOverloadsMatchExplicitRngStreams) {
  const StateVector sv = StateVector::plus_state(6);
  const StateSampler sampler(sv);
  Rng rng(99);
  const auto explicit_stream = sampler.sample(40, rng);
  EXPECT_EQ(sampler.sample(40, std::uint64_t{99}), explicit_stream);
  EXPECT_EQ(sample_states(sv, 40, std::uint64_t{99}), explicit_stream);
  Rng rng2(99);
  EXPECT_EQ(sampler.sample_counts(40, std::uint64_t{99}),
            sampler.sample_counts(40, rng2));
}

TEST(Sampler, SessionSeedYieldsIdenticalStreamsAcrossExecModes) {
  // The SimulatorSpec sampling seed threads through StateSampler, and the
  // evolved amplitudes are Exec-independent (the SIMD layer's determinism
  // guarantee), so sessions differing only in execution policy draw the
  // same bitstrings -- the spec alone determines the stream.
  const QaoaParams params{{0.4, -0.3}, {0.7, 0.2}};
  const api::ProblemSession serial =
      api::ProblemSession::labs(8, SimulatorSpec::parse("serial:seed=7"));
  const api::ProblemSession parallel =
      api::ProblemSession::labs(8, SimulatorSpec::parse("auto:seed=7"));
  const auto a = serial.sample(params, 50);
  EXPECT_EQ(parallel.sample(params, 50), a);

  api::EvalRequest request;
  request.shots = 50;
  EXPECT_EQ(*serial.evaluate(params, request).samples,
            *parallel.evaluate(params, request).samples);
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
