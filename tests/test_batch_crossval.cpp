// Randomized cross-validation of the batch evaluation engine: for random
// problems and random schedule batches (fixed seeds), BatchEvaluator must
// be *bit-identical* -- not merely close -- to a sequential simulate_qaoa
// loop on the same simulator, for every backend (serial / auto / u16 /
// dist:K / xy-ring) and in every parallelism mode.
#include <gtest/gtest.h>

#include <bit>

#include "api/qokit.hpp"

namespace qokit {
namespace {

/// Deterministic random problem for a seed: cycles through families.
TermList random_problem(std::uint64_t seed, int* n_out) {
  Rng rng(seed * 7919);
  const int n = 6 + static_cast<int>(rng.uniform_int(5));  // 6..10
  *n_out = n;
  switch (seed % 4) {
    case 0:
      return maxcut_terms(Graph::random_regular(n - (n % 2), 3, seed));
    case 1:
      return labs_terms(n);
    case 2:
      return sat_terms(random_ksat(n, 3, 3 * n, seed));
    default:
      return sk_terms(n, seed);
  }
}

/// A batch of random schedules with heterogeneous depths p in 1..3.
std::vector<QaoaParams> random_batch(std::uint64_t seed, int count) {
  Rng rng(seed * 104729);
  std::vector<QaoaParams> batch(count);
  for (QaoaParams& s : batch) {
    const int p = 1 + static_cast<int>(rng.uniform_int(3));
    s.gammas.resize(p);
    s.betas.resize(p);
    for (int l = 0; l < p; ++l) {
      s.gammas[l] = rng.uniform(-0.6, 0.6);
      s.betas[l] = rng.uniform(-0.9, 0.9);
    }
  }
  return batch;
}

/// Assert the batch engine reproduces the sequential per-schedule loop
/// exactly: same expectation bits, same overlap bits, same state bits.
void expect_bit_identical(const QaoaFastSimulatorBase& sim,
                          std::span<const QaoaParams> batch,
                          BatchParallelism mode, const char* label) {
  BatchOptions opts;
  opts.parallelism = mode;
  opts.compute_overlap = true;
  opts.keep_states = true;
  const BatchResult r = BatchEvaluator(sim, opts).evaluate(batch);
  ASSERT_EQ(r.expectations.size(), batch.size()) << label;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const StateVector ref =
        sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
    EXPECT_EQ(r.expectations[i], sim.get_expectation(ref))
        << label << " schedule " << i;
    EXPECT_EQ(r.overlaps[i], sim.get_overlap(ref))
        << label << " schedule " << i;
    EXPECT_EQ(r.states[i].max_abs_diff(ref), 0.0)
        << label << " schedule " << i;
  }
}

class BatchCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchCrossValidationTest, MatchesSequentialLoopOnEveryBackend) {
  const std::uint64_t seed = GetParam();
  int n = 0;
  const TermList terms = random_problem(seed, &n);
  const std::vector<QaoaParams> batch =
      random_batch(seed, 5 + static_cast<int>(seed % 4));

  for (const char* name : {"serial", "auto", "u16"}) {
    const auto sim = choose_simulator(terms, name);
    for (const auto mode :
         {BatchParallelism::Auto, BatchParallelism::Outer,
          BatchParallelism::Inner})
      expect_bit_identical(*sim, batch, mode, name);
  }

  for (const int ranks : {2, 4}) {
    if (2 * std::countr_zero(static_cast<unsigned>(ranks)) >
        terms.num_qubits())
      continue;
    const DistributedFurSimulator dist_sim(terms, {.ranks = ranks});
    // Auto must resolve to Inner for the distributed simulator (its rank
    // threads are the parallelism), but even the forced modes must agree.
    EXPECT_EQ(BatchEvaluator(dist_sim).resolve_parallelism(batch.size()),
              BatchParallelism::Inner)
        << "K=" << ranks;
    for (const auto mode : {BatchParallelism::Auto, BatchParallelism::Inner})
      expect_bit_identical(dist_sim, batch, mode, "dist");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchCrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(BatchCrossValidation, XyRingDickeInitialStateIsCachedCorrectly) {
  const PortfolioInstance inst = random_portfolio(7, 3, 0.5, 11);
  const auto sim = choose_simulator_xyring(portfolio_terms(inst), "serial",
                                           inst.budget);
  const std::vector<QaoaParams> batch = random_batch(21, 4);
  expect_bit_identical(*sim, batch, BatchParallelism::Auto, "xyring");
}

TEST(BatchCrossValidation, ApiBatchExpectationMatchesOneLineApi) {
  const Graph g = Graph::random_regular(8, 3, 5);
  const TermList terms = maxcut_terms(g);
  const std::vector<QaoaParams> batch = random_batch(33, 6);
  for (const char* name : {"serial", "auto", "u16", "dist:2"}) {
    const std::vector<double> values =
        api::qaoa_batch_expectation(terms, batch, name);
    ASSERT_EQ(values.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(values[i], api::qaoa_maxcut_expectation(
                               g, batch[i].gammas, batch[i].betas, name))
          << name << " schedule " << i;
  }
}

TEST(BatchCrossValidation, SamplesMatchPerScheduleSamplingContract) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<QaoaParams> batch = random_batch(7, 5);
  BatchOptions opts;
  opts.sample_shots = 64;
  opts.sample_seed = 99;
  const BatchResult r = BatchEvaluator(sim, opts).evaluate(batch);
  ASSERT_EQ(r.samples.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The documented contract: schedule i samples with seed sample_seed+i,
    // independent of evaluation order and parallelism mode.
    const StateVector ref =
        sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
    Rng rng(opts.sample_seed + i);
    EXPECT_EQ(r.samples[i],
              sample_states(ref, opts.sample_shots, rng))
        << "schedule " << i;
  }
}

TEST(BatchCrossValidation, HeterogeneousDepthsIncludingZero) {
  const TermList terms = sk_terms(7, 3);
  const FurQaoaSimulator sim(terms, {.exec = Exec::Serial});
  std::vector<QaoaParams> batch = random_batch(13, 3);
  batch.insert(batch.begin() + 1, QaoaParams{});  // p = 0: initial state
  const BatchResult r = BatchEvaluator(sim).evaluate(batch);
  const StateVector init = sim.initial_state();
  EXPECT_EQ(r.expectations[1], sim.get_expectation(init));
}

TEST(BatchCrossValidation, MismatchedScheduleLengthsThrow) {
  const TermList terms = labs_terms(6);
  const FurQaoaSimulator sim(terms, {});
  std::vector<QaoaParams> batch(1);
  batch[0].gammas = {0.1, 0.2};
  batch[0].betas = {0.3};
  EXPECT_THROW(BatchEvaluator(sim).evaluate(batch), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
