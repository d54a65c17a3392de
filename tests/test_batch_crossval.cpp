// Randomized cross-validation of the batch evaluation engine: for random
// problems and random schedule batches (fixed seeds), BatchEvaluator must
// be *bit-identical* -- not merely close -- to a sequential simulate_qaoa
// loop on the same simulator, for every backend (serial / auto / u16 /
// dist:K / xy-ring) and in both parallelism modes, at sizes where the
// reductions run serially and where they thread. The mode follows the
// thread count: each check runs at four threads and at one.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <string_view>

#include "api/qokit.hpp"
#include "support/threads.hpp"

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
/// exactly: same expectation bits, same overlap bits and, when `shots`
/// > 0, the same samples (three reductions of each evolved state). Runs
/// at four threads and at one; a batch that can spread (`spreads`: two or
/// more schedules on a layer of one unit) then runs Outer and Inner, any
/// other batch Inner both times.
void expect_bit_identical(const QaoaFastSimulatorBase& sim,
                          std::span<const QaoaParams> batch, bool spreads,
                          const char* label, int shots = 0) {
  constexpr std::uint64_t kSeed = 17;
  const EvalRequest request{.overlap = true, .shots = shots};
  for (const int threads : {4, 1}) {
    std::vector<EvalResult> r;
    testing::with_threads(threads, [&] {
      const BatchEvaluator evaluator(sim, kSeed);
      EXPECT_EQ(evaluator.resolve_parallelism(batch.size()),
                spreads ? testing::spread_mode() : BatchParallelism::Inner)
          << label << " threads=" << threads;
      r = evaluator.evaluate(batch, request);
    });
    ASSERT_EQ(r.size(), batch.size()) << label;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const StateVector ref =
          sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
      EXPECT_EQ(r[i].expectation, sim.get_expectation(ref))
          << label << " schedule " << i << " threads=" << threads;
      EXPECT_EQ(r[i].overlap, sim.get_overlap(ref))
          << label << " schedule " << i << " threads=" << threads;
      if (shots > 0) {
        Rng rng(kSeed + i);
        EXPECT_EQ(r[i].samples, sample_states(ref, shots, rng))
            << label << " schedule " << i << " threads=" << threads;
      }
    }
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

  // n = 6..10: every pass of a layer runs as one unit.
  for (const char* name : {"serial", "auto", "u16", "serial:prec=f32",
                           "auto:prec=f32", "u16:prec=f32"})
    expect_bit_identical(*choose_simulator(terms, name), batch, true, name);

  for (const int ranks : {2, 4}) {
    if (2 * std::countr_zero(static_cast<unsigned>(ranks)) >
        terms.num_qubits())
      continue;
    const DistributedFurSimulator dist_sim(terms, {.ranks = ranks});
    // The rank threads are the parallelism: dist batches stay Inner.
    expect_bit_identical(dist_sim, batch, false, "dist");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchCrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(BatchCrossValidation, ThreadedSizesScoreOnTheEvolvingThread) {
  // n = 12 fuses its expectation into a serial final pass; n = 16 is past
  // kParallelGrain, so an Outer worker of a 4-thread team scores a
  // one-tile plan serially while a one-schedule batch, Inner on the same
  // four threads, threads the same reductions. Nine schedules keep every
  // worker busy with more than one. Both must still equal the sequential
  // loop, samples included.
  for (const int n : {12, 16}) {
    const std::vector<QaoaParams> batch =
        random_batch(static_cast<std::uint64_t>(n), 9);
    const TermList labs = labs_terms(n);
    const TermList sk = sk_terms(n, 5);
    for (const char* name : {"auto", "serial", "u16", "auto:prec=f32",
                             "serial:prec=f32", "u16:prec=f32"}) {
      const TermList& terms =
          std::string_view(name).starts_with("u16") ? labs : sk;
      const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
      const std::string label = std::string(name) + " n=" + std::to_string(n);
      ASSERT_EQ(sim->layer_units(), 1) << label;
      expect_bit_identical(*sim, batch, true, label.c_str(), 32);
      for (std::size_t i = 0; i < batch.size(); ++i)
        expect_bit_identical(*sim, std::span(batch).subspan(i, 1), false,
                             label.c_str(), 32);
    }
  }
}

TEST(BatchCrossValidation, XyRingDickeInitialStateIsCachedCorrectly) {
  const PortfolioInstance inst = random_portfolio(7, 3, 0.5, 11);
  const auto sim = choose_simulator_xyring(portfolio_terms(inst), "serial",
                                           inst.budget);
  const std::vector<QaoaParams> batch = random_batch(21, 4);
  expect_bit_identical(*sim, batch, true, "xyring");
}

TEST(BatchCrossValidation, ApiBatchExpectationMatchesOneLineApi) {
  const Graph g = Graph::random_regular(8, 3, 5);
  const TermList terms = maxcut_terms(g);
  const std::vector<QaoaParams> batch = random_batch(33, 6);
  for (const char* name :
       {"serial", "auto", "u16", "dist:2", "serial:prec=f32", "auto:prec=f32",
        "u16:prec=f32", "dist:2:prec=f32"}) {
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
  const std::uint64_t seed = 99;
  const std::vector<EvalResult> r =
      BatchEvaluator(sim, seed).evaluate(batch, {.shots = 64});
  ASSERT_EQ(r.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The documented contract: schedule i samples with seed sample_seed+i,
    // independent of evaluation order and parallelism mode.
    const StateVector ref =
        sim.simulate_qaoa(batch[i].gammas, batch[i].betas);
    Rng rng(seed + i);
    EXPECT_EQ(r[i].samples, sample_states(ref, 64, rng)) << "schedule " << i;
  }
}

TEST(BatchCrossValidation, HeterogeneousDepthsIncludingZero) {
  const TermList terms = sk_terms(7, 3);
  const FurQaoaSimulator sim(terms, {.exec = Exec::Serial});
  std::vector<QaoaParams> batch = random_batch(13, 3);
  batch.insert(batch.begin() + 1, QaoaParams{});  // p = 0: initial state
  const std::vector<EvalResult> r = BatchEvaluator(sim).evaluate(batch);
  const StateVector init = sim.initial_state();
  EXPECT_EQ(r[1].expectation, sim.get_expectation(init));
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
