// Randomized cross-validation: every backend must agree with every other
// on random problems and random schedules. These are the repository's
// belt-and-braces property tests; each seed exercises a different problem
// family, schedule, and size.
#include <gtest/gtest.h>

#include "api/qokit.hpp"
#include "support/gate_oracle.hpp"

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

std::pair<std::vector<double>, std::vector<double>> random_schedule(
    std::uint64_t seed, int p) {
  Rng rng(seed * 104729);
  std::vector<double> g(p), b(p);
  for (int l = 0; l < p; ++l) {
    g[l] = rng.uniform(-0.6, 0.6);
    b[l] = rng.uniform(-0.9, 0.9);
  }
  return {g, b};
}

class BackendAgreementTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BackendAgreementTest, AllBackendsProduceTheSameState) {
  const std::uint64_t seed = GetParam();
  int n = 0;
  const TermList terms = random_problem(seed, &n);
  if (terms.num_qubits() < 2) GTEST_SKIP();
  const auto [g, b] = random_schedule(seed, 1 + static_cast<int>(seed % 3));

  const FurQaoaSimulator reference(terms, {.exec = Exec::Serial});
  const StateVector ref = reference.simulate_qaoa(g, b);

  // Threaded fused-kernel backend.
  const FurQaoaSimulator threaded(terms, {});
  EXPECT_LT(threaded.simulate_qaoa(g, b).max_abs_diff(ref), 1e-10) << seed;

  // Gate-based baseline, both phase decompositions.
  for (const auto style :
       {testing::PhaseStyle::CxLadder, testing::PhaseStyle::MultiZ}) {
    const testing::GateQaoaSimulator gates(terms, {.phase_style = style});
    EXPECT_LT(gates.simulate_qaoa(g, b).max_abs_diff(ref), 1e-9)
        << seed << " style " << static_cast<int>(style);
  }

  // Distributed over 2 and 4 virtual ranks.
  for (const int k : {2, 4}) {
    if (2 * k > (1 << 30)) continue;
    const DistributedFurSimulator dist_sim(terms, {.ranks = k});
    EXPECT_LT(dist_sim.simulate_qaoa(g, b).max_abs_diff(ref), 1e-10)
        << seed << " K=" << k;
  }

  // Expectations agree between the diagonal and the raw-terms path.
  EXPECT_NEAR(reference.get_expectation(ref),
              testing::expectation_terms(ref, terms), 1e-9)
      << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(AlltoallInvolution, TwoApplicationsRestoreTheData) {
  const int k = 8;
  const std::uint64_t block = 32;
  VirtualRankWorld world(k);
  std::vector<std::vector<cdouble>> bufs(k);
  world.run([&](Communicator& comm) {
    Rng rng(1000 + comm.rank());
    auto& mine = bufs[comm.rank()];
    mine.resize(k * block);
    for (auto& v : mine) v = cdouble(rng.normal(), rng.normal());
    const auto original = mine;
    comm.alltoall(mine.data(), block);
    comm.alltoall(mine.data(), block);
    for (std::size_t i = 0; i < mine.size(); ++i)
      if (mine[i] != original[i]) ADD_FAILURE() << "rank " << comm.rank();
  });
}

class SessionLegacyAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionLegacyAgreementTest, SessionApiIsBitIdenticalToFreeFunctions) {
  // The session API must not merely approximate the legacy surface: for
  // every backend spelling, evaluating through a ProblemSession (cached
  // diagonal, reused scratch) and through the legacy factories (fresh
  // simulator per call) must produce the same bits.
  const std::uint64_t seed = GetParam();
  int n = 0;
  const TermList terms = random_problem(seed, &n);
  if (terms.num_qubits() < 4) GTEST_SKIP();
  const auto [g, b] = random_schedule(seed, 1 + static_cast<int>(seed % 3));
  QaoaParams params;
  params.gammas = g;
  params.betas = b;
  const std::vector<QaoaParams> batch{params, params};

  for (const char* name : {"serial", "auto", "u16", "dist:2"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session(terms, SimulatorSpec::parse(name));
    const auto legacy = choose_simulator(terms, name);
    const StateVector ref = legacy->simulate_qaoa(g, b);

    api::EvalRequest request;
    request.overlap = true;
    const api::EvalResult r = session.evaluate(params, request);
    EXPECT_EQ(*r.expectation, legacy->get_expectation(ref));
    EXPECT_EQ(*r.overlap, legacy->get_overlap(ref));
    EXPECT_EQ(session.simulate(params).max_abs_diff(ref), 0.0);
    EXPECT_EQ(session.expectations(batch),
              api::qaoa_batch_expectation(terms, batch, name));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionLegacyAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 9));

class PrecisionAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrecisionAgreementTest, F32BackendsTrackTheirF64Twins) {
  // The mixed-precision matrix: every f32-capable backend spelling, run
  // at both precisions on the same random problem and schedule. The f32
  // run must stay within a pinned drift tolerance of its own f64 twin
  // (same backend, so the comparison isolates the amplitude width), the
  // double-accumulated objectives must agree to reduction scale, and the
  // f32 bits themselves must be Exec-independent. Explicit prec= tokens
  // keep the test meaningful under a QOKIT_PREC=f32 environment leg.
  const std::uint64_t seed = GetParam();
  int n = 0;
  const TermList terms = random_problem(seed, &n);
  if (terms.num_qubits() < 2) GTEST_SKIP();
  const auto [g, b] = random_schedule(seed, 1 + static_cast<int>(seed % 3));

  StateVector serial_f32;  // kept for the cross-backend bit-identity check
  for (const char* name : {"serial", "auto", "u16", "dist:2"}) {
    SCOPED_TRACE(name);
    const std::string base(name);
    const auto sim64 =
        make_simulator(terms, SimulatorSpec::parse(base + ":prec=f64"));
    const auto sim32 =
        make_simulator(terms, SimulatorSpec::parse(base + ":prec=f32"));
    ASSERT_EQ(sim64->precision(), Precision::F64);
    ASSERT_EQ(sim32->precision(), Precision::F32);
    const StateVector r64 = sim64->simulate_qaoa(g, b);
    const StateVector r32 = sim32->simulate_qaoa(g, b);
    EXPECT_EQ(r32.precision(), Precision::F32);
    EXPECT_LT(r32.max_abs_diff(r64), 1e-5) << seed;
    EXPECT_NEAR(sim32->get_expectation(r32), sim64->get_expectation(r64),
                1e-4)
        << seed;
    EXPECT_NEAR(sim32->get_overlap(r32), sim64->get_overlap(r64), 1e-5)
        << seed;
    if (base == "serial") {
      serial_f32 = r32;
    } else if (base == "auto") {
      // Determinism contract at f32: Exec policy (serial vs auto is
      // exactly that switch) never changes the bits.
      EXPECT_EQ(r32.max_abs_diff(serial_f32), 0.0) << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ProbabilitiesInPlace, MatchesAllocatingVariant) {
  const TermList terms = labs_terms(9);
  const FurQaoaSimulator sim(terms, {});
  const auto [g, b] = random_schedule(3, 2);
  StateVector sv = sim.simulate_qaoa(g, b);
  const auto probs = sv.probabilities();
  sv.probabilities_in_place();
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    EXPECT_NEAR(sv[x].real(), probs[x], 1e-14);
    EXPECT_DOUBLE_EQ(sv[x].imag(), 0.0);
  }
}

TEST(SamplerVsProbabilities, TotalVariationShrinksWithShots) {
  const TermList terms = maxcut_terms(Graph::random_regular(6, 3, 3));
  const FurQaoaSimulator sim(terms, {});
  const auto [g, b] = random_schedule(5, 2);
  const StateVector sv = sim.simulate_qaoa(g, b);
  const auto probs = sv.probabilities();

  Rng rng(17);
  const int shots = 60000;
  const auto counts = StateSampler(sv).sample_counts(shots, rng);
  double tv = 0.0;
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    const auto it = counts.find(x);
    const double freq =
        it == counts.end() ? 0.0 : static_cast<double>(it->second) / shots;
    tv += std::abs(freq - probs[x]);
  }
  tv /= 2.0;
  EXPECT_LT(tv, 0.02);  // 64 outcomes, 60k shots: TV ~ sqrt(64/shots)/2
}

TEST(XySectorInvariance, RandomSchedulesNeverLeakProbability) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const PortfolioInstance inst = random_portfolio(7, 3, 0.5, seed);
    const FurQaoaSimulator sim(portfolio_terms(inst),
                               {.mixer = seed % 2 ? MixerType::XYRing
                                                  : MixerType::XYComplete,
                                .initial_weight = 3});
    const auto [g, b] = random_schedule(seed, 3);
    const StateVector r = sim.simulate_qaoa(g, b);
    EXPECT_NEAR(r.weight_sector_mass(3), 1.0, 1e-10) << seed;
    EXPECT_NEAR(r.norm_squared(), 1.0, 1e-10) << seed;
  }
}

}  // namespace
}  // namespace qokit
