#include "fur/simulator.hpp"

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

using testing::max_diff;
using testing::to_vec;

const std::vector<double> kGammas{0.4, -0.17, 0.83};
const std::vector<double> kBetas{0.9, 0.35, -0.6};

class FurVsDenseTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(FurVsDenseTest, QaoaStateMatchesDenseReference) {
  const auto [n, p] = GetParam();
  const TermList terms = maxcut_terms(Graph::random_regular(n, 3, 17));
  const FurQaoaSimulator sim(terms, {.exec = Exec::Serial});
  const std::vector<double> gs(kGammas.begin(), kGammas.begin() + p);
  const std::vector<double> bs(kBetas.begin(), kBetas.begin() + p);
  const StateVector result = sim.simulate_qaoa(gs, bs);
  const auto ref = testing::ref_qaoa_x(terms, gs, bs);
  EXPECT_LT(max_diff(to_vec(result), ref), 1e-11);
  EXPECT_NEAR(sim.get_expectation(result), testing::ref_expectation(ref, terms),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FurVsDenseTest,
                         ::testing::Combine(::testing::Values(4, 6, 8),
                                            ::testing::Values(1, 2, 3)));

TEST(FurSimulator, LabsMatchesDenseReference) {
  const TermList terms = labs_terms(7);
  const FurQaoaSimulator sim(terms, {.exec = Exec::Serial});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  const auto ref = testing::ref_qaoa_x(terms, kGammas, kBetas);
  EXPECT_LT(max_diff(to_vec(result), ref), 1e-11);
}

TEST(FurSimulator, SerialAndParallelAgree) {
  const TermList terms = labs_terms(11);
  const FurQaoaSimulator serial(terms, {.exec = Exec::Serial});
  const FurQaoaSimulator parallel(terms, {.exec = Exec::Parallel});
  const StateVector a = serial.simulate_qaoa(kGammas, kBetas);
  const StateVector b = parallel.simulate_qaoa(kGammas, kBetas);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(FurSimulator, U16ModeAgreesOnIntegralSpectrum) {
  const TermList terms = labs_terms(10);
  const FurQaoaSimulator dbl(terms, {});
  const FurQaoaSimulator u16(terms, {.use_u16 = true});
  EXPECT_TRUE(u16.diagonal_u16().is_exact());
  const StateVector a = dbl.simulate_qaoa(kGammas, kBetas);
  const StateVector b = u16.simulate_qaoa(kGammas, kBetas);
  EXPECT_LT(a.max_abs_diff(b), 1e-11);
  EXPECT_NEAR(dbl.get_expectation(a), u16.get_expectation(b), 1e-9);
}

TEST(FurSimulator, ExpectationEqualsProbabilityWeightedCost) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  const auto probs = sim.get_probabilities(result);
  const auto& diag = sim.get_cost_diagonal();
  double manual = 0.0;
  for (std::uint64_t x = 0; x < diag.size(); ++x) manual += probs[x] * diag[x];
  EXPECT_NEAR(sim.get_expectation(result), manual, 1e-9);
}

TEST(FurSimulator, OverlapEqualsGroundMass) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  const auto probs = sim.get_probabilities(result);
  const auto& diag = sim.get_cost_diagonal();
  const double lo = diag.min_value();
  double manual = 0.0;
  for (std::uint64_t x = 0; x < diag.size(); ++x)
    if (diag[x] <= lo + 1e-9) manual += probs[x];
  EXPECT_NEAR(sim.get_overlap(result), manual, 1e-12);
}

TEST(FurSimulator, CustomCostsExpectation) {
  const TermList terms = labs_terms(7);
  const FurQaoaSimulator sim(terms, {});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  // A custom all-ones cost vector: expectation must be the norm = 1.
  const CostDiagonal ones =
      CostDiagonal::from_function(7, [](std::uint64_t) { return 1.0; });
  EXPECT_NEAR(sim.get_expectation(result, ones), 1.0, 1e-12);
}

TEST(FurSimulator, ZeroLayersReturnsInitialState) {
  const TermList terms = labs_terms(6);
  const FurQaoaSimulator sim(terms, {});
  const StateVector result = sim.simulate_qaoa({}, {});
  EXPECT_LT(result.max_abs_diff(StateVector::plus_state(6)), 1e-15);
  EXPECT_NEAR(sim.get_expectation(result), terms.offset(), 1e-9);
}

TEST(FurSimulator, MismatchedScheduleThrows) {
  const FurQaoaSimulator sim(labs_terms(5), {});
  const std::vector<double> g{0.1, 0.2};
  const std::vector<double> b{0.1};
  EXPECT_THROW(sim.simulate_qaoa(g, b), std::invalid_argument);
}

TEST(FurSimulator, XyRingKeepsDickeSector) {
  const PortfolioInstance inst = random_portfolio(6, 2, 0.5, 7);
  const FurQaoaSimulator sim(portfolio_terms(inst),
                             {.mixer = MixerType::XYRing, .initial_weight = 2});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  EXPECT_NEAR(result.weight_sector_mass(2), 1.0, 1e-10);
}

TEST(FurSimulator, XyCompleteMatchesDenseReference) {
  const PortfolioInstance inst = random_portfolio(5, 2, 0.5, 9);
  const TermList terms = portfolio_terms(inst);
  const FurQaoaSimulator sim(
      terms, {.exec = Exec::Serial, .mixer = MixerType::XYComplete,
              .initial_weight = 2});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);

  // Dense reference with identical layer structure.
  auto v = to_vec(StateVector::dicke_state(5, 2));
  for (std::size_t l = 0; l < kGammas.size(); ++l) {
    v = testing::ref_apply_phase(v, terms, kGammas[l]);
    v = testing::ref_apply_mixer_xy_complete(std::move(v), 5, kBetas[l]);
  }
  EXPECT_LT(max_diff(to_vec(result), v), 1e-11);
}

TEST(FurSimulator, SectorRestrictedOverlap) {
  const PortfolioInstance inst = random_portfolio(6, 3, 0.5, 11);
  const TermList terms = portfolio_terms(inst);
  const FurQaoaSimulator sim(terms,
                             {.mixer = MixerType::XYRing, .initial_weight = 3});
  const StateVector result = sim.simulate_qaoa(kGammas, kBetas);
  const double overlap = sim.get_overlap(result, /*restrict_weight=*/3);
  EXPECT_GT(overlap, 0.0);
  EXPECT_LE(overlap, 1.0 + 1e-12);
}

TEST(ChooseSimulator, NamesProduceWorkingSimulators) {
  const TermList terms = labs_terms(6);
  for (const char* name : {"auto", "serial", "u16"}) {
    const auto sim = choose_simulator(terms, name);
    const StateVector r = sim->simulate_qaoa(kGammas, kBetas);
    EXPECT_NEAR(r.norm_squared(), 1.0, 1e-10) << name;
  }
}

TEST(ChooseSimulator, AllNamesAgreeNumerically) {
  const TermList terms = labs_terms(8);
  const auto reference = choose_simulator(terms, "serial");
  const StateVector ref = reference->simulate_qaoa(kGammas, kBetas);
  for (const char* name : {"auto", "u16"}) {
    const auto sim = choose_simulator(terms, name);
    const StateVector r = sim->simulate_qaoa(kGammas, kBetas);
    EXPECT_LT(r.max_abs_diff(ref), 1e-10) << name;
  }
}

TEST(ChooseSimulator, UnknownNameThrows) {
  EXPECT_THROW(choose_simulator(labs_terms(4), "gpu"), std::invalid_argument);
}

TEST(ChooseSimulator, XyFactoriesSetMixerAndWeight) {
  const TermList terms = labs_terms(6);
  const auto ring = choose_simulator_xyring(terms, "auto", 2);
  const StateVector r = ring->simulate_qaoa(kGammas, kBetas);
  EXPECT_NEAR(r.weight_sector_mass(2), 1.0, 1e-10);
  const auto complete = choose_simulator_xycomplete(terms, "auto", 4);
  const StateVector c = complete->simulate_qaoa(kGammas, kBetas);
  EXPECT_NEAR(c.weight_sector_mass(4), 1.0, 1e-10);
}

}  // namespace
}  // namespace qokit
