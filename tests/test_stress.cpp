// Numerical-stability stress tests: the in-place kernels must survive the
// high-depth regime the paper targets (p in the hundreds-to-thousands,
// Fig. 4 goes to p = 10^4) without norm drift or backend divergence.
#include <gtest/gtest.h>

#include "api/qokit.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

TEST(Stress, NormDriftStaysTinyAtDepth500) {
  const TermList terms = labs_terms(10);
  const FurQaoaSimulator sim(terms, {});
  std::vector<double> g(500), b(500);
  Rng rng(1);
  for (int l = 0; l < 500; ++l) {
    g[l] = rng.uniform(-0.5, 0.5);
    b[l] = rng.uniform(-1.0, 1.0);
  }
  const StateVector r = sim.simulate_qaoa(g, b);
  EXPECT_NEAR(r.norm_squared(), 1.0, 1e-9);
}

TEST(Stress, BackendsAgreeAfterDeepEvolution) {
  const TermList terms = labs_terms(9);
  std::vector<double> g(100), b(100);
  Rng rng(2);
  for (int l = 0; l < 100; ++l) {
    g[l] = rng.uniform(-0.3, 0.3);
    b[l] = rng.uniform(-0.8, 0.8);
  }
  const FurQaoaSimulator fused(terms, {.exec = Exec::Serial});
  const FurQaoaSimulator u16(terms, {.use_u16 = true});
  const StateVector a = fused.simulate_qaoa(g, b);
  // The dense out-of-place reference shares no production kernel.
  EXPECT_LT(testing::max_diff(testing::to_vec(a),
                              testing::ref_qaoa_x(terms, g, b)),
            1e-8);
  EXPECT_LT(u16.simulate_qaoa(g, b).max_abs_diff(a), 1e-8);
}

TEST(Stress, DistributedStaysLockstepAtDepth50) {
  const TermList terms = labs_terms(8);
  std::vector<double> g(50), b(50);
  Rng rng(3);
  for (int l = 0; l < 50; ++l) {
    g[l] = rng.uniform(-0.4, 0.4);
    b[l] = rng.uniform(-0.9, 0.9);
  }
  const FurQaoaSimulator single(terms, {.exec = Exec::Serial});
  const DistributedFurSimulator multi(terms, {.ranks = 4});
  EXPECT_LT(multi.simulate_qaoa(g, b).max_abs_diff(single.simulate_qaoa(g, b)),
            1e-9);
}

TEST(Stress, XySectorStaysExactAtDepth200) {
  const PortfolioInstance inst = random_portfolio(8, 3, 0.5, 5);
  const FurQaoaSimulator sim(portfolio_terms(inst),
                             {.mixer = MixerType::XYRing, .initial_weight = 3});
  std::vector<double> g(200), b(200);
  Rng rng(4);
  for (int l = 0; l < 200; ++l) {
    g[l] = rng.uniform(-0.3, 0.3);
    b[l] = rng.uniform(-0.7, 0.7);
  }
  const StateVector r = sim.simulate_qaoa(g, b);
  EXPECT_NEAR(r.weight_sector_mass(3), 1.0, 1e-9);
  EXPECT_NEAR(r.norm_squared(), 1.0, 1e-9);
}

TEST(Stress, PhaseUnwindingIsExactInverse) {
  // Applying the phase with gamma then -gamma must restore the state
  // to fp accuracy, even repeated many times.
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  StateVector sv = StateVector::plus_state(10);
  const StateVector before = sv;
  for (int i = 0; i < 100; ++i) {
    apply_phase(sv, d, 0.37);
    apply_phase(sv, d, -0.37);
  }
  EXPECT_LT(sv.max_abs_diff(before), 1e-10);
}

}  // namespace
}  // namespace qokit
