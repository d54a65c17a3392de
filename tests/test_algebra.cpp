// Algebraic property sweeps: linearity and composition laws that every
// layer of the stack must respect.
#include <gtest/gtest.h>

#include "api/qokit.hpp"
#include "support/reference.hpp"
#include "support/su2_oracle.hpp"

namespace qokit {
namespace {

using testing::apply_su2;
using testing::Su2;

TEST(Algebra, TermListEvaluationIsLinearInWeights) {
  Rng rng(1);
  TermList a(6, {}), b(6, {}), sum(6, {});
  for (int k = 0; k < 10; ++k) {
    const double wa = rng.uniform(-1, 1), wb = rng.uniform(-1, 1);
    const std::uint64_t mask = rng.next_u64() & 63;
    if (mask == 0) continue;
    a.add_mask(wa, mask);
    b.add_mask(wb, mask);
    sum.add_mask(wa + wb, mask);
  }
  for (std::uint64_t x = 0; x < 64; ++x)
    EXPECT_NEAR(a.evaluate(x) + b.evaluate(x), sum.evaluate(x), 1e-12);
}

TEST(Algebra, CanonicalizeIsIdempotent) {
  TermList t(5, {});
  Rng rng(2);
  for (int k = 0; k < 30; ++k)
    t.add_mask(rng.uniform(-1, 1), rng.next_u64() & 31);
  t.canonicalize();
  const auto once = t.terms();
  t.canonicalize();
  EXPECT_EQ(t.terms(), once);
}

TEST(Algebra, CanonicalizePreservesEvaluation) {
  TermList t(5, {});
  Rng rng(3);
  for (int k = 0; k < 40; ++k)
    t.add_mask(rng.uniform(-1, 1), rng.next_u64() & 31);
  TermList canonical = t;
  canonical.canonicalize();
  for (std::uint64_t x = 0; x < 32; ++x)
    EXPECT_NEAR(t.evaluate(x), canonical.evaluate(x), 1e-12);
}

TEST(Algebra, DiagonalOfConcatenationIsSumOfDiagonals) {
  const TermList a = maxcut_terms(Graph::random_regular(8, 3, 1));
  const TermList b = sk_terms(8, 2);
  TermList both(8, {});
  for (const Term& t : a) both.add_mask(t.weight, t.mask);
  for (const Term& t : b) both.add_mask(t.weight, t.mask);
  const CostDiagonal da = CostDiagonal::precompute(a);
  const CostDiagonal db = CostDiagonal::precompute(b);
  const CostDiagonal dsum = CostDiagonal::precompute(both);
  for (std::uint64_t x = 0; x < dsum.size(); ++x)
    EXPECT_NEAR(dsum[x], da[x] + db[x], 1e-10);
}

TEST(Algebra, PhaseOperatorsComposeAdditively) {
  // e^{-i g1 C} e^{-i g2 C} = e^{-i (g1+g2) C}.
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  StateVector a = StateVector::plus_state(8);
  StateVector b = StateVector::plus_state(8);
  apply_phase(a, d, 0.3);
  apply_phase(a, d, 0.45);
  apply_phase(b, d, 0.75);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(Algebra, MixersComposeAdditivelyInBeta) {
  // X-mixer factors commute across layers: U(b1) U(b2) = U(b1 + b2).
  StateVector a = StateVector::plus_state(7);
  apply_phase(a, CostDiagonal::precompute(labs_terms(7)), 0.2);  // non-trivial
  StateVector b = a;
  apply_mixer_x(a, 0.3);
  apply_mixer_x(a, 0.5);
  apply_mixer_x(b, 0.8);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(Algebra, Su2CompositionMatchesMatrixProduct) {
  // Applying U then V on one qubit equals applying VU.
  const Su2 u{cdouble(0.8, 0.1), cdouble(0.3, std::sqrt(1 - 0.64 - 0.01 - 0.09))};
  const Su2 v{cdouble(0.6, -0.2), cdouble(-0.5, std::sqrt(1 - 0.36 - 0.04 - 0.25))};
  // VU in SU(2) parameters: a = va*ua - conj(vb)*ub, b = vb*ua + conj(va)*ub.
  const Su2 vu{v.a * u.a - std::conj(v.b) * u.b,
               v.b * u.a + std::conj(v.a) * u.b};
  Rng rng(5);
  StateVector x(6);
  for (std::uint64_t i = 0; i < x.size(); ++i)
    x[i] = cdouble(rng.normal(), rng.normal());
  x.normalize();
  StateVector y = x;
  apply_su2(x, 3, u);
  apply_su2(x, 3, v);
  apply_su2(y, 3, vu);
  EXPECT_LT(x.max_abs_diff(y), 1e-12);
}

TEST(Algebra, DickeStatesAreOrthogonalAcrossSectors) {
  for (int k1 = 0; k1 <= 5; ++k1)
    for (int k2 = k1 + 1; k2 <= 5; ++k2) {
      const StateVector a = StateVector::dicke_state(5, k1);
      const StateVector b = StateVector::dicke_state(5, k2);
      EXPECT_LT(std::abs(a.inner(b)), 1e-14) << k1 << "," << k2;
    }
}

TEST(Algebra, GateExpectationInvariantUnderDiagonalPhase) {
  // <C> is unchanged by any extra diagonal phase layer (C commutes).
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 9));
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.4}, bs{-0.5};
  StateVector r = sim.simulate_qaoa(gs, bs);
  const double before = sim.get_expectation(r);
  apply_phase(r, sim.get_cost_diagonal(), 1.234);
  EXPECT_NEAR(sim.get_expectation(r), before, 1e-10);
}

}  // namespace
}  // namespace qokit
