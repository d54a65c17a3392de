// Self-validation of the gate-at-a-time oracle (tests/support/
// gate_oracle.hpp): each gate against the dense reference, the circuit
// compiler's gate counts, and whole evolutions against the fast
// simulator. The oracle pins the fast path in other suites, so it gets
// its own check, as reference.hpp does in test_reference_self.cpp.
#include "support/gate_oracle.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "diagonal/ops.hpp"
#include "fur/simulator.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

using testing::Circuit;
using testing::compile_qaoa_circuit;
using testing::Gate;
using testing::GateQaoaSimulator;
using testing::max_diff;
using testing::PhaseStyle;
using testing::to_vec;

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    sv[x] = cdouble(rng.normal(), rng.normal());
  sv.normalize();
  return sv;
}

TEST(GateApply, HadamardMatchesReference) {
  // Every qubit, qubit 0 (adjacent pair partners) included.
  for (int q = 0; q < 5; ++q) {
    StateVector sv = random_state(5, 1);
    const auto before = to_vec(sv);
    testing::apply_gate(sv, Gate::h(q));
    EXPECT_LT(max_diff(to_vec(sv), testing::ref_apply_1q(
                                       before, q, testing::ref_matrix_h())),
              1e-13)
        << "q=" << q;
  }
}

TEST(GateApply, RxMatchesReference) {
  StateVector sv = random_state(5, 2);
  const auto before = to_vec(sv);
  testing::apply_gate(sv, Gate::rx(1, 0.8));
  EXPECT_LT(max_diff(to_vec(sv), testing::ref_apply_1q(
                                     before, 1, testing::ref_matrix_rx(0.8))),
            1e-13);
}

TEST(GateApply, RzAddsConditionalPhase) {
  StateVector sv = random_state(4, 3);
  const auto before = to_vec(sv);
  const double theta = 0.62;
  testing::apply_gate(sv, Gate::rz(2, theta));
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    const double ang = test_bit(x, 2) ? theta / 2 : -theta / 2;
    const cdouble expect = before[x] * cdouble(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(sv[x] - expect), 1e-13);
  }
}

TEST(GateApply, CxPermutesBasis) {
  for (std::uint64_t x = 0; x < 8; ++x) {
    StateVector sv = StateVector::basis_state(3, x);
    testing::apply_gate(sv, Gate::cx(0, 2));
    const std::uint64_t expect = test_bit(x, 0) ? (x ^ 0b100) : x;
    EXPECT_NEAR(std::norm(sv[expect]), 1.0, 1e-14) << "x=" << x;
  }
}

TEST(GateApply, ZPhaseMatchesParityRule) {
  StateVector sv = random_state(5, 4);
  const auto before = to_vec(sv);
  const double theta = 1.3;
  const std::uint64_t mask = 0b10110;
  testing::apply_gate(sv, Gate::zphase(mask, theta));
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    const double sgn = parity(x & mask) ? 1.0 : -1.0;
    const cdouble expect =
        before[x] * cdouble(std::cos(theta / 2), sgn * std::sin(theta / 2));
    EXPECT_LT(std::abs(sv[x] - expect), 1e-13);
  }
}

TEST(GateApply, XyMatchesFurKernel) {
  StateVector a = random_state(6, 5);
  StateVector b = a;
  testing::apply_gate(a, Gate::xy(1, 4, 2.0 * 0.7));
  const auto ref =
      testing::ref_apply_2q(to_vec(b), 1, 4, testing::ref_matrix_xy(0.7));
  EXPECT_LT(max_diff(to_vec(a), ref), 1e-13);
}

TEST(GateApply, RefusesF32States) {
  StateVector f32 = StateVector::plus_state(4, Precision::F32);
  EXPECT_THROW(testing::apply_gate(f32, Gate::rx(0, 0.3)),
               std::invalid_argument);
  Circuit circuit(4);
  circuit.append(Gate::h(0));
  EXPECT_THROW(testing::run_circuit(f32, circuit), std::invalid_argument);
  EXPECT_THROW((void)testing::expectation_terms(f32, labs_terms(4)),
               std::invalid_argument);
}

TEST(Circuit, HLayerPreparesPlusState) {
  Circuit c(6);
  for (int q = 0; q < 6; ++q) c.append(Gate::h(q));
  StateVector sv = StateVector::basis_state(6, 0);
  testing::run_circuit(sv, c);
  EXPECT_LT(sv.max_abs_diff(StateVector::plus_state(6)), 1e-13);
}

TEST(Circuit, AppendValidatesSupport) {
  Circuit c(3);
  EXPECT_THROW(c.append(Gate::h(3)), std::out_of_range);
  EXPECT_THROW(c.append(Gate::zphase(0b1000, 0.1)), std::out_of_range);
}

TEST(Compile, CxLadderGateCountsMaxCut) {
  // Per edge: 2 CX + 1 RZ; plus n H and n RX per layer.
  const Graph g = Graph::random_regular(8, 3, 11);
  const TermList terms = maxcut_terms(g);
  const std::vector<double> gs{0.1}, bs{0.2};
  const Circuit c = compile_qaoa_circuit(terms, gs, bs);
  const std::size_t expected = 8 + g.num_edges() * 3 + 8;
  EXPECT_EQ(c.size(), expected);
}

TEST(Compile, MultiZEmitsOneGatePerTerm) {
  const TermList terms = labs_terms(8);
  std::size_t nonconst = 0;
  for (const Term& t : terms)
    if (t.mask != 0) ++nonconst;
  const std::vector<double> gs{0.1}, bs{0.2};
  const Circuit c =
      compile_qaoa_circuit(terms, gs, bs, MixerType::X, PhaseStyle::MultiZ);
  EXPECT_EQ(c.size(), 8 + nonconst + 8);
}

TEST(Compile, LabsLadderUsesSixCxPerQuarticTerm) {
  const TermList terms = labs_terms(8);
  const std::vector<double> gs{0.1}, bs{0.2};
  const Circuit c = compile_qaoa_circuit(terms, gs, bs);
  std::size_t expected = 8 + 8;  // H + RX layers
  for (const Term& t : terms) {
    if (t.mask == 0) continue;
    expected += 2 * (t.order() - 1) + 1;
  }
  EXPECT_EQ(c.size(), expected);
}

class GateVsFurTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GateVsFurTest, MaxCutStateMatchesFastSimulator) {
  const auto [style_idx, n] = GetParam();
  const TermList terms = maxcut_terms(Graph::random_regular(n, 3, 19));
  const std::vector<double> gs{0.4, -0.2}, bs{0.7, 0.3};

  const GateQaoaSimulator gate_sim(
      terms, {.phase_style = style_idx == 0 ? PhaseStyle::CxLadder
                                            : PhaseStyle::MultiZ});
  const FurQaoaSimulator fur_sim(terms, {});
  const StateVector a = gate_sim.simulate_qaoa(gs, bs);
  const StateVector b = fur_sim.simulate_qaoa(gs, bs);
  EXPECT_LT(a.max_abs_diff(b), 1e-10);
  EXPECT_NEAR(gate_sim.get_expectation(a), fur_sim.get_expectation(b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(StylesAndSizes, GateVsFurTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(4, 6, 8)));

TEST(GateVsFur, LabsAgreesIncludingQuarticTerms) {
  const TermList terms = labs_terms(8);
  const std::vector<double> gs{0.13, 0.27}, bs{0.55, 0.21};
  const GateQaoaSimulator gate_sim(terms, {});
  const FurQaoaSimulator fur_sim(terms, {});
  const StateVector a = gate_sim.simulate_qaoa(gs, bs);
  const StateVector b = fur_sim.simulate_qaoa(gs, bs);
  EXPECT_LT(a.max_abs_diff(b), 1e-10);
}

TEST(GateVsFur, XyMixersAgreeFromTheDickeState) {
  // The xy runs start from the weight-n/2 Dicke state and emit one XY
  // rotation per edge, in the fur mixers' edge order.
  const TermList terms = portfolio_terms(random_portfolio(6, 3, 0.5, 7));
  const std::vector<double> gs{0.21, -0.35}, bs{0.62, 0.18};
  for (const MixerType mixer : {MixerType::XYRing, MixerType::XYComplete}) {
    const GateQaoaSimulator gate_sim(terms, {.mixer = mixer});
    const FurQaoaSimulator fur_sim(terms,
                                   {.mixer = mixer, .initial_weight = 3});
    EXPECT_LT(gate_sim.simulate_qaoa(gs, bs).max_abs_diff(
                  fur_sim.simulate_qaoa(gs, bs)),
              1e-10)
        << static_cast<int>(mixer);
  }
}

TEST(GateSim, ExpectationViaTermsMatchesDiagonal) {
  const TermList terms = labs_terms(9);
  const GateQaoaSimulator sim(terms, {});
  const std::vector<double> gs{0.3}, bs{0.5};
  const StateVector sv = sim.simulate_qaoa(gs, bs);
  const CostDiagonal d = CostDiagonal::precompute(terms);
  EXPECT_NEAR(sim.get_expectation(sv), expectation(sv, d), 1e-9);
}

}  // namespace
}  // namespace qokit
