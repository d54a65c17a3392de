#include "diagonal/cost_diagonal.hpp"

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "problems/sat.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

/// Every (problem, exec) combination must reproduce f(x) exactly.
struct PrecomputeCase {
  const char* name;
  TermList terms;
};

std::vector<PrecomputeCase> precompute_cases() {
  std::vector<PrecomputeCase> cases;
  cases.push_back({"maxcut", maxcut_terms(Graph::random_regular(10, 3, 1))});
  cases.push_back({"labs", labs_terms(9)});
  cases.push_back({"sat", sat_terms(random_ksat(8, 3, 20, 2))});
  cases.push_back({"portfolio", portfolio_terms(random_portfolio(7, 3, 0.5, 3))});
  return cases;
}

class PrecomputeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PrecomputeTest, MatchesBruteForceEvaluation) {
  const auto [case_idx, exec_idx] = GetParam();
  const auto cases = precompute_cases();
  const TermList& terms = cases[case_idx].terms;
  const auto exec = exec_idx == 0 ? Exec::Serial : Exec::Parallel;
  const CostDiagonal d = CostDiagonal::precompute(terms, exec);
  ASSERT_EQ(d.size(), dim_of(terms.num_qubits()));
  for (std::uint64_t x = 0; x < d.size(); ++x)
    ASSERT_NEAR(d[x], terms.evaluate(x), 1e-9)
        << cases[case_idx].name << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PrecomputeTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 2)));

TEST(CostDiagonal, FromFunctionMatchesCallable) {
  const auto f = [](std::uint64_t x) { return static_cast<double>(x % 7); };
  const CostDiagonal d = CostDiagonal::from_function(8, f);
  for (std::uint64_t x = 0; x < 256; ++x) EXPECT_DOUBLE_EQ(d[x], f(x));
}

TEST(CostDiagonal, FromValuesValidatesSize) {
  aligned_vector<double> v(7, 0.0);
  EXPECT_THROW(CostDiagonal::from_values(3, std::move(v)),
               std::invalid_argument);
}

TEST(CostDiagonal, MinMaxGroundCount) {
  aligned_vector<double> v{3.0, -1.0, 4.0, -1.0};
  const CostDiagonal d = CostDiagonal::from_values(2, std::move(v));
  EXPECT_DOUBLE_EQ(d.min_value(), -1.0);
  EXPECT_DOUBLE_EQ(d.max_value(), 4.0);
  EXPECT_EQ(d.ground_state_count(), 2u);
}

TEST(CostDiagonal, LabsMinimumEqualsKnownOptimum) {
  for (int n : {6, 8, 10, 12}) {
    const CostDiagonal d = CostDiagonal::precompute(labs_terms(n));
    EXPECT_NEAR(d.min_value(), labs_known_optimum(n), 1e-9) << "n=" << n;
  }
}

TEST(CostDiagonal, MemoryBytesIsEightPerEntry) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  EXPECT_EQ(d.memory_bytes(), 256u * 8u);
}

TEST(DiagonalOps, ApplyPhaseMatchesReference) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 4));
  const CostDiagonal d = CostDiagonal::precompute(terms);
  StateVector sv = StateVector::plus_state(8);
  apply_phase(sv, d, 0.37);
  const auto ref = testing::ref_apply_phase(
      testing::to_vec(StateVector::plus_state(8)), terms, 0.37);
  EXPECT_LT(testing::max_diff(testing::to_vec(sv), ref), 1e-12);
}

TEST(DiagonalOps, ApplyPhasePreservesNorm) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  StateVector sv = StateVector::plus_state(10);
  apply_phase(sv, d, 1.234);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(DiagonalOps, PhaseZeroIsIdentity) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  StateVector sv = StateVector::plus_state(8);
  const StateVector before = StateVector::plus_state(8);
  apply_phase(sv, d, 0.0);
  EXPECT_LT(sv.max_abs_diff(before), 1e-15);
}

TEST(DiagonalOps, ExpectationOnPlusStateIsSpectralMean) {
  // <+|C|+> = average of the diagonal = the offset of the polynomial.
  const TermList terms = labs_terms(8);
  const CostDiagonal d = CostDiagonal::precompute(terms);
  const StateVector sv = StateVector::plus_state(8);
  EXPECT_NEAR(expectation(sv, d), terms.offset(), 1e-9);
}

TEST(DiagonalOps, ExpectationOnBasisStateIsCostValue) {
  const TermList terms = labs_terms(7);
  const CostDiagonal d = CostDiagonal::precompute(terms);
  const StateVector sv = StateVector::basis_state(7, 42);
  EXPECT_NEAR(expectation(sv, d), labs_energy(42, 7), 1e-9);
}

TEST(DiagonalOps, ExpectationTermsAgreesWithDiagonal) {
  const TermList terms = maxcut_terms(Graph::random_regular(10, 3, 9));
  const CostDiagonal d = CostDiagonal::precompute(terms);
  StateVector sv = StateVector::plus_state(10);
  apply_phase(sv, d, 0.2);  // some non-trivial state
  EXPECT_NEAR(expectation_terms(sv, terms), expectation(sv, d), 1e-9);
}

TEST(DiagonalOps, SerialAndParallelExpectationAgree) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(12));
  StateVector sv = StateVector::plus_state(12);
  apply_phase(sv, d, 0.11);
  EXPECT_NEAR(expectation(sv, d, Exec::Serial),
              expectation(sv, d, Exec::Parallel), 1e-10);
}

TEST(DiagonalOps, OverlapGroundOnBasisState) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  // Find one ground state and check overlap is 1 there, 0 elsewhere.
  std::uint64_t gs = 0;
  for (std::uint64_t x = 0; x < d.size(); ++x)
    if (d[x] <= d.min_value() + 1e-9) {
      gs = x;
      break;
    }
  EXPECT_NEAR(overlap_ground(StateVector::basis_state(8, gs), d), 1.0, 1e-12);
  // A state one energy level up contributes nothing.
  std::uint64_t excited = 0;
  for (std::uint64_t x = 0; x < d.size(); ++x)
    if (d[x] > d.min_value() + 1e-9) {
      excited = x;
      break;
    }
  EXPECT_NEAR(overlap_ground(StateVector::basis_state(8, excited), d), 0.0,
              1e-12);
}

TEST(DiagonalOps, OverlapOnPlusStateIsDegeneracyOverDim) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const double overlap = overlap_ground(StateVector::plus_state(9), d);
  EXPECT_NEAR(overlap,
              static_cast<double>(d.ground_state_count()) / d.size(), 1e-12);
}

TEST(DiagonalOps, DimensionMismatchThrows) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(6));
  StateVector sv = StateVector::plus_state(7);
  EXPECT_THROW(apply_phase(sv, d, 0.1), std::invalid_argument);
  EXPECT_THROW(expectation(sv, d), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
