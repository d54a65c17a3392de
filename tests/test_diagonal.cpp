#include "diagonal/cost_diagonal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "problems/sat.hpp"
#include "problems/sk.hpp"
#include "support/gate_oracle.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `count` terms with uniform non-integer weights and random masks inside
/// `allowed`, in generation order (not canonicalized, so masks repeat).
TermList random_terms(int n, int count, std::uint64_t allowed,
                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Term> terms;
  for (int k = 0; k < count; ++k)
    terms.push_back({rng.uniform(-2.0, 2.0), rng.next_u64() & allowed});
  return TermList(n, std::move(terms));
}

/// Every (problem, exec) combination must reproduce terms.evaluate(x) bit
/// for bit: the same additions in the same order from +0.0. The weights
/// are non-integer wherever the problem allows, so a different summation
/// order shows in the low bits.
struct PrecomputeCase {
  std::string name;
  TermList terms;
};

std::vector<PrecomputeCase> precompute_cases() {
  std::vector<PrecomputeCase> cases;
  cases.push_back({"maxcut", maxcut_terms(Graph::random_regular(10, 3, 1))});
  cases.push_back({"labs", labs_terms(9)});
  cases.push_back({"sat", sat_terms(random_ksat(8, 3, 20, 2))});
  cases.push_back({"portfolio", portfolio_terms(random_portfolio(7, 3, 0.5, 3))});
  cases.push_back({"sk", sk_terms(10, 9)});
  // Masks inside one 16-amplitude block (the sign table alone) and masks
  // above it (the block's high-bit parity alone).
  cases.push_back({"low-bits", random_terms(9, 60, 0xFull, 21)});
  cases.push_back({"high-bits", random_terms(9, 60, 0x1F0ull, 22)});
  cases.push_back({"empty-mask",
                   TermList(6, {{0.3, 0}, {-1.7, 0b101}, {0.1, 0}})});
  cases.push_back({"no-terms", TermList(3, {})});
  // Shorter than one 16-amplitude block (n < 4), one block, two blocks.
  for (int n = 0; n <= 5; ++n)
    cases.push_back({"n=" + std::to_string(n),
                     random_terms(n, 25, dim_of(n) - 1, 30 + n)});
  // Long enough that Exec::Parallel splits it across the OpenMP team.
  static_assert((std::int64_t{1} << 16) >= 2 * kParallelGrain);
  cases.push_back({"n=16", random_terms(16, 50, dim_of(16) - 1, 40)});
  return cases;
}

class PrecomputeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PrecomputeTest, MatchesBruteForceEvaluation) {
  const auto [case_idx, exec_idx] = GetParam();
  const auto cases = precompute_cases();
  const TermList& terms = cases[case_idx].terms;
  const auto exec = exec_idx == 0 ? Exec::Serial : Exec::Parallel;
  const CostDiagonal d = CostDiagonal::precompute(terms, exec);
  ASSERT_EQ(d.size(), dim_of(terms.num_qubits()));
  for (std::uint64_t x = 0; x < d.size(); ++x)
    ASSERT_EQ(bits(d[x]), bits(terms.evaluate(x)))
        << cases[case_idx].name << " x=" << x << ": " << d[x] << " vs "
        << terms.evaluate(x);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PrecomputeTest,
    ::testing::Combine(::testing::Range<std::size_t>(0,
                                                     precompute_cases().size()),
                       ::testing::Range(0, 2)));

TEST(CostDiagonal, PrecomputeCostsFillsAnyWindow) {
  // Windows that start and end off a 16-amplitude block, shorter than a
  // block, inside one block, and straddling several.
  const TermList terms = random_terms(7, 40, 0x7Full, 5);
  for (const auto& [begin, count] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 128}, {3, 4}, {12, 4},
        {5, 30}, {17, 1}, {16, 16}, {31, 97}, {127, 1}, {40, 0}}) {
    std::vector<double> out(count + 2, 42.0);
    precompute_costs(terms, begin, {out.data() + 1, count});
    EXPECT_EQ(out.front(), 42.0) << begin;
    EXPECT_EQ(out.back(), 42.0) << begin;
    for (std::uint64_t i = 0; i < count; ++i)
      ASSERT_EQ(bits(out[1 + i]), bits(terms.evaluate(begin + i)))
          << "begin=" << begin << " i=" << i;
  }
}

TEST(CostDiagonal, RefusesOversizedProblemsBeforeAllocating) {
  const TermList terms(40, {{1.0, 1ull << 39}, {-0.5, 0b11}});
  const auto zero = [](std::uint64_t) { return 0.0; };
  const std::uint64_t before = aligned_allocation_count();
  EXPECT_THROW(CostDiagonal::precompute(terms), std::invalid_argument);
  EXPECT_THROW(CostDiagonal::precompute(terms, Exec::Serial),
               std::invalid_argument);
  EXPECT_THROW(CostDiagonal::from_function(40, zero), std::invalid_argument);
  EXPECT_THROW(CostDiagonal::from_function(-1, zero), std::invalid_argument);
  EXPECT_EQ(aligned_allocation_count(), before);
  try {
    CostDiagonal::precompute(terms);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("34-qubit limit"), std::string::npos)
        << e.what();
  }
}

TEST(CostDiagonal, FromFunctionMatchesCallable) {
  const auto f = [](std::uint64_t x) { return static_cast<double>(x % 7); };
  const CostDiagonal d = CostDiagonal::from_function(8, f);
  for (std::uint64_t x = 0; x < 256; ++x) EXPECT_DOUBLE_EQ(d[x], f(x));
}

TEST(CostDiagonal, FromValuesValidatesSize) {
  CostDiagonal::Values v(7, 0.0);
  EXPECT_THROW(CostDiagonal::from_values(3, std::move(v)),
               std::invalid_argument);
}

TEST(CostDiagonal, MinMaxGroundCount) {
  CostDiagonal::Values v{3.0, -1.0, 4.0, -1.0};
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
  EXPECT_NEAR(testing::expectation_terms(sv, terms), expectation(sv, d),
              1e-9);
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
