// Algorithm 1/2 (tests/support/su2_oracle.hpp) against a dense 2x2
// reference, and the production RX butterfly against Algorithm 1.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "support/reference.hpp"
#include "support/su2_oracle.hpp"

namespace qokit {
namespace {

using testing::apply_rx;
using testing::apply_su2;
using testing::apply_su2_product;
using testing::max_diff;
using testing::Su2;
using testing::to_vec;

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    sv[x] = cdouble(rng.normal(), rng.normal());
  sv.normalize();
  return sv;
}

Su2 random_su2(std::uint64_t seed) {
  Rng rng(seed);
  // Random point on S^3 -> |a|^2 + |b|^2 = 1 -> SU(2).
  cdouble a(rng.normal(), rng.normal());
  cdouble b(rng.normal(), rng.normal());
  const double norm = std::sqrt(std::norm(a) + std::norm(b));
  return {a / norm, b / norm};
}

class Su2KernelTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Su2KernelTest, MatchesDenseReference) {
  const auto [n, q, seed] = GetParam();
  if (q >= n) GTEST_SKIP();
  StateVector sv = random_state(n, seed);
  const auto before = to_vec(sv);
  const Su2 u = random_su2(seed + 100);
  apply_su2(sv, q, u, Exec::Serial);
  // Row-major 2x2 of U = [[a, -b*], [b, a*]].
  const std::array<cdouble, 4> m{u.a, -std::conj(u.b), u.b, std::conj(u.a)};
  EXPECT_LT(max_diff(to_vec(sv), testing::ref_apply_1q(before, q, m)), 1e-12);
}

TEST_P(Su2KernelTest, PreservesNorm) {
  const auto [n, q, seed] = GetParam();
  if (q >= n) GTEST_SKIP();
  StateVector sv = random_state(n, seed);
  apply_su2(sv, q, random_su2(seed + 7), Exec::Parallel);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Su2KernelTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0, 1, 3, 6),
                                            ::testing::Values(1, 2)));

TEST(Su2Kernel, SerialAndParallelAgree) {
  StateVector a = random_state(13, 5);
  StateVector b = a.num_qubits() == 13 ? a : a;  // copy
  StateVector c = a;
  const Su2 u = random_su2(9);
  apply_su2(a, 6, u, Exec::Serial);
  apply_su2(c, 6, u, Exec::Parallel);
  EXPECT_LT(a.max_abs_diff(c), 1e-14);
}

TEST(RxKernel, MatchesGenericSu2) {
  const double beta = 0.7123;
  StateVector a = random_state(8, 3);
  StateVector b = a;
  apply_rx(a, 4, beta, Exec::Serial);
  // e^{-i beta X}: a = cos(beta), b = -i sin(beta).
  apply_su2(b, 4, {cdouble(std::cos(beta), 0), cdouble(0, -std::sin(beta))},
            Exec::Serial);
  EXPECT_LT(a.max_abs_diff(b), 1e-13);
}

TEST(RxKernel, InverseUndoesRotation) {
  StateVector sv = random_state(9, 11);
  const StateVector before = sv;
  apply_rx(sv, 2, 0.9);
  apply_rx(sv, 2, -0.9);
  EXPECT_LT(sv.max_abs_diff(before), 1e-13);
}

TEST(RxKernel, HalfPiMapsBasisToFlippedBasis) {
  // e^{-i pi/2 X} = -i X: |0> -> -i |1>.
  StateVector sv = StateVector::basis_state(3, 0b000);
  apply_rx(sv, 1, 3.14159265358979323846 / 2);
  EXPECT_NEAR(std::abs(sv[0b010] - cdouble(0, -1)), 0.0, 1e-12);
}

TEST(RxKernel, FullMixerEquivalenceAcrossQubits) {
  // Applying rx on each qubit in any order gives the same result
  // (the factors commute).
  StateVector a = random_state(7, 21);
  StateVector b = a;
  for (int q = 0; q < 7; ++q) apply_rx(a, q, 0.31);
  for (int q = 6; q >= 0; --q) apply_rx(b, q, 0.31);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(Su2Product, AppliesPerQubitMatrices) {
  const int n = 5;
  StateVector a = random_state(n, 31);
  StateVector b = a;
  std::vector<Su2> us;
  for (int q = 0; q < n; ++q) us.push_back(random_su2(40 + q));
  apply_su2_product(a, us.data(), n);
  for (int q = 0; q < n; ++q) apply_su2(b, q, us[q]);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(Su2Product, RejectsWrongCount) {
  StateVector sv = StateVector::plus_state(4);
  std::vector<Su2> us(3);
  EXPECT_THROW(apply_su2_product(sv, us.data(), 3), std::invalid_argument);
}

TEST(Su2Kernel, RejectsBadQubit) {
  StateVector sv = StateVector::plus_state(4);
  EXPECT_THROW(apply_su2(sv, 4, Su2{}), std::out_of_range);
  EXPECT_THROW(apply_rx(sv, -1, 0.1), std::out_of_range);
}

}  // namespace
}  // namespace qokit
