#include "fur/su4.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "support/reference.hpp"

namespace qokit {
namespace {

using testing::max_diff;
using testing::to_vec;

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    sv[x] = cdouble(rng.normal(), rng.normal());
  sv.normalize();
  return sv;
}

class XyKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(XyKernelTest, MatchesDenseReference) {
  const auto [n, q1, q2] = GetParam();
  if (q1 >= n || q2 >= n || q1 == q2) GTEST_SKIP();
  const double beta = 0.543;
  StateVector sv = random_state(n, 17);
  const auto before = to_vec(sv);
  apply_xy(sv, q1, q2, beta, Exec::Serial);
  EXPECT_LT(max_diff(to_vec(sv), testing::ref_apply_2q(
                                     before, q1, q2, testing::ref_matrix_xy(
                                                         beta))),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(Pairs, XyKernelTest,
                         ::testing::Combine(::testing::Values(2, 4, 6),
                                            ::testing::Values(0, 1, 3),
                                            ::testing::Values(1, 2, 5)));

TEST(XyKernel, SymmetricInQubitOrder) {
  StateVector a = random_state(6, 3);
  StateVector b = a;
  apply_xy(a, 1, 4, 0.8);
  apply_xy(b, 4, 1, 0.8);
  EXPECT_LT(a.max_abs_diff(b), 1e-14);
}

TEST(XyKernel, PreservesNormAndHammingSectors) {
  StateVector sv = StateVector::dicke_state(8, 3);
  apply_xy(sv, 2, 6, 1.1, Exec::Parallel);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(sv.weight_sector_mass(3), 1.0, 1e-12);
}

TEST(XyKernel, SwapAngleExchangesAmplitudes) {
  // At beta = pi/2 the XY rotation maps |01> -> -i|10>.
  StateVector sv = StateVector::basis_state(2, 0b01);
  apply_xy(sv, 0, 1, 3.14159265358979323846 / 2);
  EXPECT_NEAR(std::abs(sv[0b10] - cdouble(0, -1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(sv[0b01]), 0.0, 1e-12);
}

TEST(XyKernel, IdentityOnAlignedStates) {
  // |00> and |11> are untouched for any angle.
  StateVector sv(2);
  sv[0b00] = cdouble(0.6, 0.0);
  sv[0b11] = cdouble(0.0, 0.8);
  apply_xy(sv, 0, 1, 0.9);
  EXPECT_NEAR(std::abs(sv[0b00] - cdouble(0.6, 0.0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(sv[0b11] - cdouble(0.0, 0.8)), 0.0, 1e-14);
}

TEST(XyKernel, InverseUndoes) {
  StateVector sv = random_state(7, 23);
  const StateVector before = sv;
  apply_xy(sv, 0, 5, 0.77);
  apply_xy(sv, 0, 5, -0.77);
  EXPECT_LT(sv.max_abs_diff(before), 1e-13);
}

TEST(XyKernel, RejectsEqualQubits) {
  StateVector sv = StateVector::plus_state(4);
  EXPECT_THROW(apply_xy(sv, 1, 1, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
