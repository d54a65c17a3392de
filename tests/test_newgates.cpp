// RY / CZ / SWAP gate coverage in the gate executor.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gatesim/execute.hpp"
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

TEST(NewGates, RyMatchesDenseReference) {
  StateVector sv = random_state(5, 1);
  const auto before = to_vec(sv);
  const double theta = 0.83;
  apply_gate(sv, Gate::ry(2, theta), Exec::Serial);
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const std::array<cdouble, 4> m{cdouble(c), cdouble(-s), cdouble(s),
                                 cdouble(c)};
  EXPECT_LT(max_diff(to_vec(sv), testing::ref_apply_1q(before, 2, m)), 1e-13);
}

TEST(NewGates, RyOnPlusRotatesTowardBasis) {
  // RY(pi/2)|+> = |1> up to sign conventions: check norm shifts entirely.
  StateVector sv = StateVector::basis_state(1, 0);
  apply_gate(sv, Gate::ry(0, 3.14159265358979323846), Exec::Serial);
  EXPECT_NEAR(std::norm(sv[1]), 1.0, 1e-12);
}

TEST(NewGates, CzAppliesMinusOnDoublyExcited) {
  StateVector sv = random_state(4, 2);
  const auto before = to_vec(sv);
  apply_gate(sv, Gate::cz(1, 3), Exec::Serial);
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    const bool both = test_bit(x, 1) && test_bit(x, 3);
    EXPECT_LT(std::abs(sv[x] - (both ? -before[x] : before[x])), 1e-14);
  }
}

TEST(NewGates, CzIsSymmetricAndSelfInverse) {
  StateVector a = random_state(5, 3);
  StateVector b = a;
  apply_gate(a, Gate::cz(0, 4), Exec::Serial);
  apply_gate(b, Gate::cz(4, 0), Exec::Serial);
  EXPECT_LT(a.max_abs_diff(b), 1e-15);
  apply_gate(a, Gate::cz(0, 4), Exec::Serial);
  StateVector orig = random_state(5, 3);
  EXPECT_LT(a.max_abs_diff(orig), 1e-15);
}

TEST(NewGates, SwapPermutesBasisStates) {
  for (std::uint64_t x = 0; x < 16; ++x) {
    StateVector sv = StateVector::basis_state(4, x);
    apply_gate(sv, Gate::swap(0, 2), Exec::Serial);
    std::uint64_t expect = x & ~0b101ull;
    if (test_bit(x, 0)) expect |= 0b100;
    if (test_bit(x, 2)) expect |= 0b001;
    EXPECT_NEAR(std::norm(sv[expect]), 1.0, 1e-14) << x;
  }
}

TEST(NewGates, SwapEqualsThreeCx) {
  StateVector a = random_state(5, 4);
  StateVector b = a;
  apply_gate(a, Gate::swap(1, 3), Exec::Serial);
  apply_gate(b, Gate::cx(1, 3), Exec::Serial);
  apply_gate(b, Gate::cx(3, 1), Exec::Serial);
  apply_gate(b, Gate::cx(1, 3), Exec::Serial);
  EXPECT_LT(a.max_abs_diff(b), 1e-13);
}

TEST(NewGates, RejectEqualQubits) {
  EXPECT_THROW(Gate::cz(2, 2), std::invalid_argument);
  EXPECT_THROW(Gate::swap(1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
