#include "diagonal/diagonal_u16.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "problems/sk.hpp"

namespace qokit {
namespace {

TEST(DiagonalU16, ExactForLabs) {
  // LABS energies are non-negative integers < 2^16 (paper Sec. V-B).
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
  EXPECT_DOUBLE_EQ(u.scale(), 1.0);
  for (std::uint64_t x = 0; x < d.size(); ++x)
    EXPECT_DOUBLE_EQ(u.decode(x), d[x]) << "x=" << x;
}

TEST(DiagonalU16, ExactForUnitWeightMaxCut) {
  // -cut is integral; the shifted spectrum is a small set of integers.
  const CostDiagonal d =
      CostDiagonal::precompute(maxcut_terms(Graph::random_regular(10, 3, 6)));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
}

TEST(DiagonalU16, QuantizesNonIntegralSpectra) {
  const CostDiagonal d =
      CostDiagonal::precompute(portfolio_terms(random_portfolio(8, 3, 0.5, 1)));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_FALSE(u.is_exact());
  const double range = d.max_value() - d.min_value();
  EXPECT_LE(u.max_abs_error(), range / 65535.0);  // half-step rounding bound x2
  for (std::uint64_t x = 0; x < d.size(); ++x)
    EXPECT_NEAR(u.decode(x), d[x], range / 65535.0);
}

TEST(DiagonalU16, MemoryIsQuarterOfDouble) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_EQ(u.memory_bytes() * 4, d.memory_bytes());
}

TEST(DiagonalU16, PhaseTableMatchesDirectExponentials) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  const DiagonalU16 u = DiagonalU16::encode(d);
  const double gamma = 0.413;
  aligned_vector<std::complex<double>> lut;
  u.phase_table_into(gamma, lut);
  ASSERT_EQ(lut.size(), 65536u);
  for (std::uint32_t c = 0; c < 300; ++c) {
    const double ang = -gamma * (u.offset() + u.scale() * c);
    EXPECT_NEAR(lut[c].real(), std::cos(ang), 1e-14);
    EXPECT_NEAR(lut[c].imag(), std::sin(ang), 1e-14);
  }
}

TEST(DiagonalU16, ApplyPhaseMatchesDoublePath) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const DiagonalU16 u = DiagonalU16::encode(d);
  StateVector a = StateVector::plus_state(9);
  StateVector b = StateVector::plus_state(9);
  apply_phase(a, d, 0.77);
  apply_phase(b, u, 0.77);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(DiagonalU16, ExpectationMatchesDoublePath) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const DiagonalU16 u = DiagonalU16::encode(d);
  StateVector sv = StateVector::plus_state(9);
  apply_phase(sv, d, 0.3);
  EXPECT_NEAR(expectation(sv, d), expectation(sv, u), 1e-10);
}

TEST(DiagonalU16, ConstantSpectrumHandled) {
  CostDiagonal::Values v(16, 5.0);
  const CostDiagonal d = CostDiagonal::from_values(4, std::move(v));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
  for (std::uint64_t x = 0; x < 16; ++x) EXPECT_DOUBLE_EQ(u.decode(x), 5.0);
}

TEST(DiagonalU16, WideIntegerRangeFallsBackToScaling) {
  // Range 2^17 exceeds the exact-integer window; codec must scale.
  CostDiagonal d = CostDiagonal::from_function(
      4, [](std::uint64_t x) { return static_cast<double>(x) * 10000.0; });
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_GT(u.scale(), 1.0);
  for (std::uint64_t x = 0; x < 16; ++x)
    EXPECT_NEAR(u.decode(x), d[x], u.scale());
}

/// Element-by-element encode, the oracle for the blocked one: the
/// integrality scan, then round, clamp and a running max of the decode
/// error, both in index order.
struct SerialCodes {
  std::vector<std::uint16_t> codes;
  double scale = 1.0;
  double max_err = 0.0;
};

SerialCodes serial_encode(const CostDiagonal& d) {
  SerialCodes out;
  const double lo = d.min_value();
  const double hi = d.max_value();
  bool integral = true;
  for (std::uint64_t x = 0; x < d.size() && integral; ++x) {
    const double shifted = d[x] - lo;
    integral = std::abs(shifted - std::round(shifted)) < 1e-9;
  }
  out.scale = integral && hi - lo <= 65535.0 ? 1.0
              : hi > lo                      ? (hi - lo) / 65535.0
                                             : 1.0;
  out.codes.resize(d.size());
  for (std::uint64_t x = 0; x < d.size(); ++x) {
    const double clamped =
        std::clamp(std::round((d[x] - lo) / out.scale), 0.0, 65535.0);
    out.codes[x] = static_cast<std::uint16_t>(clamped);
    out.max_err =
        std::max(out.max_err, std::abs(lo + out.scale * clamped - d[x]));
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(DiagonalU16, ThreadedEncodeEqualsTheSerialOneBitForBit) {
  // n = 17 holds 2^17 values, past kParallelGrain, so Exec::Parallel
  // threads both passes. LABS encodes exactly at scale 1; SK's dense
  // non-integral spectrum is rounded onto 65536 levels.
  const int n = 17;
  ASSERT_GE(dim_of(n), static_cast<std::uint64_t>(kParallelGrain));
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "labs" : "sk");
    const CostDiagonal d = CostDiagonal::precompute(
        exact ? labs_terms(n) : sk_terms(n, 3));
    const SerialCodes ref = serial_encode(d);
    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      const DiagonalU16 u = DiagonalU16::encode(d, exec);
      EXPECT_EQ(u.is_exact(), exact);
      EXPECT_TRUE(same_bits(u.offset(), d.min_value()));
      EXPECT_TRUE(same_bits(u.scale(), ref.scale));
      EXPECT_TRUE(same_bits(u.max_abs_error(), ref.max_err));
      EXPECT_EQ(u.is_exact(), ref.max_err < 1e-12);
      ASSERT_EQ(u.size(), ref.codes.size());
      EXPECT_EQ(std::memcmp(u.codes(), ref.codes.data(), u.memory_bytes()),
                0);
    }
  }
}

}  // namespace
}  // namespace qokit
