#include "statevector/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/bitops.hpp"

namespace qokit {
namespace {

TEST(StateVector, PlusStateIsUniform) {
  const StateVector sv = StateVector::plus_state(5);
  const double expect = 1.0 / std::sqrt(32.0);
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_NEAR(sv[x].real(), expect, 1e-15);
    EXPECT_NEAR(sv[x].imag(), 0.0, 1e-15);
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, BasisStateIsOneHot) {
  const StateVector sv = StateVector::basis_state(4, 9);
  for (std::uint64_t x = 0; x < 16; ++x)
    EXPECT_DOUBLE_EQ(std::norm(sv[x]), x == 9 ? 1.0 : 0.0);
  const StateVector f32 = StateVector::basis_state(4, 9, Precision::F32);
  for (std::uint64_t x = 0; x < 16; ++x)
    EXPECT_EQ(f32.at(x), cdouble(x == 9 ? 1.0 : 0.0, 0.0));
}

TEST(StateVector, BasisStateRejectsOutOfRange) {
  // The index is checked against 2^n before the state is allocated.
  const std::uint64_t before = aligned_allocation_count();
  EXPECT_THROW(StateVector::basis_state(3, 8), std::out_of_range);
  EXPECT_THROW(StateVector::basis_state(20, 1ull << 20, Precision::F32),
               std::out_of_range);
  EXPECT_EQ(aligned_allocation_count(), before);
}

class DickeStateTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DickeStateTest, UniformOverWeightSector) {
  const auto [n, k] = GetParam();
  const StateVector sv = StateVector::dicke_state(n, k);
  std::uint64_t count = 0;
  for (std::uint64_t x = 0; x < dim_of(n); ++x)
    if (popcount(x) == k) ++count;
  const double amp = 1.0 / std::sqrt(static_cast<double>(count));
  for (std::uint64_t x = 0; x < dim_of(n); ++x) {
    if (popcount(x) == k)
      EXPECT_NEAR(std::abs(sv[x]), amp, 1e-15);
    else
      EXPECT_DOUBLE_EQ(std::abs(sv[x]), 0.0);
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
  EXPECT_NEAR(sv.weight_sector_mass(k), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sectors, DickeStateTest,
                         ::testing::Values(std::pair{4, 2}, std::pair{6, 3},
                                           std::pair{6, 0}, std::pair{6, 6},
                                           std::pair{9, 4}, std::pair{10, 1}));

TEST(StateVector, DickeRejectsBadWeight) {
  EXPECT_THROW(StateVector::dicke_state(4, 5), std::invalid_argument);
  EXPECT_THROW(StateVector::dicke_state(4, -1), std::invalid_argument);
}

/// The Dicke state as it was first built: a serial popcount census of the
/// sector, then a serial write of 1/sqrt(count) into a zeroed state.
StateVector census_dicke(int n, int k, Precision prec) {
  StateVector sv(n, prec);
  std::uint64_t count = 0;
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    if (popcount(x) == k) ++count;
  const double a = 1.0 / std::sqrt(static_cast<double>(count));
  for (std::uint64_t x = 0; x < sv.size(); ++x) {
    if (popcount(x) != k) continue;
    if (prec == Precision::F32)
      sv.data_f32()[x] = cfloat(static_cast<float>(a), 0.0f);
    else
      sv.data()[x] = cdouble(a, 0.0);
  }
  return sv;
}

const void* amplitudes(const StateVector& s) {
  if (s.precision() == Precision::F32) return s.data_f32();
  return s.data();
}

bool same_bytes(const StateVector& a, const StateVector& b) {
  return a.size() == b.size() && a.precision() == b.precision() &&
         std::memcmp(amplitudes(a), amplitudes(b), a.bytes()) == 0;
}

TEST(StateVector, DickeFillMatchesThePopcountCensus) {
  // The fill takes C(n, k) from integer arithmetic and writes every index
  // (zeros included) in parallel; it must reproduce the census bytes, on
  // a fresh state and over a dirty buffer, under both Exec policies.
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    for (const int n : {1, 6, 16}) {
      for (int k = 0; k <= n; ++k) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k
                                          << " bits=" << precision_bits(prec));
        const StateVector oracle = census_dicke(n, k, prec);
        EXPECT_TRUE(same_bytes(StateVector::dicke_state(n, k, prec), oracle));
        for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
          StateVector dirty = StateVector::plus_state(n, prec);
          dirty.assign_dicke(n, k, prec, exec);
          EXPECT_TRUE(same_bytes(dirty, oracle));
        }
      }
    }
  }
}

TEST(StateVector, InPlaceFillsReuseOrReallocateTheBuffer) {
  // Same size and precision: the buffer is kept. Any other shape is
  // reallocated whole, never half-filled.
  StateVector sv = StateVector::basis_state(10, 3);
  const cdouble* buffer = sv.data();
  sv.assign_plus(10, Precision::F64, Exec::Parallel);
  EXPECT_EQ(sv.data(), buffer);
  const cdouble plus(1.0 / std::sqrt(1024.0), 0.0);
  for (std::uint64_t x = 0; x < sv.size(); ++x) ASSERT_EQ(sv[x], plus) << x;
  sv.assign_plus(16, Precision::F64, Exec::Parallel);
  EXPECT_EQ(sv.num_qubits(), 16);
  EXPECT_TRUE(same_bytes(sv, StateVector::plus_state(16)));
  sv.assign_dicke(16, 5, Precision::F32, Exec::Parallel);
  EXPECT_EQ(sv.precision(), Precision::F32);
  EXPECT_EQ(sv.data(), nullptr);
  EXPECT_TRUE(same_bytes(sv, StateVector::dicke_state(16, 5, Precision::F32)));
  EXPECT_THROW(sv.assign_dicke(6, 7, Precision::F64, Exec::Serial),
               std::invalid_argument);
}

TEST(StateVector, NormalizeScalesToUnit) {
  StateVector sv(3);
  for (std::uint64_t x = 0; x < 8; ++x) sv[x] = cdouble(1.0, 1.0);
  sv.normalize();
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-12);
}

TEST(StateVector, NormalizeThrowsOnZero) {
  StateVector sv(3);
  EXPECT_THROW(sv.normalize(), std::runtime_error);
}

TEST(StateVector, InnerProductOrthonormalBasis) {
  const StateVector a = StateVector::basis_state(3, 1);
  const StateVector b = StateVector::basis_state(3, 2);
  EXPECT_NEAR(std::abs(a.inner(b)), 0.0, 1e-15);
  EXPECT_NEAR(a.inner(a).real(), 1.0, 1e-15);
}

TEST(StateVector, InnerConjugatesLeft) {
  StateVector a(1), b(1);
  a[0] = cdouble(0.0, 1.0);  // i|0>
  b[0] = cdouble(1.0, 0.0);
  // <a|b> = conj(i) * 1 = -i.
  EXPECT_NEAR(a.inner(b).imag(), -1.0, 1e-15);
}

TEST(StateVector, ProbabilitiesSumToNorm) {
  const StateVector sv = StateVector::plus_state(6);
  const auto p = sv.probabilities();
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(p.size(), 64u);
}

TEST(StateVector, WeightSectorMassesPartitionUnity) {
  const StateVector sv = StateVector::plus_state(5);
  double total = 0.0;
  for (int k = 0; k <= 5; ++k) total += sv.weight_sector_mass(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // |+>^5 puts C(5,k)/32 in sector k.
  EXPECT_NEAR(sv.weight_sector_mass(2), 10.0 / 32.0, 1e-12);
}

TEST(StateVector, MaxAbsDiff) {
  StateVector a = StateVector::plus_state(3);
  StateVector b = StateVector::plus_state(3);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  b[5] += cdouble(0.25, 0.0);
  EXPECT_NEAR(a.max_abs_diff(b), 0.25, 1e-15);
}

TEST(StateVector, ParallelNormMatchesSerial) {
  StateVector sv = StateVector::plus_state(14);
  sv[12345] = cdouble(0.7, -0.3);
  EXPECT_NEAR(sv.norm_squared(Exec::Serial), sv.norm_squared(Exec::Parallel),
              1e-12);
}

TEST(StateVector, ExecDefaultsAreUniform) {
  // norm_squared and probabilities_in_place both default to
  // Exec::Parallel, like every other Exec-taking entry point (historical
  // inconsistency: norm_squared once defaulted Serial). The simd layer
  // guarantees Serial == Parallel bitwise, so the default is observable
  // only through this pin: calling with no argument must equal both
  // explicit policies bit for bit.
  StateVector sv = StateVector::plus_state(14);
  sv[999] = cdouble(0.6, -0.8);
  const double d = sv.norm_squared();
  EXPECT_EQ(d, sv.norm_squared(Exec::Parallel));
  EXPECT_EQ(d, sv.norm_squared(Exec::Serial));

  StateVector by_default = sv;
  StateVector serial = sv;
  StateVector parallel = sv;
  by_default.probabilities_in_place();
  serial.probabilities_in_place(Exec::Serial);
  parallel.probabilities_in_place(Exec::Parallel);
  EXPECT_EQ(by_default.max_abs_diff(serial), 0.0);
  EXPECT_EQ(by_default.max_abs_diff(parallel), 0.0);
}

TEST(StateVector, RejectsNegativeQubitCount) {
  EXPECT_THROW(StateVector(-1), std::invalid_argument);
}

}  // namespace
}  // namespace qokit
