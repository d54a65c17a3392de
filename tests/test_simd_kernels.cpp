// Parity suite for the runtime-dispatched SIMD kernel layer: every
// dispatched kernel must agree with the scalar family within 1e-12 per
// amplitude, across all qubit positions, both Exec policies, and the
// table-driven u16 path. Also holds the determinism contract
// (Serial == Parallel bitwise at a fixed dispatch level) and the sampler
// edge-case regressions from the hot-path bugfix sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "diagonal/ops.hpp"
#include "fur/simulator.hpp"
#include "fur/su2.hpp"
#include "problems/labs.hpp"
#include "simd/kernels.hpp"
#include "statevector/sampling.hpp"
#include "support/simd_levels.hpp"

namespace qokit {
namespace {

using testing::SimdLevelGuard;

bool has_vector_level() {
  return detect_simd_level() != SimdLevel::Scalar;
}

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t i = 0; i < sv.size(); ++i)
    sv[i] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  sv.normalize();
  return sv;
}

CostDiagonal::Values random_costs(int n, std::uint64_t seed, double lo,
                                  double hi) {
  Rng rng(seed);
  CostDiagonal::Values costs(dim_of(n));
  for (double& c : costs) c = rng.uniform(lo, hi);
  return costs;
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tol, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

constexpr Exec kExecs[] = {Exec::Serial, Exec::Parallel};

TEST(SimdDispatch, LevelIsConsistent) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd_level_compiled(SimdLevel::Scalar));
  EXPECT_EQ(simd_level_compiled(SimdLevel::Avx2), QOKIT_SIMD_X86 != 0);
  EXPECT_EQ(simd_level_compiled(SimdLevel::Avx512), QOKIT_SIMD_X86 != 0);
  const SimdLevel detected = detect_simd_level();
  EXPECT_TRUE(simd_level_compiled(detected));
  // A request above what runs here installs the best level below it, so
  // the highest request lands on the detected level on any host.
  EXPECT_EQ(force_simd_level(SimdLevel::Avx512), detected);
  EXPECT_EQ(active_simd_level(), detected);
  // Forcing scalar always succeeds; forcing the detected level restores it.
  EXPECT_EQ(force_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(force_simd_level(detected), detected);
  EXPECT_EQ(active_simd_level(), detected);
  // The installable levels run from scalar up to the detected one.
  const std::vector<SimdLevel> levels = testing::installable_simd_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::Scalar);
  EXPECT_EQ(levels.back(), detected);
  EXPECT_EQ(levels.size(), static_cast<std::size_t>(detected) + 1);
  EXPECT_EQ(active_simd_level(), detected);
}

TEST(SimdPhase, DispatchedMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // n = 15 (2^15 elements) spans four kSimdBlock = 2^13 blocks; n = 9
  // exercises the sub-block and vector-tail paths.
  for (int n : {9, 15}) {
    const auto costs = random_costs(n, 11, -40.0, 40.0);
    for (double gamma : {0.37, -2.9, 123.456}) {
      for (Exec exec : kExecs) {
        StateVector a = random_state(n, 21);
        StateVector b = a;
        force_simd_level(SimdLevel::Scalar);
        apply_phase_slice(a.data(), costs.data(), a.size(), gamma, exec);
        force_simd_level(detect_simd_level());
        apply_phase_slice(b.data(), costs.data(), b.size(), gamma, exec);
        expect_states_close(a, b, 1e-12, "phase");
      }
    }
  }
}

TEST(SimdPhase, HugeAnglesFallBackToLibm) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // |gamma * cost| beyond the vector sincos range must take the libm
  // fallback: groups where every angle is huge match the scalar family
  // exactly, mixed groups stay within the 1e-12 parity bound.
  const auto huge = random_costs(10, 13, 1.1e9, 3.0e9);
  StateVector a = random_state(10, 23);
  StateVector b = a;
  force_simd_level(SimdLevel::Scalar);
  apply_phase_slice(a.data(), huge.data(), a.size(), 1.0, Exec::Serial);
  force_simd_level(detect_simd_level());
  apply_phase_slice(b.data(), huge.data(), b.size(), 1.0, Exec::Serial);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);

  const auto mixed = random_costs(10, 15, -3.0e9, 3.0e9);
  StateVector c = random_state(10, 25);
  StateVector d = c;
  force_simd_level(SimdLevel::Scalar);
  apply_phase_slice(c.data(), mixed.data(), c.size(), 1.0, Exec::Serial);
  force_simd_level(detect_simd_level());
  apply_phase_slice(d.data(), mixed.data(), d.size(), 1.0, Exec::Serial);
  expect_states_close(c, d, 1e-12, "phase-mixed-huge");
}

TEST(SimdPhase, U16TablePathMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  // Integral spectrum so the u16 codec is exact.
  auto costs = random_costs(n, 17, -100.0, 100.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  ASSERT_TRUE(d16.is_exact());
  for (Exec exec : kExecs) {
    StateVector a = random_state(n, 29);
    StateVector b = a;
    force_simd_level(SimdLevel::Scalar);
    apply_phase(a, d16, 0.81, exec);
    force_simd_level(detect_simd_level());
    apply_phase(b, d16, 0.81, exec);
    expect_states_close(a, b, 1e-12, "phase-u16");
  }
}

TEST(SimdButterflies, RxMatchesScalarAtEveryQubit) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  const double c = std::cos(0.42), s = std::sin(0.42);
  for (int q = 0; q < n; ++q) {
    for (Exec exec : kExecs) {
      StateVector a = random_state(n, 37 + q);
      StateVector b = a;
      force_simd_level(SimdLevel::Scalar);
      kern::rx(a.data(), a.size(), q, c, s, exec);
      force_simd_level(detect_simd_level());
      kern::rx(b.data(), b.size(), q, c, s, exec);
      expect_states_close(a, b, 1e-12, "rx");
    }
  }
}

// ------------------------------------------ multi-level RX kernel parity
// The layer pipeline advances two or three adjacent RX levels in one
// round trip (rx2_tile / rx2_rows, rx3_tile / rx3_rows) and fuses the
// phase with qubits 0 and 1 (phase_rx). Each family must reproduce its
// level's single-level kernels BIT FOR BIT, including the levels the f32
// AVX2 family hands to its scalar tail (a qubit-1 run is two complexes,
// half of its four-complex register). The AVX-512 f64 table keeps the
// AVX2 rx_pairs, so its entries are pinned to the AVX2 family's bits.

template <class T>
using FamilyList =
    std::vector<std::pair<const char*, const simd::detail::KernelsT<T>*>>;

/// Every kernel table at amplitude scalar T this build and host can run:
/// scalar, avx2, and the avx512 f64 table (the AVX-512 level's f32 table
/// is the avx2 one).
template <class T>
FamilyList<T> families() {
  FamilyList<T> out;
  for (const SimdLevel level : testing::installable_simd_levels()) {
    if constexpr (std::is_same_v<T, double>) {
      if (level == SimdLevel::Scalar)
        out.emplace_back("scalar f64", &simd::detail::scalar_kernels);
#if QOKIT_SIMD_X86
      if (level == SimdLevel::Avx2)
        out.emplace_back("avx2 f64", &simd::detail::avx2_kernels);
      if (level == SimdLevel::Avx512)
        out.emplace_back("avx512 f64", &simd::detail::avx512_kernels);
#endif
    } else {
      if (level == SimdLevel::Scalar)
        out.emplace_back("scalar f32", &simd::detail::scalar_kernels_f32);
#if QOKIT_SIMD_X86
      if (level == SimdLevel::Avx2)
        out.emplace_back("avx2 f32", &simd::detail::avx2_kernels_f32);
#endif
    }
  }
  return out;
}

template <class T>
std::vector<std::complex<T>> random_amps(std::uint64_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> v(count);
  for (auto& a : v)
    a = {static_cast<T>(rng.uniform(-1.0, 1.0)),
         static_cast<T>(rng.uniform(-1.0, 1.0))};
  return v;
}

/// Bitwise equality, reporting the first differing amplitude.
template <class T>
::testing::AssertionResult same_bits(const std::vector<std::complex<T>>& a,
                                     const std::vector<std::complex<T>>& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(a[i])) != 0)
      return ::testing::AssertionFailure()
             << "first difference at amplitude " << i << ": " << a[i]
             << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

// A zero sine pins the sign handling of the pre-signed multiplier.
constexpr double kRxBetas[] = {0.42, -1.1, 0.0};

/// The tile and row kernels that advance `levels` (2 or 3) RX levels.
template <class T>
auto rx_tile_kernel(const simd::detail::KernelsT<T>& k, int levels) {
  return levels == 2 ? k.rx2_tile : k.rx3_tile;
}
template <class T>
auto rx_rows_kernel(const simd::detail::KernelsT<T>& k, int levels) {
  return levels == 2 ? k.rx2_rows : k.rx3_rows;
}

template <class T>
void check_rx_tile(int levels) {
  // Tiles of 2^w amplitudes, w from q + levels (one block) to the default
  // 2^16 tile, placed at base = count so the pair indices are non-zero.
  for (const auto& [name, k] : families<T>()) {
    const auto tile_kernel = rx_tile_kernel(*k, levels);
    if (!tile_kernel) continue;  // no radix-8 in this family
    for (const double beta : kRxBetas)
      for (int q = 0; q + levels <= 16; ++q)
        for (int w = q + levels; w <= 16; ++w) {
          const std::uint64_t count = std::uint64_t{1} << w;
          auto ref = random_amps<T>(2 * count, 71 + q + w);
          auto got = ref;
          const double c = std::cos(beta), s = std::sin(beta);
          for (int l = 0; l < levels; ++l)
            k->rx_pairs(ref.data(), q + l, count / 2, count, c, s);
          tile_kernel(got.data() + count, q, count, c, s);
          EXPECT_TRUE(same_bits(ref, got))
              << name << " levels=" << levels << " q=" << q
              << " count=" << count << " beta=" << beta;
        }
  }
}

TEST(SimdRxFused, TileFormsEqualPerLevelRxPairsBitForBit) {
  for (const int levels : {2, 3}) {
    check_rx_tile<double>(levels);
    check_rx_tile<float>(levels);
  }
}

template <class T>
void check_rx_rows(int levels) {
  // 2^levels rows 2^q apart; runs are every chunk length a strided pass
  // can gather (2 .. 2^q amplitudes), at the first and the last column.
  // The lowest row qubit is >= 1: the tile pass always owns qubit 0. The
  // reference pairs rows r and r | 2^l on level q + l, one rx_pairs call
  // per row pair.
  const std::uint64_t nrows = std::uint64_t{1} << levels;
  for (const auto& [name, k] : families<T>()) {
    const auto rows_kernel = rx_rows_kernel(*k, levels);
    if (!rows_kernel) continue;  // no radix-8 in this family
    for (const double beta : kRxBetas)
      for (int q = 1; q + levels <= 16; ++q) {
        const std::uint64_t stride = std::uint64_t{1} << q;
        const auto init = random_amps<T>(nrows * stride, 79 + q);
        for (int w = 1; w <= q; ++w) {
          const std::uint64_t run = std::uint64_t{1} << w;
          for (const std::uint64_t col : {std::uint64_t{0}, stride - run}) {
            auto ref = init;
            auto got = init;
            const double c = std::cos(beta), s = std::sin(beta);
            for (int l = 0; l < levels; ++l)
              for (std::uint64_t r = 0; r < nrows; ++r) {
                if ((r >> l) & 1) continue;
                const std::uint64_t kb = remove_bit(col + r * stride, q + l);
                k->rx_pairs(ref.data(), q + l, kb, kb + run, c, s);
              }
            rows_kernel(got.data() + col, stride, run, c, s);
            EXPECT_TRUE(same_bits(ref, got))
                << name << " levels=" << levels << " q=" << q
                << " run=" << run << " col=" << col << " beta=" << beta;
          }
        }
      }
  }
}

TEST(SimdRxFused, RowFormsEqualPerLevelRxPairsBitForBit) {
  for (const int levels : {2, 3}) {
    check_rx_rows<double>(levels);
    check_rx_rows<float>(levels);
  }
}

template <class T>
void check_phase_rx() {
  // Every tile size the executor fuses (4 .. 2^16), at base = count.
  // Every 7th cost is huge enough to take the AVX2 libm fallback group.
  const double gamma = 0.37;
  for (const auto& [name, k] : families<T>())
    for (const double beta : kRxBetas)
      for (int w = 2; w <= 16; ++w) {
        const std::uint64_t count = std::uint64_t{1} << w;
        Rng rng(83 + w);
        std::vector<double> costs(2 * count);
        for (std::uint64_t i = 0; i < costs.size(); ++i)
          costs[i] = i % 7 == 3 ? 1e10 : rng.uniform(-60.0, 60.0);
        auto ref = random_amps<T>(2 * count, 89 + w);
        auto got = ref;
        const double c = std::cos(beta), s = std::sin(beta);
        k->phase(ref.data() + count, costs.data() + count, count, gamma);
        k->rx_pairs(ref.data(), 0, count / 2, count, c, s);
        k->rx_pairs(ref.data(), 1, count / 2, count, c, s);
        k->phase_rx(got.data() + count, costs.data() + count, count, gamma,
                    c, s);
        EXPECT_TRUE(same_bits(ref, got))
            << name << " count=" << count << " beta=" << beta;
      }
}

TEST(SimdRxFused, PhaseRxEqualsPhaseThenTwoRxPairsBitForBit) {
  check_phase_rx<double>();
  check_phase_rx<float>();
}

TEST(SimdReductions, MatchScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 14;
  const StateVector sv = random_state(n, 47);
  auto costs = random_costs(n, 53, -60.0, 60.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  for (Exec exec : kExecs) {
    force_simd_level(SimdLevel::Scalar);
    const double e_s = expectation(sv, diag, exec);
    const double e16_s = expectation(sv, d16, exec);
    const double n_s = sv.norm_squared(exec);
    const double o_s = overlap_ground(sv, diag, 2.5, exec);
    force_simd_level(detect_simd_level());
    EXPECT_NEAR(expectation(sv, diag, exec), e_s, 1e-12 * 60.0);
    EXPECT_NEAR(expectation(sv, d16, exec), e16_s, 1e-12 * 60.0);
    EXPECT_NEAR(sv.norm_squared(exec), n_s, 1e-12);
    EXPECT_NEAR(overlap_ground(sv, diag, 2.5, exec), o_s, 1e-12);
  }
}

TEST(SimdReductions, SerialAndParallelAreBitIdentical) {
  // The blocked reduction combines per-block partials in block order
  // regardless of Exec policy or thread count, so Serial and Parallel must
  // agree bitwise at any fixed dispatch level.
  SimdLevelGuard guard;
  const int n = 17;  // above the parallel grain: OpenMP actually engages
  const StateVector sv = random_state(n, 59);
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 61, -5, 5));
  EXPECT_EQ(expectation(sv, diag, Exec::Serial),
            expectation(sv, diag, Exec::Parallel));
  EXPECT_EQ(sv.norm_squared(Exec::Serial), sv.norm_squared(Exec::Parallel));
  StateVector a = sv;
  StateVector b = sv;
  apply_phase(a, diag, 0.9, Exec::Serial);
  apply_phase(b, diag, 0.9, Exec::Parallel);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST(SimdEndToEnd, SimulatorBackendsMatchScalarDispatch) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const TermList terms = labs_terms(10);
  const std::vector<double> gammas = {0.3, -0.8, 0.45};
  const std::vector<double> betas = {0.7, 0.2, -0.55};
  for (const char* name : {"serial", "auto", "u16"}) {
    force_simd_level(SimdLevel::Scalar);
    const auto sim_s = choose_simulator(terms, name);
    const StateVector r_s = sim_s->simulate_qaoa(gammas, betas);
    const double e_s = sim_s->get_expectation(r_s);
    const double o_s = sim_s->get_overlap(r_s);
    force_simd_level(detect_simd_level());
    const auto sim_v = choose_simulator(terms, name);
    const StateVector r_v = sim_v->simulate_qaoa(gammas, betas);
    // Under QOKIT_PREC=f32 the names resolve to float amplitudes, where
    // the scalar and vector families agree to float-rounding scale.
    const bool f32 = sim_s->precision() == Precision::F32;
    EXPECT_LE(r_s.max_abs_diff(r_v), f32 ? 5e-6 : 1e-11) << name;
    EXPECT_NEAR(sim_v->get_expectation(r_v), e_s, f32 ? 1e-4 : 1e-10)
        << name;
    EXPECT_NEAR(sim_v->get_overlap(r_v), o_s, f32 ? 1e-4 : 1e-10) << name;
  }
}

// ------------------------------------------------ sector-overlap bugfix

TEST(OverlapSector, MatchesBruteForceAndExecModes) {
  const int n = 10;
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 67, -9, 9));
  const StateVector sv = random_state(n, 71);
  for (int weight : {0, 3, n}) {
    // Brute-force reference: the pre-fix two-scan semantics.
    double lo = 0.0;
    bool found = false;
    for (std::uint64_t x = 0; x < diag.size(); ++x) {
      if (popcount(x) != weight) continue;
      if (!found || diag[x] < lo) {
        lo = diag[x];
        found = true;
      }
    }
    ASSERT_TRUE(found);
    double mass = 0.0;
    for (std::uint64_t x = 0; x < diag.size(); ++x)
      if (popcount(x) == weight && diag[x] <= lo + 1e-9)
        mass += std::norm(sv[x]);
    EXPECT_EQ(diag.sector_min(weight), lo);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Serial),
                mass, 1e-13);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Parallel),
                mass, 1e-13);
  }
  // Cached second call returns the identical value.
  EXPECT_EQ(diag.sector_min(3), diag.sector_min(3));
  EXPECT_THROW(overlap_ground_sector(sv, diag, -1), std::invalid_argument);
  EXPECT_THROW(overlap_ground_sector(sv, diag, n + 1), std::invalid_argument);
}

// --------------------------------------------------- sampler regressions

TEST(SamplerRegression, FullMassVariateClampsToLastNonzeroState) {
  // Trailing amplitudes are zero: u = 1.0 lands past the final cumulative
  // entry and must not select a zero-probability bitstring (the pre-fix
  // clamp picked the last index overall).
  StateVector sv(3);
  sv[1] = cdouble(std::sqrt(0.5), 0.0);
  sv[3] = cdouble(0.0, std::sqrt(0.5));
  const StateSampler sampler(sv);
  EXPECT_EQ(sampler.sample_from_uniform(1.0), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(std::nextafter(1.0, 0.0)), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(0.0), 1u);
  Rng rng(73);
  for (int s = 0; s < 2000; ++s) {
    const std::uint64_t x = sampler.sample(rng);
    EXPECT_TRUE(x == 1u || x == 3u) << x;
  }
}

TEST(SamplerRegression, ShotCountValidation) {
  const StateVector sv = StateVector::plus_state(4);
  const StateSampler sampler(sv);
  Rng rng(79);
  EXPECT_THROW(sampler.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.sample_counts(-5, rng), std::invalid_argument);
  EXPECT_TRUE(sampler.sample(0, rng).empty());
  EXPECT_TRUE(sampler.sample_counts(0, rng).empty());
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };
  EXPECT_THROW(estimate_expectation_sampled(sv, f, -2, rng),
               std::invalid_argument);
  const SampledExpectation zero = estimate_expectation_sampled(sv, f, 0, rng);
  EXPECT_EQ(zero.shots, 0);
  EXPECT_EQ(zero.mean, 0.0);
  EXPECT_EQ(zero.std_error, 0.0);
}

}  // namespace
}  // namespace qokit
