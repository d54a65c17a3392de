// Mixed-precision (prec=f32) contract suite.
//
// Pins the three promises the f32 amplitude path makes (DESIGN.md "Mixed
// precision"): (1) determinism — at a fixed dispatch level and precision,
// the evolved bits never depend on Exec policy, thread count, or
// pipeline fusion (the last pinned by test_pipeline's prec=f32 rows);
// (2) containment — every reduction and the sampler CDF accumulate in
// double, so f32 drift stays at amplitude-rounding scale and never
// compounds through objectives; (3) an explicit error budget —
// the layer-by-layer drift of an f32 evolution against the f64 oracle on
// a deep (p = 100) schedule stays under pinned tolerances. Plus the
// satellite surfaces: spec grammar round-trip, f32 sampler clamp, session
// footprint halving, the precision gauge, and the unsupported-combination
// throws.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "api/qokit.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "obs/obs.hpp"
#include "serve/session_cache.hpp"
#include "statevector/sampling.hpp"
#include "support/simd_levels.hpp"

namespace qokit {
namespace {

using testing::SimdLevelGuard;

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t i = 0; i < sv.size(); ++i)
    sv[i] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  sv.normalize();
  return sv;
}

std::pair<std::vector<double>, std::vector<double>> ramp_schedule(int p) {
  std::vector<double> g(p), b(p);
  for (int l = 0; l < p; ++l) {
    const double t = (l + 0.5) / p;
    g[l] = 0.55 * t;        // gamma ramps up,
    b[l] = 0.65 * (1 - t);  // beta ramps down (the standard annealing shape)
  }
  return {g, b};
}

// ------------------------------------------------------------ spec grammar

TEST(PrecisionSpec, TokenRoundTripsAndF64IsElided) {
  EXPECT_EQ(SimulatorSpec::parse("auto:prec=f32").to_string(),
            "auto:prec=f32");
  // F64 is the default and renders as nothing, so an explicit prec=f64
  // is the default spec and its cache key.
  EXPECT_EQ(SimulatorSpec::parse("auto:prec=f64").to_string(), "auto");
  EXPECT_EQ(SimulatorSpec::parse("serial:prec=f64").to_string(),
            "auto:exec=serial");
  EXPECT_EQ(SimulatorSpec{}.prec, Precision::F64);
  EXPECT_EQ(SimulatorSpec::parse("u16:prec=f32:seed=9").prec,
            Precision::F32);

  EXPECT_THROW(SimulatorSpec::parse("auto:prec=half"),
               std::invalid_argument);
  EXPECT_THROW(SimulatorSpec::parse("auto:prec="), std::invalid_argument);
}

// ------------------------------------------------------- statevector basics

TEST(PrecisionState, F32FactoriesAndAccessors) {
  const int n = 8;
  const StateVector sv = StateVector::plus_state(n, Precision::F32);
  EXPECT_EQ(sv.precision(), Precision::F32);
  EXPECT_EQ(sv.size(), dim_of(n));
  EXPECT_EQ(sv.bytes(), dim_of(n) * sizeof(cfloat));
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-6);
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim_of(n)));
  EXPECT_NEAR(sv.at(0).real(), amp, 1e-7);
  EXPECT_EQ(sv.at(0).imag(), 0.0);

  const StateVector basis =
      StateVector::basis_state(n, 5, Precision::F32);
  EXPECT_EQ(basis.at(5), cdouble(1.0, 0.0));
  EXPECT_EQ(basis.at(4), cdouble(0.0, 0.0));

  const StateVector dicke =
      StateVector::dicke_state(n, 3, Precision::F32);
  EXPECT_NEAR(dicke.weight_sector_mass(3), 1.0, 1e-6);
}

TEST(PrecisionState, ConversionRoundTripAndWidening) {
  const StateVector f64 = random_state(8, 101);
  const StateVector f32 = f64.to_precision(Precision::F32);
  EXPECT_EQ(f32.precision(), Precision::F32);
  // One rounding per component: within float eps of the original (unit
  // norm at n = 8 means amplitudes ~ 1/16, so well under 1e-7 absolute).
  EXPECT_LE(f64.max_abs_diff(f32), 1e-7);
  // Widening is exact, so narrow -> widen -> narrow is a fixed point.
  const StateVector widened = f32.to_precision(Precision::F64);
  EXPECT_EQ(widened.precision(), Precision::F64);
  EXPECT_EQ(widened.max_abs_diff(f32), 0.0);
  EXPECT_EQ(widened.to_precision(Precision::F32).max_abs_diff(f32), 0.0);
  // Same-precision conversion is a plain copy.
  EXPECT_EQ(f64.to_precision(Precision::F64).max_abs_diff(f64), 0.0);
  // Mixed-precision inner products are refused, not silently widened.
  EXPECT_THROW((void)f64.inner(f32), std::invalid_argument);
}

// -------------------------------------------------- error budget vs oracle

TEST(PrecisionErrorBudget, DeepScheduleDriftStaysPinned) {
  // The tentpole study at test scale: evolve the same LABS problem through
  // a p = 100 schedule at both precisions, layer by layer, and pin the
  // per-layer amplitude drift and the final (double-accumulated)
  // expectation error. QOKIT_PRECISION_STUDY_N widens the state for the
  // full-size (n = 24) run.
  int n = 14;
  if (const char* env = std::getenv("QOKIT_PRECISION_STUDY_N"))
    n = std::atoi(env);
  const int p = 100;
  const TermList terms = labs_terms(n);
  const auto [g, b] = ramp_schedule(p);
  const std::span<const double> gammas(g), betas(b);

  FurConfig cfg64;
  cfg64.exec = Exec::Serial;
  FurConfig cfg32 = cfg64;
  cfg32.prec = Precision::F32;
  const FurQaoaSimulator sim64(terms, cfg64);
  const FurQaoaSimulator sim32(terms, cfg32);

  StateVector s64 = sim64.initial_state();
  StateVector s32 = sim32.initial_state();
  ASSERT_EQ(s32.precision(), Precision::F32);
  double max_drift = 0.0;
  for (int l = 0; l < p; ++l) {
    s64 = sim64.simulate_qaoa_from(std::move(s64), gammas.subspan(l, 1),
                                   betas.subspan(l, 1));
    s32 = sim32.simulate_qaoa_from(std::move(s32), gammas.subspan(l, 1),
                                   betas.subspan(l, 1));
    const double drift = s64.max_abs_diff(s32);  // widens f32 internally
    max_drift = std::max(max_drift, drift);
    // Per-layer pin: rounding-noise scale, far below any accumulation bug
    // (a single float-typed accumulator shows up as ~1e-3 here).
    ASSERT_LE(drift, 1e-5) << "layer " << l;
  }
  // The drift is real (f32 actually rounds) but tiny.
  EXPECT_GT(max_drift, 0.0);
  // Double-accumulated reductions: expectation error stays at drift scale
  // even though the LABS spectrum spans O(n^2) units.
  const double e64 = sim64.get_expectation(s64);
  const double e32 = sim32.get_expectation(s32);
  EXPECT_NEAR(e32, e64, 1e-2);
  // Unitarity survives 100 layers of f32 rounding.
  EXPECT_NEAR(s32.norm_squared(), 1.0, 1e-4);
  // Overlap reduction on the f32 state (double-accumulated) tracks f64.
  EXPECT_NEAR(sim32.get_overlap(s32), sim64.get_overlap(s64), 1e-4);
}

// ----------------------------------------------------------- determinism

TEST(PrecisionDeterminism, ExecPolicyNeverChangesF32Bits) {
  const TermList terms = labs_terms(12);
  const auto [g, b] = ramp_schedule(4);
  FurConfig serial_cfg;
  serial_cfg.exec = Exec::Serial;
  serial_cfg.prec = Precision::F32;
  FurConfig parallel_cfg = serial_cfg;
  parallel_cfg.exec = Exec::Parallel;
  const FurQaoaSimulator s(terms, serial_cfg);
  const FurQaoaSimulator par(terms, parallel_cfg);
  const StateVector a = s.simulate_qaoa(g, b);
  const StateVector c = par.simulate_qaoa(g, b);
  EXPECT_EQ(a.max_abs_diff(c), 0.0);
  EXPECT_EQ(s.get_expectation(a), par.get_expectation(c));
  EXPECT_EQ(a.norm_squared(Exec::Serial), c.norm_squared(Exec::Parallel));
}

TEST(PrecisionDeterminism, SimdLevelsAgreeAndAreInternallyBitStable) {
  if (detect_simd_level() == SimdLevel::Scalar)
    GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const TermList terms = labs_terms(11);
  const auto [g, b] = ramp_schedule(3);
  FurConfig cfg;
  cfg.prec = Precision::F32;

  force_simd_level(SimdLevel::Scalar);
  const FurQaoaSimulator scalar_sim(terms, cfg);
  const StateVector scalar_r = scalar_sim.simulate_qaoa(g, b);
  const StateVector scalar_r2 = scalar_sim.simulate_qaoa(g, b);
  EXPECT_EQ(scalar_r.max_abs_diff(scalar_r2), 0.0);
  const double scalar_e = scalar_sim.get_expectation(scalar_r);

  force_simd_level(detect_simd_level());
  const FurQaoaSimulator vec_sim(terms, cfg);
  const StateVector vec_r = vec_sim.simulate_qaoa(g, b);
  const StateVector vec_r2 = vec_sim.simulate_qaoa(g, b);
  EXPECT_EQ(vec_r.max_abs_diff(vec_r2), 0.0);
  // Families may round differently (8-wide f32 lanes vs scalar), but only
  // at float-rounding scale.
  EXPECT_LE(scalar_r.max_abs_diff(vec_r), 5e-6);
  EXPECT_NEAR(vec_sim.get_expectation(vec_r), scalar_e, 1e-4);
}

// ------------------------------------------------------- sampler (sat. 1)

TEST(PrecisionSampler, F32CdfAccumulatesInDoubleAndClamps) {
  // The PR 3 clamp regression, re-pinned on the f32 path: trailing zero
  // amplitudes must never be sampled, even at u = 1.0.
  StateVector sv(3, Precision::F32);
  sv.data_f32()[1] = cfloat(std::sqrt(0.5f), 0.0f);
  sv.data_f32()[3] = cfloat(0.0f, std::sqrt(0.5f));
  const std::vector<double> u01{1.0, std::nextafter(1.0, 0.0), 0.0};
  EXPECT_EQ(sample_from_uniforms(sv, u01),
            (std::vector<std::uint64_t>{3, 3, 1}));
  Rng rng(73);
  for (const std::uint64_t x : sample_states(sv, 2000, rng))
    EXPECT_TRUE(x == 1u || x == 3u) << x;
  // A uniform f32 state samples every bin; the double-accumulated CDF
  // reaches each one despite 2^10 float squares summing up.
  const StateVector plus = StateVector::plus_state(10, Precision::F32);
  EXPECT_EQ(sample_from_uniforms(plus, std::vector<double>{0.0, 1.0}),
            (std::vector<std::uint64_t>{0, plus.size() - 1}));
}

// ------------------------------------------------- serve footprint (sat. 2)

TEST(PrecisionFootprint, F32SessionsChargeHalfTheAmplitudeBytes) {
  const int n = 12;
  const std::uint64_t dim = dim_of(n);
  const std::uint64_t f64 =
      serve::session_footprint_bytes(n, 20, Precision::F64);
  const std::uint64_t f32 =
      serve::session_footprint_bytes(n, 20, Precision::F32);
  // Floors: f64 diagonal (8 B/amp) + one statevector at the actual
  // amplitude width (16 B/amp f64, 8 B/amp f32).
  EXPECT_GE(f64, dim * 24);
  EXPECT_GE(f32, dim * 16);
  EXPECT_LT(f32, f64);
  // The default-precision overload is the f64 one (legacy callers).
  EXPECT_EQ(serve::session_footprint_bytes(n, 20), f64);

  const TermList terms = labs_terms(10);
  const api::ProblemSession wide(terms,
                                 SimulatorSpec::parse("serial:prec=f64"));
  const api::ProblemSession narrow(terms,
                                   SimulatorSpec::parse("serial:prec=f32"));
  EXPECT_LT(serve::session_footprint_bytes(narrow),
            serve::session_footprint_bytes(wide));
}

// ------------------------------------------------------ obs gauge (sat. 3)

TEST(PrecisionObs, GaugeTracksTheLastBuiltSimulator) {
  obs::set_enabled(true);
  const obs::Gauge bits = obs::gauge("qokit_precision_bits");
  const TermList terms = labs_terms(8);
  auto f32 = make_simulator(terms, SimulatorSpec::parse("serial:prec=f32"));
  EXPECT_EQ(f32->precision(), Precision::F32);
  EXPECT_EQ(bits.value(), 32.0);
  auto f64 = make_simulator(terms, SimulatorSpec::parse("serial:prec=f64"));
  EXPECT_EQ(f64->precision(), Precision::F64);
  EXPECT_EQ(bits.value(), 64.0);
  // A refused spec builds nothing, so the gauge keeps the last build.
  EXPECT_THROW(
      make_simulator(terms,
                     SimulatorSpec::parse("auto:mixer=xyring:prec=f32")),
      std::invalid_argument);
  EXPECT_EQ(bits.value(), 64.0);
}

// ----------------------------------------------------------- refusal rules

TEST(PrecisionResolution, ExplicitF32OnUnsupportedCombosThrows) {
  // f32 with an xy mixer is refused before the precompute
  // (ProblemSession.RefusesOversizedProblemsBeforeAllocating). The
  // f64-only ma-QAOA mixer refuses float states instead of reading the
  // wrong buffer.
  StateVector f32 = StateVector::plus_state(4, Precision::F32);
  const std::vector<double> betas(4, 0.3);
  EXPECT_THROW(apply_mixer_x_multiangle(f32, betas, Exec::Serial),
               std::invalid_argument);
}

}  // namespace
}  // namespace qokit
