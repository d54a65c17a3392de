// Kernel bodies shared by the vector families (kernels_avx2.cpp and
// kernels_avx512.cpp), written once over a thin register wrapper W:
//
//   Pd256  two f64 complexes per __m256d   (AVX2 f64, AVX-512 remainders)
//   Ps256  four f32 complexes per __m256   (AVX2 f32)
//   Pd512  four f64 complexes per __m512d  (AVX-512 f64)
//
// Each wrapper names its register type and real type, its complexes per
// register, and the handful of primitives the bodies use. A body runs the
// same mul + FMA sequence in every lane whatever the width, so the AVX-512
// kernels built from it equal the AVX2 ones bit for bit.
//
// Internal to those two translation units. Everything here sits in an
// unnamed namespace: each unit compiles its own copy under its own -m
// flags. A shared inline function with external linkage would be an ODR
// violation, and the linker would keep one copy (say, the AVX-512 one)
// for both callers.
#pragma once

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstdint>

namespace qokit::simd {
namespace {

// --------------------------------------------------------- wrappers

/// Two f64 complexes per register: [re0, im0, re1, im1].
struct Pd256 {
  using Reg = __m256d;
  using Real = double;
  static constexpr std::uint64_t kComplexes = 2;
  static Reg load(const Real* p) { return _mm256_loadu_pd(p); }
  static void store(Real* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg set1(double v) { return _mm256_set1_pd(v); }
  /// The pre-signed multiplier [s, -s, s, -s].
  static Reg presigned(double s) { return _mm256_setr_pd(s, -s, s, -s); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg fnmadd(Reg a, Reg b, Reg c) {
    return _mm256_fnmadd_pd(a, b, c);
  }
  static Reg round(Reg v) {
    return _mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// Each complex as [im, re].
  static Reg swap_re_im(Reg v) { return _mm256_permute_pd(v, 0x5); }
};

/// Four f32 complexes per register: [re0, im0, ..., re3, im3]. The
/// butterfly coefficients narrow once, as the scalar family narrows them.
struct Ps256 {
  using Reg = __m256;
  using Real = float;
  static constexpr std::uint64_t kComplexes = 4;
  static Reg load(const Real* p) { return _mm256_loadu_ps(p); }
  static void store(Real* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg set1(double v) { return _mm256_set1_ps(static_cast<float>(v)); }
  static Reg presigned(double s) {
    const float f = static_cast<float>(s);
    return _mm256_setr_ps(f, -f, f, -f, f, -f, f, -f);
  }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg swap_re_im(Reg v) { return _mm256_permute_ps(v, 0xB1); }
};

#if defined(__AVX512F__) && defined(__AVX512DQ__)
/// Four f64 complexes per register: [re0, im0, ..., re3, im3].
struct Pd512 {
  using Reg = __m512d;
  using Real = double;
  static constexpr std::uint64_t kComplexes = 4;
  static Reg load(const Real* p) { return _mm512_loadu_pd(p); }
  static void store(Real* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Reg set1(double v) { return _mm512_set1_pd(v); }
  static Reg presigned(double s) {
    return _mm512_setr_pd(s, -s, s, -s, s, -s, s, -s);
  }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg fnmadd(Reg a, Reg b, Reg c) {
    return _mm512_fnmadd_pd(a, b, c);
  }
  static Reg round(Reg v) {
    return _mm512_roundscale_pd(v,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static Reg swap_re_im(Reg v) { return _mm512_permute_pd(v, 0x55); }
};
#endif

// ------------------------------------------------------------- sin/cos
// Three-term Cody–Waite split of pi/2 (Cephes DP1..DP3 doubled). Each
// k*DPx product is formed inside a single-rounding fnmadd, so the
// reduction error is dominated by the residual pi/2 - (DP1+DP2+DP3)
// (~3e-22): at the kHugeAngle bound (|k| ~ 6.4e8) the reduced argument is
// off by at most ~2e-13 absolute, inside the layer's 1e-12 parity budget;
// for the |angle| <~ 1e4 regime real gammas produce it is ~1e-18.
constexpr double kDP1 = 1.57079625129699707031e+00;
constexpr double kDP2 = 7.54978941586159635335e-08;
constexpr double kDP3 = 5.39030285815811905290e-15;
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
// Beyond this magnitude the int32 quadrant index could overflow; the caller
// falls back to libm for the whole 4-lane group (never hit by sane gammas).
constexpr double kHugeAngle = 1.0e9;

// Cephes minimax coefficients for sin/cos on |r| <= pi/4 (highest first).
constexpr double kSinCof[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
constexpr double kCosCof[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};

template <class W>
inline typename W::Reg poly6(typename W::Reg z, const double (&c)[6]) {
  typename W::Reg p = W::set1(c[0]);
  for (int i = 1; i < 6; ++i) p = W::fmadd(p, z, W::set1(c[i]));
  return p;
}

/// The lane-wise half of the vector sin/cos: quadrant index
/// k = round(x * 2/pi), and sin/cos of the reduced argument r in
/// [-pi/4, pi/4] (three-term split). Each family applies the quadrant
/// fixup with its own integer and mask instructions. Precondition: every
/// |x| <= kHugeAngle.
template <class W>
inline void sincos_reduced(typename W::Reg x, typename W::Reg* k,
                           typename W::Reg* sin_r, typename W::Reg* cos_r) {
  using Reg = typename W::Reg;
  *k = W::round(W::mul(x, W::set1(kTwoOverPi)));
  Reg r = W::fnmadd(*k, W::set1(kDP1), x);
  r = W::fnmadd(*k, W::set1(kDP2), r);
  r = W::fnmadd(*k, W::set1(kDP3), r);
  const Reg z = W::mul(r, r);
  // sin(r) = r + r z P(z);  cos(r) = 1 - z/2 + z^2 Q(z).
  *sin_r = W::fmadd(W::mul(poly6<W>(z, kSinCof), z), r, r);
  *cos_r = W::fmadd(poly6<W>(z, kCosCof), W::mul(z, z),
                    W::fnmadd(W::set1(0.5), z, W::set1(1.0)));
}

// ------------------------------------------------------ RX butterflies
// e^{-i beta X} on a pair: y0 = c x0 - i s x1, y1 = -i s x0 + c x1. In
// interleaved lanes -i s x1 = [s im1, -s re1]: the partner with re and im
// swapped, times the pre-signed multiplier [s, -s, ...]. Folding the sign
// into the multiplier instead of xor-ing it onto the partner is exact,
// since (-x)*s and x*(-s) round identically.

/// One RX output register, c*a + vsp*partner_sw in one FMA rounding, where
/// partner_sw holds each lane's partner complex as [im, re].
template <class W>
inline typename W::Reg rx_out(typename W::Reg vc, typename W::Reg vsp,
                              typename W::Reg a, typename W::Reg partner_sw) {
  return W::fmadd(vc, a, W::mul(vsp, partner_sw));
}

/// RX between two registers whose complexes pair lane for lane.
template <class W>
inline void rx_rows(typename W::Reg& a, typename W::Reg& b,
                    typename W::Reg vc, typename W::Reg vsp) {
  const typename W::Reg na = rx_out<W>(vc, vsp, a, W::swap_re_im(b));
  b = rx_out<W>(vc, vsp, b, W::swap_re_im(a));
  a = na;
}

/// Radix-4 row body: rows at p + m w for m = 0..3 (w in reals), levels
/// (0,1)(2,3) then (0,2)(1,3), one register per row per step. Returns the
/// amplitudes done: run rounded down to a whole number of registers.
template <class W>
inline std::uint64_t rx2_rows_body(typename W::Real* p, std::uint64_t w,
                                   std::uint64_t run, typename W::Reg vc,
                                   typename W::Reg vsp) {
  using Reg = typename W::Reg;
  std::uint64_t j = 0;
  for (; j + W::kComplexes <= run; j += W::kComplexes) {
    typename W::Real* r = p + 2 * j;
    Reg a0 = W::load(r);
    Reg a1 = W::load(r + w);
    Reg a2 = W::load(r + 2 * w);
    Reg a3 = W::load(r + 3 * w);
    rx_rows<W>(a0, a1, vc, vsp);
    rx_rows<W>(a2, a3, vc, vsp);
    rx_rows<W>(a0, a2, vc, vsp);
    rx_rows<W>(a1, a3, vc, vsp);
    W::store(r, a0);
    W::store(r + w, a1);
    W::store(r + 2 * w, a2);
    W::store(r + 3 * w, a3);
  }
  return j;
}

/// Radix-8 row body: rows at p + m w for m = 0..7, levels (m, m^1), then
/// (m, m^2), then (m, m^4). Eight data registers: it spills on AVX2's 16
/// ymm registers, so only the AVX-512 family issues it at full speed.
template <class W>
inline std::uint64_t rx3_rows_body(typename W::Real* p, std::uint64_t w,
                                   std::uint64_t run, typename W::Reg vc,
                                   typename W::Reg vsp) {
  using Reg = typename W::Reg;
  std::uint64_t j = 0;
  for (; j + W::kComplexes <= run; j += W::kComplexes) {
    typename W::Real* r = p + 2 * j;
    Reg a0 = W::load(r);
    Reg a1 = W::load(r + w);
    Reg a2 = W::load(r + 2 * w);
    Reg a3 = W::load(r + 3 * w);
    Reg a4 = W::load(r + 4 * w);
    Reg a5 = W::load(r + 5 * w);
    Reg a6 = W::load(r + 6 * w);
    Reg a7 = W::load(r + 7 * w);
    rx_rows<W>(a0, a1, vc, vsp);
    rx_rows<W>(a2, a3, vc, vsp);
    rx_rows<W>(a4, a5, vc, vsp);
    rx_rows<W>(a6, a7, vc, vsp);
    rx_rows<W>(a0, a2, vc, vsp);
    rx_rows<W>(a1, a3, vc, vsp);
    rx_rows<W>(a4, a6, vc, vsp);
    rx_rows<W>(a5, a7, vc, vsp);
    rx_rows<W>(a0, a4, vc, vsp);
    rx_rows<W>(a1, a5, vc, vsp);
    rx_rows<W>(a2, a6, vc, vsp);
    rx_rows<W>(a3, a7, vc, vsp);
    W::store(r, a0);
    W::store(r + w, a1);
    W::store(r + 2 * w, a2);
    W::store(r + 3 * w, a3);
    W::store(r + 4 * w, a4);
    W::store(r + 5 * w, a5);
    W::store(r + 6 * w, a6);
    W::store(r + 7 * w, a7);
  }
  return j;
}

}  // namespace
}  // namespace qokit::simd

#endif  // __AVX2__ && __FMA__
