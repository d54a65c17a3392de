// AVX2+FMA kernel family. This translation unit is compiled with
// -mavx2 -mfma (set per-file by CMake when QOKIT_SIMD is ON and the target
// is x86-64) and contributes nothing to the build otherwise; dispatch picks
// it at runtime only when CPUID reports both extensions.
//
// Numerics: the phase kernel computes e^{-i gamma c} with an in-register
// sin/cos (Cody–Waite quadrant reduction + Cephes minimax polynomials,
// ~1 ulp over the reduced range, |angle| up to 1e9 with a libm fallback
// beyond). Reductions keep four independent accumulator lanes per block and
// collapse them in a fixed order, so every result is a deterministic
// function of the input alone. The parity suite pins both families to each
// other within 1e-12 per amplitude. The sin/cos core and the RX row
// bodies are shared with the AVX-512 family (simd/vec_kernels.hpp).
#include "simd/kernels.hpp"

#if QOKIT_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/bitops.hpp"
#include "simd/vec_kernels.hpp"

namespace qokit {
namespace simd {
namespace {

// ------------------------------------------------------------- sin/cos

/// Four simultaneous sin/cos: the shared reduced pair, then the quadrant
/// fixup with AVX2 compares and blends. Precondition: every
/// |x| <= kHugeAngle.
inline void sincos4(__m256d x, __m256d* s_out, __m256d* c_out) {
  __m256d k, sin_r, cos_r;
  sincos_reduced<Pd256>(x, &k, &sin_r, &cos_r);
  const __m256i q = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));

  // Quadrant fixup: q&1 swaps sin/cos; q&2 flips sin; (q+1)&2 flips cos.
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256d sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, _mm256_set1_epi64x(1)),
                       _mm256_set1_epi64x(2)),
      62));
  *s_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_sign);
  *c_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_sign);
}

// ------------------------------------------------- complex-multiply bits
// Interleaved packed complex layout: one __m256d holds [re0, im0, re1, im1].

/// (a * f) for interleaved a and broadcast factor halves f_re = [c,c,c',c'],
/// f_im = [s,s,s',s']: fmaddsub gives re = ar*c - ai*s, im = ai*c + ar*s.
inline __m256d cmul_bcast(__m256d a, __m256d f_re, __m256d f_im) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [im0, re0, im1, re1]
  return _mm256_fmaddsub_pd(a, f_re, _mm256_mul_pd(a_sw, f_im));
}

// ------------------------------------------------------ RX butterflies
// The pre-signed RX update (rx_out, rx_rows) and the radix-4 row body are
// simd/vec_kernels.hpp's, instantiated at two complexes per register.

/// Qubit-0 RX on one register [x0, x1]: the partners are each other, so
/// partner_sw is the full lane reversal.
inline __m256d rx_q0(__m256d a, __m256d vc, __m256d vsp) {
  return rx_out<Pd256>(vc, vsp, a, _mm256_permute4x64_pd(a, 0x1B));
}

// Tail/fallback elements run the *scalar family's* function (compiled
// without FMA contraction in its own TU), so they match the scalar dispatch
// level bit-for-bit — a local loop here would contract differently.
void phase_scalar_tail(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma) {
  if (count) detail::scalar_kernels.phase(amp, costs, count, gamma);
}

// --------------------------------------------------------------- kernels

void phase_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                double gamma) {
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    // Spread [c0,c1,c2,c3] into per-complex broadcast halves.
    const __m256d f01_re = _mm256_permute4x64_pd(vc, 0x50);  // [c0,c0,c1,c1]
    const __m256d f01_im = _mm256_permute4x64_pd(vs, 0x50);
    const __m256d f23_re = _mm256_permute4x64_pd(vc, 0xFA);  // [c2,c2,c3,c3]
    const __m256d f23_im = _mm256_permute4x64_pd(vs, 0xFA);
    const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
    const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
    _mm256_storeu_pd(d + 2 * i, cmul_bcast(a01, f01_re, f01_im));
    _mm256_storeu_pd(d + 2 * i + 4, cmul_bcast(a23, f23_re, f23_im));
  }
  phase_scalar_tail(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                   double gamma, double c, double s) {
  // Fused phase + qubit-0 RX + qubit-1 RX. The phase half is phase_avx2's
  // body verbatim (including the huge-angle scalar fallback, taken for
  // the same absolute groups of 4 since both drivers issue 4-aligned
  // ranges); the butterflies are rx_pairs_avx2's qubit-0 update inside
  // each phased register and its qubit-1 update across the two — identical
  // values whether kept in register or stored and reloaded, so the three
  // unfused kernels are reproduced bit for bit with one memory round trip
  // instead of three.
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vsp = Pd256::presigned(s);
  for (std::uint64_t i = 0; i < count; i += 4) {
    __m256d p01, p23;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      p01 = _mm256_loadu_pd(d + 2 * i);
      p23 = _mm256_loadu_pd(d + 2 * i + 4);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      const __m256d f01_re = _mm256_permute4x64_pd(vcos, 0x50);
      const __m256d f01_im = _mm256_permute4x64_pd(vsin, 0x50);
      const __m256d f23_re = _mm256_permute4x64_pd(vcos, 0xFA);
      const __m256d f23_im = _mm256_permute4x64_pd(vsin, 0xFA);
      p01 = cmul_bcast(_mm256_loadu_pd(d + 2 * i), f01_re, f01_im);
      p23 = cmul_bcast(_mm256_loadu_pd(d + 2 * i + 4), f23_re, f23_im);
    }
    p01 = rx_q0(p01, vc, vsp);
    p23 = rx_q0(p23, vc, vsp);
    rx_rows<Pd256>(p01, p23, vc, vsp);
    _mm256_storeu_pd(d + 2 * i, p01);
    _mm256_storeu_pd(d + 2 * i + 4, p23);
  }
}

inline __m256d load_factor_pair(const cdouble* f0, const cdouble* f1) {
  return _mm256_set_m128d(
      _mm_loadu_pd(reinterpret_cast<const double*>(f1)),
      _mm_loadu_pd(reinterpret_cast<const double*>(f0)));
}

/// amp[i] *= f_i for two complex at a time, factors fetched by the caller.
inline void table_mul2(double* d, std::uint64_t i, __m256d f) {
  const __m256d f_re = _mm256_movedup_pd(f);        // [re0, re0, re1, re1]
  const __m256d f_im = _mm256_permute_pd(f, 0xF);   // [im0, im0, im1, im1]
  const __m256d a = _mm256_loadu_pd(d + 2 * i);
  _mm256_storeu_pd(d + 2 * i, cmul_bcast(a, f_re, f_im));
}

void phase_table_avx2(cdouble* amp, const std::uint16_t* codes,
                      const cdouble* table, std::uint64_t count) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2)
    table_mul2(d, i, load_factor_pair(table + codes[i], table + codes[i + 1]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void rx_pairs_avx2(cdouble* x, int qubit, std::uint64_t kb, std::uint64_t ke,
                   double c, double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vsp = Pd256::presigned(s);
  double* d = reinterpret_cast<double*>(x);
  if (qubit == 0) {
    // Pair (x0, x1) is one register: [r0, i0, r1, i1].
    for (std::uint64_t k = kb; k < ke; ++k)
      _mm256_storeu_pd(d + 4 * k, rx_q0(_mm256_loadu_pd(d + 4 * k), vc, vsp));
    return;
  }
  // qubit >= 1: pairs form two contiguous streams of `stride` amplitudes.
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    double* p0 = reinterpret_cast<double*>(x + insert_zero_bit(k, qubit));
    double* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 2 <= run; j += 2) {
      __m256d a = _mm256_loadu_pd(p0 + 2 * j);
      __m256d b = _mm256_loadu_pd(p1 + 2 * j);
      rx_rows<Pd256>(a, b, vc, vsp);
      _mm256_storeu_pd(p0 + 2 * j, a);
      _mm256_storeu_pd(p1 + 2 * j, b);
    }
    // Odd-pair remainder: delegate to the scalar family (same tail policy
    // as the phase kernel — a local loop here would FMA-contract).
    if (j < run) detail::scalar_kernels.rx_pairs(x, qubit, k + j, k + run, c, s);
    k += run;
  }
}

void rx2_rows_avx2(cdouble* x, std::uint64_t stride, std::uint64_t run,
                   double c, double s) {
  const std::uint64_t j =
      rx2_rows_body<Pd256>(reinterpret_cast<double*>(x), 2 * stride, run,
                           Pd256::set1(c), Pd256::presigned(s));
  // An odd run's last amplitude takes rx_pairs' scalar remainder on both
  // levels (both row pairs share the run), so it goes to the scalar
  // family whole.
  if (j < run) detail::scalar_kernels.rx2_rows(x + j, stride, run - j, c, s);
}

void rx2_tile_avx2(cdouble* x, int q, std::uint64_t count, double c,
                   double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vsp = Pd256::presigned(s);
  double* d = reinterpret_cast<double*>(x);
  if (q == 0) {
    // [x0, x1] and [x2, x3]: qubit 0 inside each register, then qubit 1
    // across the two — rx_pairs_avx2's qubit-0 and qubit-1 updates.
    for (std::uint64_t i = 0; i < count; i += 4) {
      __m256d a = rx_q0(_mm256_loadu_pd(d + 2 * i), vc, vsp);
      __m256d b = rx_q0(_mm256_loadu_pd(d + 2 * i + 4), vc, vsp);
      rx_rows<Pd256>(a, b, vc, vsp);
      _mm256_storeu_pd(d + 2 * i, a);
      _mm256_storeu_pd(d + 2 * i + 4, b);
    }
    return;
  }
  // Each 2^(q+2) block is four rows of 2^q (even) amplitudes: all vector.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 4 * stride)
    rx2_rows_body<Pd256>(d + 2 * b, 2 * stride, stride, vc, vsp);
}

// ------------------------------------------------------------ reductions
// |amp|^2 for four complex: squares, then horizontal pair-add. hadd of the
// two square registers yields lane order [n0, n2, n1, n3]; cost/value
// registers are permuted with 0xD8 ([v0, v2, v1, v3]) to match.

inline __m256d norms4(const double* d, std::uint64_t i) {
  const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
  const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

double expectation_avx2(const cdouble* amp, const double* costs,
                        std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2(const cdouble* amp, const std::uint16_t* codes,
                            double offset, double scale, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4(d, i), _mm256_permute4x64_pd(vals, 0xD8),
                          acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += std::norm(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2(const cdouble* amp, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]);
  return out;
}

double overlap_avx2(const cdouble* amp, const double* costs, double threshold,
                    std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += std::norm(amp[i]);
  return out;
}

// ===================================================== f32 family
// Interleaved packed complex64 layout: one __m256 holds four complexes
// [r0, i0, r1, i1, r2, i2, r3, i3] — twice the f64 register density, half
// the bytes per pass. Angle math runs through the same double-precision
// sincos4 above and narrows once to float; reductions widen each 128-bit
// half back to double with cvtps_pd and reuse the f64 accumulation
// structure, so every reduction is double end to end (the error-
// containment contract). Tails and odd remainders delegate to the scalar
// f32 family, mirroring the f64 policy.

/// Hides a value from the optimizer. GCC's default -ffp-contract=fast
/// fuses a multiply into a following add even across intrinsics; a
/// product routed through here stays separately rounded.
inline __m256 opaque_ps(__m256 v) {
  __asm__("" : "+x"(v));
  return v;
}

/// rx_out with the scalar family's rounding (both products rounded, then
/// added): rx_pairs_avx2_f32 runs every qubit-1 pair through its scalar
/// tail, since a qubit-1 run is two complexes, half a register.
inline __m256 rx_out_scalar_ps(__m256 vc, __m256 vsp, __m256 a,
                               __m256 partner_sw) {
  return _mm256_add_ps(opaque_ps(_mm256_mul_ps(vc, a)),
                       opaque_ps(_mm256_mul_ps(vsp, partner_sw)));
}

/// Qubit-0 RX on one register [x0, x1 | x2, x3]: each pair is one 128-bit
/// lane and its partner_sw the within-lane reversal.
inline __m256 rx_q0_ps(__m256 a, __m256 vc, __m256 vsp) {
  return rx_out<Ps256>(vc, vsp, a, _mm256_permute_ps(a, 0x1B));
}

/// Qubit-1 RX on one register [x0, x1 | x2, x3]: each partner sits in the
/// other 128-bit lane. Scalar-family rounding (see rx_out_scalar_ps).
inline __m256 rx_q1_ps(__m256 a, __m256 vc, __m256 vsp) {
  const __m256 partner = _mm256_permute2f128_ps(a, a, 0x01);
  return rx_out_scalar_ps(vc, vsp, a, _mm256_permute_ps(partner, 0xB1));
}

/// (a * f) for interleaved a and per-complex broadcast halves
/// f_re = [c0,c0,c1,c1,...], f_im = [s0,s0,s1,s1,...].
inline __m256 cmul_bcast_ps(__m256 a, __m256 f_re, __m256 f_im) {
  const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // [im, re] per complex
  return _mm256_fmaddsub_ps(a, f_re, _mm256_mul_ps(a_sw, f_im));
}

/// Narrow four double factors [f0,f1,f2,f3] to float and spread each into
/// its complex's two lanes: [f0,f0,f1,f1,f2,f2,f3,f3].
inline __m256 spread4_ps(__m256d v) {
  const __m128 v4 = _mm256_cvtpd_ps(v);
  const __m256i idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  return _mm256_permutevar8x32_ps(_mm256_set_m128(v4, v4), idx);
}

void phase_scalar_tail_f32(cfloat* amp, const double* costs,
                           std::uint64_t count, double gamma) {
  if (count) detail::scalar_kernels_f32.phase(amp, costs, count, gamma);
}

void phase_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                    double gamma) {
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    const __m256 a = _mm256_loadu_ps(d + 2 * i);
    _mm256_storeu_ps(d + 2 * i,
                     cmul_bcast_ps(a, spread4_ps(vc), spread4_ps(vs)));
  }
  phase_scalar_tail_f32(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, double c, double s) {
  // Fused phase + qubit-0 RX + qubit-1 RX, four complexes per register:
  // qubit 0 pairs within each 128-bit lane (rx_pairs_avx2_f32's vector
  // update), qubit 1 across the lanes with the scalar tail's rounding.
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vsp = Ps256::presigned(s);
  for (std::uint64_t i = 0; i < count; i += 4) {
    __m256 p;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      p = _mm256_loadu_ps(d + 2 * i);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      p = cmul_bcast_ps(_mm256_loadu_ps(d + 2 * i), spread4_ps(vcos),
                        spread4_ps(vsin));
    }
    _mm256_storeu_ps(d + 2 * i, rx_q1_ps(rx_q0_ps(p, vc, vsp), vc, vsp));
  }
}

/// Four complex64 factors gathered into [re0,im0,...,re3,im3].
inline __m256 load_factor4_ps(const cfloat* f0, const cfloat* f1,
                              const cfloat* f2, const cfloat* f3) {
  const __m128d lo = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f0)),
      reinterpret_cast<const double*>(f1));
  const __m128d hi = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f2)),
      reinterpret_cast<const double*>(f3));
  return _mm256_set_m128(_mm_castpd_ps(hi), _mm_castpd_ps(lo));
}

/// amp[i..i+3] *= f_0..3 for four complexes, factors fetched by the caller.
inline void table_mul4_ps(float* d, std::uint64_t i, __m256 f) {
  const __m256 f_re = _mm256_moveldup_ps(f);  // [re0, re0, re1, re1, ...]
  const __m256 f_im = _mm256_movehdup_ps(f);  // [im0, im0, im1, im1, ...]
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  _mm256_storeu_ps(d + 2 * i, cmul_bcast_ps(a, f_re, f_im));
}

void phase_table_avx2_f32(cfloat* amp, const std::uint16_t* codes,
                          const cfloat* table, std::uint64_t count) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    table_mul4_ps(d, i,
                  load_factor4_ps(table + codes[i], table + codes[i + 1],
                                  table + codes[i + 2], table + codes[i + 3]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void rx_pairs_avx2_f32(cfloat* x, int qubit, std::uint64_t kb,
                       std::uint64_t ke, double c, double s) {
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vsp = Ps256::presigned(s);
  float* d = reinterpret_cast<float*>(x);
  if (qubit == 0) {
    // Two pairs per register; each pair is one 128-bit lane [r0,i0,r1,i1].
    std::uint64_t k = kb;
    for (; k + 2 <= ke; k += 2)
      _mm256_storeu_ps(d + 4 * k,
                       rx_q0_ps(_mm256_loadu_ps(d + 4 * k), vc, vsp));
    if (k < ke) detail::scalar_kernels_f32.rx_pairs(x, qubit, k, ke, c, s);
    return;
  }
  // qubit >= 1: pairs form two contiguous streams of `stride` amplitudes.
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    float* p0 = reinterpret_cast<float*>(x + insert_zero_bit(k, qubit));
    float* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 4 <= run; j += 4) {
      __m256 a = _mm256_loadu_ps(p0 + 2 * j);
      __m256 b = _mm256_loadu_ps(p1 + 2 * j);
      rx_rows<Ps256>(a, b, vc, vsp);
      _mm256_storeu_ps(p0 + 2 * j, a);
      _mm256_storeu_ps(p1 + 2 * j, b);
    }
    if (j < run)
      detail::scalar_kernels_f32.rx_pairs(x, qubit, k + j, k + run, c, s);
    k += run;
  }
}

void rx2_rows_avx2_f32(cfloat* x, std::uint64_t stride, std::uint64_t run,
                       double c, double s) {
  const std::uint64_t j = rx2_rows_body<Ps256>(
      reinterpret_cast<float*>(x), 2 * stride, run, Ps256::set1(c),
      Ps256::presigned(s));
  // The run's last run % 4 amplitudes take rx_pairs' scalar remainder on
  // both levels (both row pairs share the run): scalar family, whole.
  if (j < run)
    detail::scalar_kernels_f32.rx2_rows(x + j, stride, run - j, c, s);
}

void rx2_tile_avx2_f32(cfloat* x, int q, std::uint64_t count, double c,
                       double s) {
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vsp = Ps256::presigned(s);
  float* d = reinterpret_cast<float*>(x);
  if (q == 0) {
    // [x0, x1 | x2, x3]: qubit 0 within the lanes, qubit 1 across them.
    for (std::uint64_t i = 0; i < count; i += 4)
      _mm256_storeu_ps(
          d + 2 * i,
          rx_q1_ps(rx_q0_ps(_mm256_loadu_ps(d + 2 * i), vc, vsp), vc, vsp));
    return;
  }
  if (q == 1) {
    // [x0..x3] and [x4..x7]: qubit 1 across each register's lanes (the
    // scalar tail's rounding), then qubit 2 lane for lane across the two
    // — a qubit-2 run is four complexes, one full vector step.
    for (std::uint64_t i = 0; i < count; i += 8) {
      __m256 a = rx_q1_ps(_mm256_loadu_ps(d + 2 * i), vc, vsp);
      __m256 b = rx_q1_ps(_mm256_loadu_ps(d + 2 * i + 8), vc, vsp);
      rx_rows<Ps256>(a, b, vc, vsp);
      _mm256_storeu_ps(d + 2 * i, a);
      _mm256_storeu_ps(d + 2 * i + 8, b);
    }
    return;
  }
  // q >= 2: four rows of 2^q (a multiple of 4) amplitudes per block.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 4 * stride)
    rx2_rows_body<Ps256>(d + 2 * b, 2 * stride, stride, vc, vsp);
}

// f32 reductions: widen each 128-bit half of the four loaded complexes to
// double with cvtps_pd, then reuse the f64 norms4/hsum structure — the
// accumulator registers are __m256d, so nothing aggregates at float.

inline __m256d norms4_f32(const float* d, std::uint64_t i) {
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  const __m256d a01 = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
  const __m256d a23 = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Scalar-tail |amp|^2 with the components widened to double first.
inline double norm_widened_f32(cfloat a) {
  const double re = a.real(), im = a.imag();
  return re * re + im * im;
}

double expectation_avx2_f32(const cfloat* amp, const double* costs,
                            std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4_f32(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2_f32(const cfloat* amp, const std::uint16_t* codes,
                                double offset, double scale,
                                std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4_f32(d, i),
                          _mm256_permute4x64_pd(vals, 0xD8), acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += norm_widened_f32(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2_f32(const cfloat* amp, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4_f32(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]);
  return out;
}

double overlap_avx2_f32(const cfloat* amp, const double* costs,
                        double threshold, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4_f32(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += norm_widened_f32(amp[i]);
  return out;
}

}  // namespace

namespace detail {

const Kernels avx2_kernels = {
    .phase = phase_avx2,
    .phase_table = phase_table_avx2,
    .phase_rx = phase_rx_avx2,
    .rx_pairs = rx_pairs_avx2,
    .rx2_tile = rx2_tile_avx2,
    .rx2_rows = rx2_rows_avx2,
    // Radix-8 spills AVX2's 16 ymm registers (DESIGN.md "Level pairing"):
    // the executor issues level pairs instead.
    .rx3_tile = nullptr,
    .rx3_rows = nullptr,
    .expectation = expectation_avx2,
    .expectation_u16 = expectation_u16_avx2,
    .norm_squared = norm_squared_avx2,
    .overlap = overlap_avx2,
};

const KernelsF32 avx2_kernels_f32 = {
    .phase = phase_avx2_f32,
    .phase_table = phase_table_avx2_f32,
    .phase_rx = phase_rx_avx2_f32,
    .rx_pairs = rx_pairs_avx2_f32,
    .rx2_tile = rx2_tile_avx2_f32,
    .rx2_rows = rx2_rows_avx2_f32,
    // Radix-8 spills AVX2's 16 ymm registers (DESIGN.md "Level pairing"):
    // the executor issues level pairs instead.
    .rx3_tile = nullptr,
    .rx3_rows = nullptr,
    .expectation = expectation_avx2_f32,
    .expectation_u16 = expectation_u16_avx2_f32,
    .norm_squared = norm_squared_avx2_f32,
    .overlap = overlap_avx2_f32,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit

#else  // !QOKIT_SIMD_X86

// Scalar-only build: this family is absent and dispatch never selects it.
namespace qokit {
namespace simd {}
}  // namespace qokit

#endif  // QOKIT_SIMD_X86
