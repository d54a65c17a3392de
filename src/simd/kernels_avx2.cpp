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
//
// Both amplitude widths run the same kernel bodies, templated on the
// register wrapper: Pd256 (two complex128 per __m256d) for the f64 table,
// Ps256 (four complex64 per __m256, half the bytes per pass) for the f32
// one. The wrappers differ only in their layout primitives; angle math
// runs in double at both widths and narrows once, and reductions widen
// each amplitude to double before squaring, so every accumulator is
// double (the error-containment contract). Only phase_table keeps a body
// per width: one gathers factor pairs, the other quads. Tails and odd
// remainders go to the scalar family at the same width.
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

/// The amplitude type a wrapper's registers hold.
template <class W>
using Amp = std::complex<typename W::Real>;

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

/// The four phase factors e^{-i gamma costs[m]} as cos and sin registers,
/// with vng = [-gamma] x 4. False, with nothing written, when some
/// |angle| exceeds kHugeAngle: the caller then runs the scalar family's
/// libm phase on those four amplitudes.
inline bool phase_factors4(const double* costs, __m256d vng, __m256d* cos4,
                           __m256d* sin4) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs));
  if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask),
                                       _mm256_set1_pd(kHugeAngle),
                                       _CMP_GT_OQ)))
    return false;
  sincos4(ang, sin4, cos4);
  return true;
}

// Tail/fallback elements run the *scalar family's* kernel (compiled
// without FMA contraction in its own TU), so they match the scalar dispatch
// level bit-for-bit — a local loop here would contract differently.
template <class T>
void phase_scalar_tail(std::complex<T>* amp, const double* costs,
                       std::uint64_t count, double gamma) {
  if (count) detail::scalar<T>().phase(amp, costs, count, gamma);
}

// --------------------------------------------------------------- kernels

template <class W>
void phase_avx2(Amp<W>* amp, const double* costs, std::uint64_t count,
                double gamma) {
  typename W::Real* d = reinterpret_cast<typename W::Real*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d vcos, vsin;
    if (phase_factors4(costs + i, vng, &vcos, &vsin))
      W::store4(d + 2 * i, W::cmul4(W::load4(d + 2 * i), vcos, vsin));
    else
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
  }
  phase_scalar_tail(amp + i, costs + i, count - i, gamma);
}

template <class W>
void phase_rx_avx2(Amp<W>* amp, const double* costs, std::uint64_t count,
                   double gamma, double c, double s) {
  // Fused phase + qubit-0 RX + qubit-1 RX. The phase half is phase_avx2's
  // body (including the huge-angle scalar fallback, taken for the same
  // absolute groups of 4 since both drivers issue 4-aligned ranges); the
  // butterflies are rx_pairs_avx2's qubit-0 and qubit-1 updates on the
  // phased quad (W::rx01) — identical values whether kept in register or
  // stored and reloaded, so the three unfused kernels are reproduced bit
  // for bit with one memory round trip instead of three.
  typename W::Real* d = reinterpret_cast<typename W::Real*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const typename W::Reg vc = W::set1(c);
  const typename W::Reg vsp = W::presigned(s);
  for (std::uint64_t i = 0; i < count; i += 4) {
    typename W::Quad p;
    __m256d vcos, vsin;
    if (phase_factors4(costs + i, vng, &vcos, &vsin)) {
      p = W::cmul4(W::load4(d + 2 * i), vcos, vsin);
    } else {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      p = W::load4(d + 2 * i);
    }
    W::store4(d + 2 * i, W::rx01(p, vc, vsp));
  }
}

inline __m256d load_factor_pair(const cdouble* f0, const cdouble* f1) {
  return _mm256_set_m128d(
      _mm_loadu_pd(reinterpret_cast<const double*>(f1)),
      _mm_loadu_pd(reinterpret_cast<const double*>(f0)));
}

void phase_table_avx2(cdouble* amp, const std::uint16_t* codes,
                      const cdouble* table, std::uint64_t count) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d f = load_factor_pair(table + codes[i], table + codes[i + 1]);
    const __m256d f_re = _mm256_movedup_pd(f);       // [re0, re0, re1, re1]
    const __m256d f_im = _mm256_permute_pd(f, 0xF);  // [im0, im0, im1, im1]
    Pd256::store(d + 2 * i,
                 Pd256::cmul_bcast(Pd256::load(d + 2 * i), f_re, f_im));
  }
  for (; i < count; ++i) amp[i] *= table[codes[i]];
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

void phase_table_avx2(cfloat* amp, const std::uint16_t* codes,
                      const cfloat* table, std::uint64_t count) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256 f =
        load_factor4_ps(table + codes[i], table + codes[i + 1],
                        table + codes[i + 2], table + codes[i + 3]);
    const __m256 f_re = _mm256_moveldup_ps(f);  // [re0, re0, re1, re1, ...]
    const __m256 f_im = _mm256_movehdup_ps(f);  // [im0, im0, im1, im1, ...]
    Ps256::store(d + 2 * i,
                 Ps256::cmul_bcast(Ps256::load(d + 2 * i), f_re, f_im));
  }
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

template <class W>
void rx_pairs_avx2(Amp<W>* x, int qubit, std::uint64_t kb, std::uint64_t ke,
                   double c, double s) {
  using T = typename W::Real;
  const typename W::Reg vc = W::set1(c);
  const typename W::Reg vsp = W::presigned(s);
  T* d = reinterpret_cast<T*>(x);
  if (qubit == 0) {
    // Whole pairs (x0, x1) per register, qubit 0 inside it. A remainder
    // shorter than a register goes to the scalar family (same tail policy
    // as the phase kernel: a local loop here would FMA-contract).
    constexpr std::uint64_t kPairs = W::kComplexes / 2;
    std::uint64_t k = kb;
    for (; k + kPairs <= ke; k += kPairs)
      W::store(d + 4 * k, W::rx_q0(W::load(d + 4 * k), vc, vsp));
    if (k < ke) detail::scalar<T>().rx_pairs(x, qubit, k, ke, c, s);
    return;
  }
  // qubit >= 1: pairs form two contiguous streams of `stride` amplitudes.
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    T* p0 = reinterpret_cast<T*>(x + insert_zero_bit(k, qubit));
    T* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + W::kComplexes <= run; j += W::kComplexes) {
      typename W::Reg a = W::load(p0 + 2 * j);
      typename W::Reg b = W::load(p1 + 2 * j);
      rx_rows<W>(a, b, vc, vsp);
      W::store(p0 + 2 * j, a);
      W::store(p1 + 2 * j, b);
    }
    if (j < run)
      detail::scalar<T>().rx_pairs(x, qubit, k + j, k + run, c, s);
    k += run;
  }
}

template <class W>
void rx2_rows_avx2(Amp<W>* x, std::uint64_t stride, std::uint64_t run,
                   double c, double s) {
  using T = typename W::Real;
  const std::uint64_t j =
      rx2_rows_body<W>(reinterpret_cast<T*>(x), 2 * stride, run,
                       W::set1(c), W::presigned(s));
  // The run's last run % kComplexes amplitudes take rx_pairs' scalar
  // remainder on both levels (both row pairs share the run), so they go
  // to the scalar family whole.
  if (j < run) detail::scalar<T>().rx2_rows(x + j, stride, run - j, c, s);
}

template <class W>
void rx2_tile_avx2(Amp<W>* x, int q, std::uint64_t count, double c,
                   double s) {
  using Reg = typename W::Reg;
  const Reg vc = W::set1(c);
  const Reg vsp = W::presigned(s);
  typename W::Real* d = reinterpret_cast<typename W::Real*>(x);
  if (q == 0) {
    // rx_pairs_avx2's qubit-0 and qubit-1 updates on each quad.
    for (std::uint64_t i = 0; i < count; i += 4)
      W::store4(d + 2 * i, W::rx01(W::load4(d + 2 * i), vc, vsp));
    return;
  }
  if constexpr (W::kComplexes == 4) {
    if (q == 1) {
      // A qubit-1 row is two complexes, half a register: qubit 1 across
      // each register's lanes (the scalar tail's rounding), then qubit 2
      // lane for lane across two registers — a qubit-2 run is four
      // complexes, one full vector step.
      for (std::uint64_t i = 0; i < count; i += 8) {
        Reg a = W::rx_q1(W::load(d + 2 * i), vc, vsp);
        Reg b = W::rx_q1(W::load(d + 2 * i + 8), vc, vsp);
        rx_rows<W>(a, b, vc, vsp);
        W::store(d + 2 * i, a);
        W::store(d + 2 * i + 8, b);
      }
      return;
    }
  }
  // Each 2^(q+2) block is four rows of 2^q amplitudes, whole registers.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 4 * stride)
    rx2_rows_body<W>(d + 2 * b, 2 * stride, stride, vc, vsp);
}

// ------------------------------------------------------------ reductions
// |amp|^2 for four complex at a time (W::norms4, lanes [n0, n2, n1, n3]);
// cost/value registers are permuted with 0xD8 ([v0, v2, v1, v3]) to match.

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/// Scalar-tail |amp|^2 with the components widened to double first (at
/// f64, std::norm's own expression).
template <class T>
inline double tail_norm(std::complex<T> a) {
  const double re = a.real(), im = a.imag();
  return re * re + im * im;
}

template <class W>
double expectation_avx2(const Amp<W>* amp, const double* costs,
                        std::uint64_t count) {
  const auto* d = reinterpret_cast<const typename W::Real*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(W::norms4(W::load4(d + 2 * i)), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += tail_norm(amp[i]) * costs[i];
  return out;
}

template <class W>
double expectation_u16_avx2(const Amp<W>* amp, const std::uint16_t* codes,
                            double offset, double scale, std::uint64_t count) {
  const auto* d = reinterpret_cast<const typename W::Real*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(W::norms4(W::load4(d + 2 * i)),
                          _mm256_permute4x64_pd(vals, 0xD8), acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += tail_norm(amp[i]) * (offset + scale * codes[i]);
  return out;
}

template <class W>
double norm_squared_avx2(const Amp<W>* amp, std::uint64_t count) {
  const auto* d = reinterpret_cast<const typename W::Real*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    acc = _mm256_add_pd(acc, W::norms4(W::load4(d + 2 * i)));
  double out = hsum(acc);
  for (; i < count; ++i) out += tail_norm(amp[i]);
  return out;
}

template <class W>
double overlap_avx2(const Amp<W>* amp, const double* costs, double threshold,
                    std::uint64_t count) {
  const auto* d = reinterpret_cast<const typename W::Real*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(
        acc, _mm256_and_pd(W::norms4(W::load4(d + 2 * i)), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += tail_norm(amp[i]);
  return out;
}

/// The family at W's amplitude width: every entry a constant, so the
/// table is constant-initialized.
template <class W>
constexpr detail::KernelsT<typename W::Real> family() {
  return {
      .phase = phase_avx2<W>,
      .phase_table = phase_table_avx2,
      .phase_rx = phase_rx_avx2<W>,
      .rx_pairs = rx_pairs_avx2<W>,
      .rx2_tile = rx2_tile_avx2<W>,
      .rx2_rows = rx2_rows_avx2<W>,
      // Radix-8 spills AVX2's 16 ymm registers (DESIGN.md "Level pairing"):
      // the executor issues level pairs instead.
      .rx3_tile = nullptr,
      .rx3_rows = nullptr,
      .expectation = expectation_avx2<W>,
      .expectation_u16 = expectation_u16_avx2<W>,
      .norm_squared = norm_squared_avx2<W>,
      .overlap = overlap_avx2<W>,
  };
}

}  // namespace

namespace detail {

constinit const KernelsT<double> avx2_kernels = family<Pd256>();
constinit const KernelsT<float> avx2_kernels_f32 = family<Ps256>();

}  // namespace detail
}  // namespace simd
}  // namespace qokit

#else  // !QOKIT_SIMD_X86

// Scalar-only build: this family is absent and dispatch never selects it.
namespace qokit {
namespace simd {}
}  // namespace qokit

#endif  // QOKIT_SIMD_X86
