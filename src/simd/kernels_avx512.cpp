// AVX-512 (F + DQ) kernels for the f64 layer executor. This translation
// unit is compiled with -mavx512f -mavx512dq -mavx2 -mfma (set per-file by
// CMake when QOKIT_SIMD is ON and the target is x86-64) and contributes
// nothing to the build otherwise; dispatch installs its table only when
// CPUID reports AVX-512 F and DQ next to AVX2 and FMA.
//
// The table replaces only the kernels the executor calls once per cache
// unit: phase_rx and the radix-8 rx3_tile / rx3_rows that advance three
// mixer levels per round trip (eight data registers plus coefficients fit
// the 32 zmm registers; on AVX2's 16 ymm they spill). Every other entry,
// the radix-4 rx2_tile / rx2_rows included, runs the AVX2 kernel, and the
// level's f32 table is avx2_kernels_f32.
//
// Same bits as AVX2: a zmm register holds four complexes and every lane
// runs the AVX2 kernels' mul + FMA sequence (the shared bodies in
// simd/vec_kernels.hpp), the phase keeps AVX2's per-4 libm-fallback
// groups, and a row remainder shorter than one zmm runs the same body at
// 256-bit width, then the scalar tail AVX2 gives an odd amplitude.
#include "simd/kernels.hpp"

#if QOKIT_SIMD_X86

// GCC's AVX-512 intrinsics fill their unused pass-through operand from a
// self-initialized local (_mm512_undefined_pd), which GCC 12 reports as
// -Wmaybe-uninitialized at every inlined use (GCC bug 105593). Silenced
// for every GCC version, so a -Werror build cannot trip on it either way.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "simd/vec_kernels.hpp"

namespace qokit {
namespace simd {
namespace {

/// Eight simultaneous sin/cos: the shared reduced pair, then the quadrant
/// fixup (q&1 swaps sin/cos; q&2 flips sin; (q+1)&2 flips cos) with
/// AVX-512 masks. Precondition: every |x| <= kHugeAngle.
inline void sincos8(__m512d x, __m512d* s_out, __m512d* c_out) {
  __m512d k, sin_r, cos_r;
  sincos_reduced<Pd512>(x, &k, &sin_r, &cos_r);
  const __m512i q = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(k));
  const __mmask8 swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
  const __m512d sin_sign = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_and_si512(q, _mm512_set1_epi64(2)), 62));
  const __m512d cos_sign = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_and_si512(_mm512_add_epi64(q, _mm512_set1_epi64(1)),
                       _mm512_set1_epi64(2)),
      62));
  *s_out = _mm512_xor_pd(_mm512_mask_blend_pd(swap, sin_r, cos_r), sin_sign);
  *c_out = _mm512_xor_pd(_mm512_mask_blend_pd(swap, cos_r, sin_r), cos_sign);
}

/// (a * f) for interleaved a and per-complex broadcast halves
/// f_re = [c0,c0,c1,c1,...], f_im = [s0,s0,s1,s1,...]: AVX2 cmul_bcast.
inline __m512d cmul_bcast(__m512d a, __m512d f_re, __m512d f_im) {
  const __m512d a_sw = Pd512::swap_re_im(a);
  return _mm512_fmaddsub_pd(a, f_re, _mm512_mul_pd(a_sw, f_im));
}

/// Qubit-0 RX on [x0, x1, x2, x3]: partners are neighbours, so partner_sw
/// is the lane reversal inside each 256-bit half.
inline __m512d rx_q0(__m512d a, __m512d vc, __m512d vsp) {
  return rx_out<Pd512>(vc, vsp, a, _mm512_permutex_pd(a, 0x1B));
}

/// Qubit-1 RX on [x0, x1, x2, x3]: x0 pairs with x2 and x1 with x3, so
/// partner_sw is the other 256-bit half with re and im swapped.
inline __m512d rx_q1(__m512d a, __m512d vc, __m512d vsp) {
  const __m512i idx = _mm512_setr_epi64(5, 4, 7, 6, 1, 0, 3, 2);
  return rx_out<Pd512>(vc, vsp, a, _mm512_permutexvar_pd(idx, a));
}

void phase_rx_avx512(cdouble* amp, const double* costs, std::uint64_t count,
                     double gamma, double c, double s) {
  // Per group of eight: phase_avx2's angle, sincos and complex multiply,
  // then qubits 0 and 1 inside each register. AVX2 decides the libm
  // fallback per absolute group of 4, so a group of eight holding a huge
  // angle, and a trailing group of 4, go to the AVX2 kernel whole.
  double* d = reinterpret_cast<double*>(amp);
  const __m512d vng = _mm512_set1_pd(-gamma);
  const __m512d vhuge = _mm512_set1_pd(kHugeAngle);
  const __m512d vc = Pd512::set1(c);
  const __m512d vsp = Pd512::presigned(s);
  // Spread [f0..f7] into per-complex broadcast halves, four complexes each.
  const __m512i lo = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
  const __m512i hi = _mm512_setr_epi64(4, 4, 5, 5, 6, 6, 7, 7);
  std::uint64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d ang = _mm512_mul_pd(vng, _mm512_loadu_pd(costs + i));
    if (_mm512_cmp_pd_mask(_mm512_abs_pd(ang), vhuge, _CMP_GT_OQ)) {
      detail::avx2_kernels.phase_rx(amp + i, costs + i, 8, gamma, c, s);
      continue;
    }
    __m512d vsin, vcos;
    sincos8(ang, &vsin, &vcos);
    __m512d a = cmul_bcast(_mm512_loadu_pd(d + 2 * i),
                           _mm512_permutexvar_pd(lo, vcos),
                           _mm512_permutexvar_pd(lo, vsin));
    __m512d b = cmul_bcast(_mm512_loadu_pd(d + 2 * i + 8),
                           _mm512_permutexvar_pd(hi, vcos),
                           _mm512_permutexvar_pd(hi, vsin));
    _mm512_storeu_pd(d + 2 * i, rx_q1(rx_q0(a, vc, vsp), vc, vsp));
    _mm512_storeu_pd(d + 2 * i + 8, rx_q1(rx_q0(b, vc, vsp), vc, vsp));
  }
  if (i < count)
    detail::avx2_kernels.phase_rx(amp + i, costs + i, count - i, gamma, c, s);
}

void rx3_rows_avx512(cdouble* x, std::uint64_t stride, std::uint64_t run,
                     double c, double s) {
  double* d = reinterpret_cast<double*>(x);
  const std::uint64_t w = 2 * stride;
  std::uint64_t j = rx3_rows_body<Pd512>(d, w, run, Pd512::set1(c),
                                         Pd512::presigned(s));
  j += rx3_rows_body<Pd256>(d + 2 * j, w, run - j, Pd256::set1(c),
                            Pd256::presigned(s));
  if (j < run) detail::scalar_kernels.rx3_rows(x + j, stride, run - j, c, s);
}

void rx3_tile_avx512(cdouble* x, int q, std::uint64_t count, double c,
                     double s) {
  const __m512d vc = Pd512::set1(c);
  const __m512d vsp = Pd512::presigned(s);
  double* d = reinterpret_cast<double*>(x);
  if (q == 0) {
    // [x0..x3] and [x4..x7]: qubits 0 and 1 inside each, qubit 2 across.
    for (std::uint64_t i = 0; i < count; i += 8) {
      __m512d a = rx_q1(rx_q0(_mm512_loadu_pd(d + 2 * i), vc, vsp), vc, vsp);
      __m512d b =
          rx_q1(rx_q0(_mm512_loadu_pd(d + 2 * i + 8), vc, vsp), vc, vsp);
      rx_rows<Pd512>(a, b, vc, vsp);
      _mm512_storeu_pd(d + 2 * i, a);
      _mm512_storeu_pd(d + 2 * i + 8, b);
    }
    return;
  }
  if (q == 1) {
    // Four registers of four: qubit 1 inside each, qubit 2 across (0, 1)
    // and (2, 3), qubit 3 across (0, 2) and (1, 3).
    for (std::uint64_t i = 0; i < count; i += 16) {
      double* r = d + 2 * i;
      __m512d a0 = rx_q1(_mm512_loadu_pd(r), vc, vsp);
      __m512d a1 = rx_q1(_mm512_loadu_pd(r + 8), vc, vsp);
      __m512d a2 = rx_q1(_mm512_loadu_pd(r + 16), vc, vsp);
      __m512d a3 = rx_q1(_mm512_loadu_pd(r + 24), vc, vsp);
      rx_rows<Pd512>(a0, a1, vc, vsp);
      rx_rows<Pd512>(a2, a3, vc, vsp);
      rx_rows<Pd512>(a0, a2, vc, vsp);
      rx_rows<Pd512>(a1, a3, vc, vsp);
      _mm512_storeu_pd(r, a0);
      _mm512_storeu_pd(r + 8, a1);
      _mm512_storeu_pd(r + 16, a2);
      _mm512_storeu_pd(r + 24, a3);
    }
    return;
  }
  // q >= 2: eight rows of 2^q (a multiple of 4) amplitudes per block.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 8 * stride)
    rx3_rows_body<Pd512>(d + 2 * b, 2 * stride, stride, vc, vsp);
}

/// A table entry that calls the AVX2 kernel `Kernel` at call time. Copying
/// avx2_kernels' pointers instead would make this table's initialization
/// dynamic, unordered against other translation units' static objects.
template <auto Kernel>
struct ViaAvx2;
template <class R, class... A, R (*detail::Kernels::*Kernel)(A...)>
struct ViaAvx2<Kernel> {
  static R call(A... a) { return (detail::avx2_kernels.*Kernel)(a...); }
};

}  // namespace

namespace detail {

const Kernels avx512_kernels = {
    .phase = ViaAvx2<&Kernels::phase>::call,
    .phase_table = ViaAvx2<&Kernels::phase_table>::call,
    .phase_rx = phase_rx_avx512,
    .rx_pairs = ViaAvx2<&Kernels::rx_pairs>::call,
    .rx2_tile = ViaAvx2<&Kernels::rx2_tile>::call,
    .rx2_rows = ViaAvx2<&Kernels::rx2_rows>::call,
    .rx3_tile = rx3_tile_avx512,
    .rx3_rows = rx3_rows_avx512,
    .expectation = ViaAvx2<&Kernels::expectation>::call,
    .expectation_u16 = ViaAvx2<&Kernels::expectation_u16>::call,
    .norm_squared = ViaAvx2<&Kernels::norm_squared>::call,
    .overlap = ViaAvx2<&Kernels::overlap>::call,
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
