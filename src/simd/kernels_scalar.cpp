// Scalar kernel family: portable reference implementations of the block
// kernels in simd/kernels.hpp, templated on the amplitude scalar. These are
// the exact loops the simulators ran before the SIMD layer existed,
// reshaped into block-range form, and they double as the correctness oracle
// for the vectorized families (the parity suite asserts agreement within
// 1e-12 per amplitude for f64, 2e-6 for f32).
//
// Precision containment: at T = float the phase angle and its sin/cos are
// still computed in double (one rounding on the narrow to float), the
// butterfly coefficients c/s narrow once before the loop, and every
// reduction accumulates in double — only the amplitude arithmetic itself
// runs at T.
#include <algorithm>
#include <cmath>
#include <complex>
#include <type_traits>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {
namespace simd {
namespace {

template <class T>
void phase_scalar(std::complex<T>* amp, const double* costs,
                  std::uint64_t count, double gamma) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const double ang = -gamma * costs[i];
    amp[i] *= std::complex<T>(static_cast<T>(std::cos(ang)),
                              static_cast<T>(std::sin(ang)));
  }
}

template <class T>
void phase_table_scalar(std::complex<T>* amp, const std::uint16_t* codes,
                        const std::complex<T>* table, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) amp[i] *= table[codes[i]];
}

/// One RX pair in real arithmetic on the interleaved re/im slots a[0..1]
/// and b[0..1] — e^{-i beta X}: y0 = c x0 - i s x1, y1 = -i s x0 + c x1.
template <class T>
inline void rx_pair(T* a, T* b, T tc, T ts) {
  const T x0re = a[0], x0im = a[1];
  const T x1re = b[0], x1im = b[1];
  a[0] = tc * x0re + ts * x1im;
  a[1] = tc * x0im - ts * x1re;
  b[0] = tc * x1re + ts * x0im;
  b[1] = tc * x1im - ts * x0re;
}

/// Two RX levels on four amplitudes held in registers: pairs (0, 1) and
/// (2, 3) first, then (0, 2) and (1, 3) — rx_pair's statements in the
/// order the two unfused sweeps apply them.
template <class T>
inline void rx2_quad(T* p0, T* p1, T* p2, T* p3, T tc, T ts) {
  T* const rows[4] = {p0, p1, p2, p3};
  T v[8];
  for (int r = 0; r < 4; ++r) std::copy_n(rows[r], 2, v + 2 * r);
  rx_pair(v, v + 2, tc, ts);
  rx_pair(v + 4, v + 6, tc, ts);
  rx_pair(v, v + 4, tc, ts);
  rx_pair(v + 2, v + 6, tc, ts);
  for (int r = 0; r < 4; ++r) std::copy_n(v + 2 * r, 2, rows[r]);
}

template <class T>
void phase_rx_scalar(std::complex<T>* amp, const double* costs,
                     std::uint64_t count, double gamma, double c, double s) {
  // Per group of four: phase_scalar, then the qubit-0 and qubit-1 updates
  // of rx_pairs_scalar — same per-op rounding (this TU has no FMA
  // contraction to drift), one pass.
  T* d = reinterpret_cast<T*>(amp);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  for (std::uint64_t i = 0; i < count; i += 4) {
    phase_scalar(amp + i, costs + i, 4, gamma);
    rx2_quad(d + 2 * i, d + 2 * i + 2, d + 2 * i + 4, d + 2 * i + 6, tc, ts);
  }
}

template <class T>
void rx_pairs_scalar(std::complex<T>* x, int qubit, std::uint64_t kb,
                     std::uint64_t ke, double c, double s) {
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t stride = 1ull << qubit;
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, qubit) << 1;
    rx_pair(d + i0, d + i0 + (stride << 1), tc, ts);
  }
}

template <class T>
void rx2_rows_scalar(std::complex<T>* x, std::uint64_t stride,
                     std::uint64_t run, double c, double s) {
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t w = 2 * stride;  // row distance in reals
  for (std::uint64_t j = 0; j < 2 * run; j += 2)
    rx2_quad(d + j, d + w + j, d + 2 * w + j, d + 3 * w + j, tc, ts);
}

template <class T>
void rx2_tile_scalar(std::complex<T>* x, int q, std::uint64_t count,
                     double c, double s) {
  // Each 2^(q+2) block is four rows of 2^q amplitudes.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 4 * stride)
    rx2_rows_scalar(x + b, stride, stride, c, s);
}

template <class T>
void rx3_rows_scalar(std::complex<T>* x, std::uint64_t stride,
                     std::uint64_t run, double c, double s) {
  // Levels q and q + 1 on rows 0-3 and on rows 4-7, then level q + 2
  // across the halves: rx_pair's statements in the order the three
  // unfused sweeps apply them. Blocks of kCols columns keep the third
  // level's operands in L1.
  constexpr std::uint64_t kCols = 32;
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t w = 2 * stride;  // row distance in reals
  for (std::uint64_t j0 = 0; j0 < run; j0 += kCols) {
    const std::uint64_t len = std::min(kCols, run - j0);
    rx2_rows_scalar(x + j0, stride, len, c, s);
    rx2_rows_scalar(x + j0 + 4 * stride, stride, len, c, s);
    for (std::uint64_t m = 0; m < 4; ++m)
      for (std::uint64_t j = 2 * j0; j < 2 * (j0 + len); j += 2)
        rx_pair(d + m * w + j, d + (m + 4) * w + j, tc, ts);
  }
}

template <class T>
void rx3_tile_scalar(std::complex<T>* x, int q, std::uint64_t count,
                     double c, double s) {
  // Each 2^(q+3) block is eight rows of 2^q amplitudes.
  const std::uint64_t stride = 1ull << q;
  for (std::uint64_t b = 0; b < count; b += 8 * stride)
    rx3_rows_scalar(x + b, stride, stride, c, s);
}

/// |amp[i]|^2 widened to double before the squares — the one sanctioned
/// pattern for touching f32 amplitudes in a reduction.
template <class T>
inline double norm_widened(const std::complex<T>& a) {
  if constexpr (std::is_same_v<T, double>) {
    return std::norm(a);
  } else {
    const double re = a.real(), im = a.imag();
    return re * re + im * im;
  }
}

template <class T>
double expectation_scalar(const std::complex<T>* amp, const double* costs,
                          std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * costs[i];
  return acc;
}

template <class T>
double expectation_u16_scalar(const std::complex<T>* amp,
                              const std::uint16_t* codes, double offset,
                              double scale, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * (offset + scale * codes[i]);
  return acc;
}

template <class T>
double norm_squared_scalar(const std::complex<T>* amp, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) acc += norm_widened(amp[i]);
  return acc;
}

template <class T>
double overlap_scalar(const std::complex<T>* amp, const double* costs,
                      double threshold, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    if (costs[i] <= threshold) acc += norm_widened(amp[i]);
  return acc;
}

}  // namespace

namespace detail {

const Kernels scalar_kernels = {
    .phase = phase_scalar<double>,
    .phase_table = phase_table_scalar<double>,
    .phase_rx = phase_rx_scalar<double>,
    .rx_pairs = rx_pairs_scalar<double>,
    .rx2_tile = rx2_tile_scalar<double>,
    .rx2_rows = rx2_rows_scalar<double>,
    .rx3_tile = rx3_tile_scalar<double>,
    .rx3_rows = rx3_rows_scalar<double>,
    .expectation = expectation_scalar<double>,
    .expectation_u16 = expectation_u16_scalar<double>,
    .norm_squared = norm_squared_scalar<double>,
    .overlap = overlap_scalar<double>,
};

const KernelsF32 scalar_kernels_f32 = {
    .phase = phase_scalar<float>,
    .phase_table = phase_table_scalar<float>,
    .phase_rx = phase_rx_scalar<float>,
    .rx_pairs = rx_pairs_scalar<float>,
    .rx2_tile = rx2_tile_scalar<float>,
    .rx2_rows = rx2_rows_scalar<float>,
    .rx3_tile = rx3_tile_scalar<float>,
    .rx3_rows = rx3_rows_scalar<float>,
    .expectation = expectation_scalar<float>,
    .expectation_u16 = expectation_u16_scalar<float>,
    .norm_squared = norm_squared_scalar<float>,
    .overlap = overlap_scalar<float>,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit
