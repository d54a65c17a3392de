// Kernel dispatch + parallel decomposition. The public simd:: entry points
// split work into fixed kSimdBlock-element blocks (identical for Serial and
// Parallel execution) and drive the active kernel family over each block;
// reduction partials are combined sequentially in block order. This is the
// single place where Exec policy, OpenMP, and the dispatch level meet — the
// kernel families themselves are branch-free straight-line loops.
//
// Each entry point is one template over the amplitude scalar, explicitly
// instantiated for double and float at the end of this file: the block
// grid is the same element count at either width, so the deterministic
// decomposition (and the Serial==Parallel bit-identity it buys) holds per
// precision by the same argument.
#include "simd/kernels.hpp"

#include <type_traits>

#include "obs/obs.hpp"

namespace qokit {
namespace simd {

namespace detail {

template <class T>
const KernelsT<T>& active() noexcept {
#if QOKIT_SIMD_X86
  if constexpr (std::is_same_v<T, float>) {
    // f32 has no AVX-512 table yet: the AVX-512 level runs the AVX2 one.
    if (active_simd_level() != SimdLevel::Scalar) return avx2_kernels_f32;
  } else {
    switch (active_simd_level()) {
      case SimdLevel::Avx512: return avx512_kernels;
      case SimdLevel::Avx2: return avx2_kernels;
      case SimdLevel::Scalar: break;
    }
  }
#endif
  return scalar<T>();
}

}  // namespace detail

namespace {

/// Count one dispatch-entry call against the active kernel family.
/// Incremented at entry -- before the block decomposition -- so the totals
/// are identical for Serial and Parallel execution of the same workload.
/// The gauge holds the numeric SimdLevel (0 scalar, 1 avx2, 2 avx512).
void count_kernel_call() {
  if (!obs::enabled()) return;
  static const obs::Counter calls[] = {
      obs::counter("qokit_kernel_calls_scalar_total"),
      obs::counter("qokit_kernel_calls_avx2_total"),
      obs::counter("qokit_kernel_calls_avx512_total"),
  };
  static const obs::Gauge level = obs::gauge("qokit_simd_level");
  const int active = static_cast<int>(active_simd_level());
  calls[active].add();
  level.set(static_cast<double>(active));
}

}  // namespace

template <class T>
void apply_phase_slice(std::complex<T>* amp, const double* costs,
                       std::uint64_t count, double gamma, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(count), kSimdBlock,
                      [&](std::int64_t b, std::int64_t e) {
                        k.phase(amp + b, costs + b,
                                static_cast<std::uint64_t>(e - b), gamma);
                      });
}

template <class T>
void apply_phase_table(std::complex<T>* amp, const std::uint16_t* codes,
                       const std::complex<T>* table, std::uint64_t count,
                       Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(count), kSimdBlock,
                      [&](std::int64_t b, std::int64_t e) {
                        k.phase_table(amp + b, codes + b, table,
                                      static_cast<std::uint64_t>(e - b));
                      });
}

template <class T>
void rx(std::complex<T>* x, std::uint64_t n_amps, int qubit, double c,
        double s, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(n_amps >> 1),
                      kSimdBlock, [&](std::int64_t b, std::int64_t e) {
                        k.rx_pairs(x, qubit, static_cast<std::uint64_t>(b),
                                   static_cast<std::uint64_t>(e), c, s);
                      });
}

template <class T>
double expectation_slice(const std::complex<T>* amp, const double* costs,
                         std::uint64_t count, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  // kReduceBlock (not kSimdBlock): the same decomposition the pipeline's
  // fused final-pass reduction reproduces — see parallel.hpp.
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kReduceBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.expectation(amp + b, costs + b,
                             static_cast<std::uint64_t>(e - b));
      });
}

template <class T>
double expectation_u16(const std::complex<T>* amp, const std::uint16_t* codes,
                       double offset, double scale, std::uint64_t count,
                       Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kReduceBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.expectation_u16(amp + b, codes + b, offset, scale,
                                 static_cast<std::uint64_t>(e - b));
      });
}

template <class T>
double norm_squared(const std::complex<T>* amp, std::uint64_t count,
                    Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kSimdBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.norm_squared(amp + b, static_cast<std::uint64_t>(e - b));
      });
}

template <class T>
double overlap_ground(const std::complex<T>* amp, const double* costs,
                      double threshold, std::uint64_t count, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = detail::active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kSimdBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.overlap(amp + b, costs + b, threshold,
                         static_cast<std::uint64_t>(e - b));
      });
}

#define QOKIT_SIMD_INSTANTIATE(T)                                           \
  template const detail::KernelsT<T>& detail::active<T>() noexcept;         \
  template void apply_phase_slice(std::complex<T>*, const double*,          \
                                  std::uint64_t, double, Exec);             \
  template void apply_phase_table(std::complex<T>*, const std::uint16_t*,   \
                                  const std::complex<T>*, std::uint64_t,    \
                                  Exec);                                    \
  template void rx(std::complex<T>*, std::uint64_t, int, double, double,    \
                   Exec);                                                   \
  template double expectation_slice(const std::complex<T>*, const double*,  \
                                    std::uint64_t, Exec);                   \
  template double expectation_u16(const std::complex<T>*,                   \
                                  const std::uint16_t*, double, double,     \
                                  std::uint64_t, Exec);                     \
  template double norm_squared(const std::complex<T>*, std::uint64_t, Exec); \
  template double overlap_ground(const std::complex<T>*, const double*,     \
                                 double, std::uint64_t, Exec);
QOKIT_SIMD_INSTANTIATE(double)
QOKIT_SIMD_INSTANTIATE(float)
#undef QOKIT_SIMD_INSTANTIATE

}  // namespace simd
}  // namespace qokit
