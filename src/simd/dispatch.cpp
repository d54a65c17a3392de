// Kernel dispatch + parallel decomposition. The public simd:: entry points
// split work into fixed kSimdBlock-element blocks (identical for Serial and
// Parallel execution) and drive the active kernel family over each block;
// reduction partials are combined sequentially in block order. This is the
// single place where Exec policy, OpenMP, and the dispatch level meet — the
// kernel families themselves are branch-free straight-line loops.
//
// Both amplitude precisions share one set of templated drivers: the block
// grid is the same element count at either width, so the deterministic
// decomposition (and the Serial==Parallel bit-identity it buys) holds per
// precision by the same argument.
#include "simd/kernels.hpp"

#include "obs/obs.hpp"

namespace qokit {
namespace simd {

namespace detail {

const Kernels& active_kernels() noexcept {
#if QOKIT_SIMD_X86
  switch (active_simd_level()) {
    case SimdLevel::Avx512: return avx512_kernels;
    case SimdLevel::Avx2: return avx2_kernels;
    case SimdLevel::Scalar: break;
  }
#endif
  return scalar_kernels;
}

const KernelsF32& active_kernels_f32() noexcept {
#if QOKIT_SIMD_X86
  // f32 has no AVX-512 table yet: the AVX-512 level runs the AVX2 one.
  if (active_simd_level() != SimdLevel::Scalar) return avx2_kernels_f32;
#endif
  return scalar_kernels_f32;
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

/// Family selection by amplitude scalar.
template <class T>
const detail::KernelsT<T>& active() noexcept;
template <>
const detail::KernelsT<double>& active<double>() noexcept {
  return detail::active_kernels();
}
template <>
const detail::KernelsT<float>& active<float>() noexcept {
  return detail::active_kernels_f32();
}

// --------------------------------------------------- templated drivers

template <class T>
void phase_impl(std::complex<T>* amp, const double* costs,
                std::uint64_t count, double gamma, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(count), kSimdBlock,
                      [&](std::int64_t b, std::int64_t e) {
                        k.phase(amp + b, costs + b,
                                static_cast<std::uint64_t>(e - b), gamma);
                      });
}

template <class T>
void phase_table_impl(std::complex<T>* amp, const std::uint16_t* codes,
                      const std::complex<T>* table, std::uint64_t count,
                      Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(count), kSimdBlock,
                      [&](std::int64_t b, std::int64_t e) {
                        k.phase_table(amp + b, codes + b, table,
                                      static_cast<std::uint64_t>(e - b));
                      });
}

template <class T>
void rx_impl(std::complex<T>* x, std::uint64_t n_amps, int qubit, double c,
             double s, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  parallel_for_blocks(exec, static_cast<std::int64_t>(n_amps >> 1),
                      kSimdBlock, [&](std::int64_t b, std::int64_t e) {
                        k.rx_pairs(x, qubit, static_cast<std::uint64_t>(b),
                                   static_cast<std::uint64_t>(e), c, s);
                      });
}

template <class T>
double expectation_slice_impl(const std::complex<T>* amp, const double* costs,
                              std::uint64_t count, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
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
double expectation_u16_impl(const std::complex<T>* amp,
                            const std::uint16_t* codes, double offset,
                            double scale, std::uint64_t count, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kReduceBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.expectation_u16(amp + b, codes + b, offset, scale,
                                 static_cast<std::uint64_t>(e - b));
      });
}

template <class T>
double norm_squared_impl(const std::complex<T>* amp, std::uint64_t count,
                         Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kSimdBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.norm_squared(amp + b, static_cast<std::uint64_t>(e - b));
      });
}

template <class T>
double overlap_ground_impl(const std::complex<T>* amp, const double* costs,
                           double threshold, std::uint64_t count, Exec exec) {
  count_kernel_call();
  const detail::KernelsT<T>& k = active<T>();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(count), kSimdBlock,
      [&](std::int64_t b, std::int64_t e) {
        return k.overlap(amp + b, costs + b, threshold,
                         static_cast<std::uint64_t>(e - b));
      });
}

}  // namespace

void apply_phase_slice(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec) {
  phase_impl(amp, costs, count, gamma, exec);
}
void apply_phase_slice(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec) {
  phase_impl(amp, costs, count, gamma, exec);
}

void apply_phase_table(cdouble* amp, const std::uint16_t* codes,
                       const cdouble* table, std::uint64_t count, Exec exec) {
  phase_table_impl(amp, codes, table, count, exec);
}
void apply_phase_table(cfloat* amp, const std::uint16_t* codes,
                       const cfloat* table, std::uint64_t count, Exec exec) {
  phase_table_impl(amp, codes, table, count, exec);
}

void rx(cdouble* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec) {
  rx_impl(x, n_amps, qubit, c, s, exec);
}
void rx(cfloat* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec) {
  rx_impl(x, n_amps, qubit, c, s, exec);
}

double expectation_slice(const cdouble* amp, const double* costs,
                         std::uint64_t count, Exec exec) {
  return expectation_slice_impl(amp, costs, count, exec);
}
double expectation_slice(const cfloat* amp, const double* costs,
                         std::uint64_t count, Exec exec) {
  return expectation_slice_impl(amp, costs, count, exec);
}

double expectation_u16(const cdouble* amp, const std::uint16_t* codes,
                       double offset, double scale, std::uint64_t count,
                       Exec exec) {
  return expectation_u16_impl(amp, codes, offset, scale, count, exec);
}
double expectation_u16(const cfloat* amp, const std::uint16_t* codes,
                       double offset, double scale, std::uint64_t count,
                       Exec exec) {
  return expectation_u16_impl(amp, codes, offset, scale, count, exec);
}

double norm_squared(const cdouble* amp, std::uint64_t count, Exec exec) {
  return norm_squared_impl(amp, count, exec);
}
double norm_squared(const cfloat* amp, std::uint64_t count, Exec exec) {
  return norm_squared_impl(amp, count, exec);
}

double overlap_ground(const cdouble* amp, const double* costs,
                      double threshold, std::uint64_t count, Exec exec) {
  return overlap_ground_impl(amp, costs, threshold, count, exec);
}
double overlap_ground(const cfloat* amp, const double* costs,
                      double threshold, std::uint64_t count, Exec exec) {
  return overlap_ground_impl(amp, costs, threshold, count, exec);
}

}  // namespace simd
}  // namespace qokit
