// Runtime-dispatched vector kernels for the simulator hot loops.
//
// Every elementwise pass in Algorithm 3 funnels through this layer: the
// diagonal phase multiply (double-cost and u16-table variants), the
// single-qubit RX mixer butterfly plus the two- and three-level RX
// butterflies the layer pipeline fuses it into, and the expectation /
// norm / ground-overlap reductions. Each kernel exists in a scalar family
// (kernels_scalar.cpp, portable C++) and an AVX2+FMA family
// (kernels_avx2.cpp). At the AVX-512 level (kernels_avx512.cpp, F+DQ) an
// f64 table replaces only phase_rx and the radix-8 rx3_tile / rx3_rows
// the layer executor calls per unit, and keeps the AVX2 ones for every
// other entry. Both vector units are
// compiled only under QOKIT_SIMD on x86-64; the level is chosen once per
// process via CPUID (common/cpu_features.hpp).
//
// Precision: every kernel exists for both amplitude widths — cdouble (the
// default and oracle) and cfloat (the bandwidth-halving mixed-precision
// path, 8 f32 lanes per AVX2 register instead of 4). Costs, angles, phase
// tables feeding the trig, and EVERY reduction accumulator stay double
// regardless of the amplitude type: only the amplitude load/store and the
// complex multiply narrow (the error-containment contract of DESIGN.md
// "Mixed precision", machine-enforced by qokit_lint's f32-accumulator
// rule).
//
// Parallelism and determinism: the dispatcher decomposes work into fixed
// kSimdBlock-element blocks (common/parallel.hpp) and hands each block to
// the active kernel family. Reductions sum per-block partials sequentially
// in block order. Consequently results depend only on (input, dispatch
// level, amplitude precision) — not on Exec policy or thread count — and
// serial and parallel execution stay bit-identical to each other at
// every dispatch level, at either precision.
//
// Callers (diagonal/ops.cpp, fur/su2.cpp, statevector/state.cpp) keep
// their public signatures, so the dist:K rank-local slices and the batch
// engine's scratch states inherit the vectorization with zero API change.
//
// Two drivers decompose work over these families: the flat kSimdBlock
// blocking below, and the cache-blocked layer pipeline
// (src/pipeline/layer_exec.cpp), which issues tile-/chunk-sized sub-ranges
// in fused traversal order. Both produce bit-identical results because the
// family kernels are position-independent per amplitude given the aligned
// sub-ranges each driver guarantees.
#pragma once

#include <cstdint>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "statevector/state.hpp"

namespace qokit {
namespace simd {

/// amp[i] *= e^{-i gamma costs[i]}: batched angle computation with a
/// vectorized sin/cos under AVX2, libm per element in the scalar family.
void apply_phase_slice(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec);
void apply_phase_slice(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec);

/// amp[i] *= table[codes[i]]: the u16 diagonal's table-driven phase pass.
/// `table` must hold one phase factor per possible code (built per gamma).
void apply_phase_table(cdouble* amp, const std::uint16_t* codes,
                       const cdouble* table, std::uint64_t count, Exec exec);
void apply_phase_table(cfloat* amp, const std::uint16_t* codes,
                       const cfloat* table, std::uint64_t count, Exec exec);

/// In-place e^{-i beta X_qubit} butterfly with c = cos(beta), s = sin(beta).
void rx(cdouble* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec);
void rx(cfloat* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec);

/// sum_i |amp[i]|^2 costs[i] (double accumulation at either precision).
double expectation_slice(const cdouble* amp, const double* costs,
                         std::uint64_t count, Exec exec);
double expectation_slice(const cfloat* amp, const double* costs,
                         std::uint64_t count, Exec exec);

/// sum_i |amp[i]|^2 (offset + scale * codes[i]).
double expectation_u16(const cdouble* amp, const std::uint16_t* codes,
                       double offset, double scale, std::uint64_t count,
                       Exec exec);
double expectation_u16(const cfloat* amp, const std::uint16_t* codes,
                       double offset, double scale, std::uint64_t count,
                       Exec exec);

/// sum_i |amp[i]|^2.
double norm_squared(const cdouble* amp, std::uint64_t count, Exec exec);
double norm_squared(const cfloat* amp, std::uint64_t count, Exec exec);

/// sum of |amp[i]|^2 over elements with costs[i] <= threshold.
double overlap_ground(const cdouble* amp, const double* costs,
                      double threshold, std::uint64_t count, Exec exec);
double overlap_ground(const cfloat* amp, const double* costs,
                      double threshold, std::uint64_t count, Exec exec);

namespace detail {

/// One kernel family at amplitude scalar T: block-range entry points the
/// dispatcher drives. Elementwise/reduction kernels receive already-offset
/// pointers and a count; single-level butterfly kernels receive the full
/// array plus a pair-index range [kb, ke) (pair k touches amplitudes
/// insert_zero_bit(k, qubit) and its partner at stride 2^qubit), the
/// multi-level RX kernels an already-offset tile or row. Angles, costs, and
/// reduction results are double for every T.
template <class T>
struct KernelsT {
  using C = std::complex<T>;
  void (*phase)(C* amp, const double* costs, std::uint64_t count,
                double gamma);
  void (*phase_table)(C* amp, const std::uint16_t* codes, const C* table,
                      std::uint64_t count);
  /// Fused diagonal phase + qubit-0 RX + qubit-1 RX over `count` (a
  /// multiple of 4) amplitudes — the per-amplitude operations of phase,
  /// rx_pairs(qubit=0) and rx_pairs(qubit=1) over the same range, bit for
  /// bit, with one load and one store per amplitude.
  void (*phase_rx)(C* amp, const double* costs, std::uint64_t count,
                   double gamma, double c, double s);
  void (*rx_pairs)(C* x, int qubit, std::uint64_t kb, std::uint64_t ke,
                   double c, double s);
  /// Two RX levels, qubit q then qubit q + 1, over the contiguous tile
  /// x[0, count) (count a multiple of 2^(q+2)): bit for bit the two
  /// rx_pairs calls covering the tile, with one load and one store per
  /// amplitude.
  void (*rx2_tile)(C* x, int q, std::uint64_t count, double c, double s);
  /// Two RX levels over four row streams of `run` amplitudes starting at
  /// x, x + stride, x + 2 stride and x + 3 stride (stride a power of two
  /// >= 2, run <= stride): rows (0, 1) and (2, 3) pair on the lower
  /// level, then rows (0, 2) and (1, 3) on the upper one. Bit for bit the
  /// four rx_pairs calls that each cover one row pair as a single run of
  /// `run` pairs.
  void (*rx2_rows)(C* x, std::uint64_t stride, std::uint64_t run, double c,
                   double s);
  /// Three RX levels, qubits q, q + 1 and q + 2, over the tile x[0, count)
  /// (count a multiple of 2^(q+3)): bit for bit the three rx_pairs calls
  /// covering the tile. Null in a family whose radix-8 body does not pay
  /// (AVX2: it spills); the executor then issues pairs.
  void (*rx3_tile)(C* x, int q, std::uint64_t count, double c, double s);
  /// Three RX levels over eight row streams x + m stride, m = 0..7 (stride
  /// a power of two >= 2, run <= stride): rows (m, m ^ 1), then (m, m ^ 2),
  /// then (m, m ^ 4). Bit for bit the twelve rx_pairs calls that each
  /// cover one row pair as a single run of `run` pairs. Null with
  /// rx3_tile.
  void (*rx3_rows)(C* x, std::uint64_t stride, std::uint64_t run, double c,
                   double s);
  double (*expectation)(const C* amp, const double* costs,
                        std::uint64_t count);
  double (*expectation_u16)(const C* amp, const std::uint16_t* codes,
                            double offset, double scale, std::uint64_t count);
  double (*norm_squared)(const C* amp, std::uint64_t count);
  double (*overlap)(const C* amp, const double* costs, double threshold,
                    std::uint64_t count);
};

using Kernels = KernelsT<double>;
using KernelsF32 = KernelsT<float>;

extern const Kernels scalar_kernels;
extern const KernelsF32 scalar_kernels_f32;
#if QOKIT_SIMD_X86
extern const Kernels avx2_kernels;
extern const KernelsF32 avx2_kernels_f32;
/// The AVX-512 level's f64 table; its f32 table is avx2_kernels_f32.
extern const Kernels avx512_kernels;
#endif

/// Family for the current active_simd_level().
const Kernels& active_kernels() noexcept;
const KernelsF32& active_kernels_f32() noexcept;

}  // namespace detail
}  // namespace simd
}  // namespace qokit
