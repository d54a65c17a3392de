// LayerPlan executor: drives the active SIMD kernel family over
// cache-resident units. Bit-identity with the unfused path rests on two
// alignment invariants that every sub-range issued here preserves:
//
//  1. Elementwise kernels (phase / phase_table) are called on ranges
//     whose start is a multiple of 4 and whose length is a multiple of 4
//     (or the single whole-array call when the array is shorter) — so
//     the AVX2 kernels partition elements into the same absolute groups
//     of 4 as dispatch.cpp's kSimdBlock blocks, and the same elements
//     take the vector vs libm-fallback path.
//  2. Butterfly kernels are called on pair ranges with even start and even
//     length that never split a contiguous run mid-vector — so the same
//     absolute pairs land in the same 2-pair vector groups and no pair
//     falls to a (differently rounded) scalar tail in one decomposition
//     but not the other.
//  3. Multi-level RX kernels (phase_rx, rx2_tile, rx2_rows, rx3_tile,
//     rx3_rows) get whole 2^(q+2)- or 2^(q+3)-amplitude tile blocks or
//     whole row runs — exactly the runs the single-level rx_pairs calls
//     would see — and each family repeats rx_pairs' per-op arithmetic and
//     its vector/scalar-tail split per level in registers.
//
// Given those, per-amplitude results depend only on (input values, qubit,
// dispatch level) — not on traversal order — and each pass applies its
// operations to each amplitude in exactly the unfused order (phase first,
// then butterflies by ascending qubit).
#include "pipeline/layer_exec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "simd/kernels.hpp"

namespace qokit::pipeline {
namespace {

/// Pass-shape counters, incremented once per pass (never inside the
/// per-unit loops) so observability's cost scales with passes, not tiles.
const obs::Counter& tile_pass_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_tile_passes_total");
  return c;
}

const obs::Counter& strided_pass_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_strided_passes_total");
  return c;
}

const obs::Counter& fused_reduction_counter() {
  static const obs::Counter c =
      obs::counter("qokit_pipeline_fused_reductions_total");
  return c;
}

/// Wall time of every layer the executor runs, recorded like the pass
/// counters: once per layer, outside the per-unit loops.
const obs::Histogram& layer_histogram() {
  static const obs::Histogram h = obs::histogram("qokit_layer_ns");
  return h;
}

/// How many triples a unit's `levels` remaining RX levels split into when
/// the family has rx3 kernels: as many as leave the rest in pairs, so no
/// level runs alone unless levels == 1 (4 -> 2+2, 7 -> 3+2+2,
/// 14 -> 3+3+3+3+2).
int rx_triples(int levels) {
  return levels % 3 == 1 && levels > 1 ? (levels - 4) / 3 : levels / 3;
}

/// Units pass `p` splits a 2^n-amplitude array into: contiguous tiles,
/// or (strided) one chunk column of 2^(q_end - q_begin) rows per unit.
std::int64_t pass_units(const LayerPass& p, std::uint64_t n_amps) {
  if (!p.strided)
    return static_cast<std::int64_t>(
        n_amps / std::min<std::uint64_t>(n_amps, 1ull << p.width_log2));
  const std::uint64_t blocks = n_amps >> p.q_end;
  const std::uint64_t cols = (1ull << p.q_begin) >> p.width_log2;
  return static_cast<std::int64_t>(blocks * cols);
}

/// Parallelize over a pass's independent cache-units. Units touch
/// disjoint amplitudes and carry no reductions, so any thread count (and
/// Serial) produces the same bits; threaded_units decides, as for
/// parallel_for_blocks.
template <class F>
void for_units(Exec exec, std::int64_t units, std::uint64_t n_amps, F&& f) {
  if (units <= 0) return;
  if (threaded_units(exec, units, static_cast<std::int64_t>(n_amps)) == 1) {
    for (std::int64_t u = 0; u < units; ++u) f(u);
    return;
  }
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
  for (std::int64_t u = 0; u < units; ++u) f(u);
}

/// Fused expectation partials for one unit's contiguous piece
/// [base, base+count): one k.expectation / k.expectation_u16 call per
/// absolute kReduceBlock sub-block, written to partials[abs / block].
/// base and count are whole multiples of kReduceBlock (guaranteed by
/// can_fuse_expectation), so these are exactly the calls the two-pass
/// expectation dispatch makes for the same sub-range — same pointers,
/// same lengths, same kernel family. Partials stay double at both
/// precisions.
template <class T>
void reduce_piece(const simd::detail::KernelsT<T>& k,
                  const std::complex<T>* amp, const ExpectationCtx& red,
                  std::uint64_t base, std::uint64_t count,
                  double* partials) {
  const auto block = static_cast<std::uint64_t>(kReduceBlock);
  for (std::uint64_t off = 0; off < count; off += block) {
    const std::uint64_t i = base + off;
    partials[i / block] =
        red.codes ? k.expectation_u16(amp + i, red.codes + i, red.offset,
                                      red.scale, block)
                  : k.expectation(amp + i, red.costs + i, block);
  }
}

/// The diagonal phase on amp[base, base+count), double or u16 path.
template <class T>
void phase_unit(const simd::detail::KernelsT<T>& k, std::complex<T>* amp,
                const PhaseCtxT<T>& ctx, std::uint64_t base,
                std::uint64_t count, double gamma) {
  if (ctx.codes)
    k.phase_table(amp + base, ctx.codes + base, ctx.table, count);
  else
    k.phase(amp + base, ctx.costs + base, count, gamma);
}

template <class T>
void run_tile_pass(const simd::detail::KernelsT<T>& k, const LayerPass& p,
                   std::complex<T>* amp, std::uint64_t n_amps,
                   const PhaseCtxT<T>& ctx, double gamma, double c, double s,
                   Exec exec, const ExpectationCtx* red = nullptr,
                   double* partials = nullptr) {
  const std::uint64_t tile =
      std::min<std::uint64_t>(n_amps, 1ull << p.width_log2);
  for_units(exec, pass_units(p, n_amps), n_amps,
            [&](std::int64_t u) {
              const std::uint64_t base =
                  static_cast<std::uint64_t>(u) * tile;
              int q = p.q_begin;
              if (p.phase) {
                if (!ctx.codes && q == 0 && p.q_end >= 2) {
                  // The fused family kernel: phase + the qubit-0 and
                  // qubit-1 butterflies in one read/write of the tile.
                  k.phase_rx(amp + base, ctx.costs + base, tile, gamma, c,
                             s);
                  q = 2;
                } else {
                  phase_unit(k, amp, ctx, base, tile, gamma);
                }
              }
              // RX levels in adjacent triples where the family has rx3
              // kernels, then pairs, one read/write of the tile each
              // (q_end <= log2(tile) keeps the 2^(q+3) and 2^(q+2) blocks
              // whole). Without rx3 kernels an odd level left over goes
              // alone, over the pair indices [base/2, (base+tile)/2) that
              // cover exactly this tile.
              if (k.rx3_tile)
                for (const int q3 = q + 3 * rx_triples(p.q_end - q); q < q3;
                     q += 3)
                  k.rx3_tile(amp + base, q, tile, c, s);
              for (; q + 1 < p.q_end; q += 2)
                k.rx2_tile(amp + base, q, tile, c, s);
              for (; q < p.q_end; ++q)
                k.rx_pairs(amp, q, base >> 1, (base + tile) >> 1, c, s);
              if (red)
                reduce_piece(k, amp, *red, base, tile, partials);
            });
}

template <class T>
void run_strided_pass(const simd::detail::KernelsT<T>& k, const LayerPass& p,
                      std::complex<T>* amp, std::uint64_t n_amps, double c,
                      double s, Exec exec,
                      const ExpectationCtx* red = nullptr,
                      double* partials = nullptr) {
  const int a = p.q_begin;
  const int b = p.q_end;
  const std::uint64_t chunk = 1ull << p.width_log2;  // width_log2 <= a
  const std::uint64_t row = 1ull << a;               // row stride
  const std::uint64_t rows = 1ull << (b - a);
  const std::int64_t cols = static_cast<std::int64_t>(row >> p.width_log2);
  for_units(
      exec, pass_units(p, n_amps), n_amps, [&](std::int64_t u) {
        const std::uint64_t blk = static_cast<std::uint64_t>(u / cols) << b;
        const std::uint64_t col = static_cast<std::uint64_t>(u % cols)
                                  << p.width_log2;
        // All g butterflies on the cache-resident 2^g-row working set;
        // partners for qubit q = a + j are rows r and r | 2^j, both inside
        // the set, so ascending-q order sees exactly the unfused dataflow.
        // RX levels go in adjacent triples where the family has rx3
        // kernels, then pairs: rows r + m 2^j (m = 0..7, or 0..3) sit 2^q
        // amplitudes apart, one rx3_rows / rx2_rows call per set. Without
        // rx3 kernels an odd level left over goes alone.
        int q = a;
        if (k.rx3_rows)
          for (const int q3 = q + 3 * rx_triples(b - q); q < q3; q += 3) {
            const std::uint64_t rbits = 7ull << (q - a);
            for (std::uint64_t r = 0; r < rows; ++r) {
              if (r & rbits) continue;
              k.rx3_rows(amp + blk + r * row + col, 1ull << q, chunk, c, s);
            }
          }
        for (; q + 1 < b; q += 2) {
          const std::uint64_t rbits = 3ull << (q - a);
          for (std::uint64_t r = 0; r < rows; ++r) {
            if (r & rbits) continue;
            k.rx2_rows(amp + blk + r * row + col, 1ull << q, chunk, c, s);
          }
        }
        for (; q < b; ++q) {
          const std::uint64_t rbit = 1ull << (q - a);
          for (std::uint64_t r = 0; r < rows; ++r) {
            if (r & rbit) continue;
            const std::uint64_t kb = remove_bit(blk + r * row + col, q);
            k.rx_pairs(amp, q, kb, kb + chunk, c, s);
          }
        }
        if (red)
          // Each row's chunk starts at blk + r*row + col — a multiple of
          // the chunk length (col is a whole chunk multiple, row and blk
          // are larger powers of two), so kReduceBlock sub-blocks nest
          // exactly.
          for (std::uint64_t r = 0; r < rows; ++r)
            reduce_piece(k, amp, *red, blk + r * row + col, chunk,
                         partials);
      });
}

/// Shared body of run_layer / run_layer_expectation, at either precision.
/// When `red` is set the FINAL pass also reduces each unit into `partials`
/// (see the header's determinism argument).
template <class T>
void run_passes(const LayerPlan& plan, std::complex<T>* amp,
                std::uint64_t n_amps, const PhaseCtxT<T>& phase, double gamma,
                double beta, Exec exec, const ExpectationCtx* red,
                double* partials) {
  if (red) {
    if (!can_fuse_expectation(plan, n_amps))
      throw std::logic_error(
          "pipeline::run_layer_expectation: plan cannot carry a fused "
          "expectation (see can_fuse_expectation)");
    if (!red->costs && !red->codes)
      throw std::invalid_argument(
          "pipeline::run_layer_expectation: ExpectationCtx needs costs or "
          "codes");
    fused_reduction_counter().add();
  }
  if (!plan.active())
    throw std::logic_error("pipeline::run_layer: plan is not active: " +
                           plan.fallback_reason());
  if (n_amps != (1ull << plan.num_qubits()))
    throw std::invalid_argument("pipeline::run_layer: array size mismatch");
  if (!phase.costs && !(phase.codes && phase.table))
    throw std::invalid_argument(
        "pipeline::run_layer: PhaseCtx needs costs or codes+table");
  const simd::detail::KernelsT<T>& k = simd::detail::active<T>();
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  obs::Span span("layer");
  span.attr("n", plan.num_qubits());
  span.attr("passes", static_cast<std::int64_t>(plan.passes().size()));
  const obs::HistTimer layer_timer(layer_histogram());
  const LayerPass* last = plan.passes().empty() ? nullptr
                                                : &plan.passes().back();
  for (const LayerPass& p : plan.passes()) {
    const ExpectationCtx* pass_red = (red && &p == last) ? red : nullptr;
    obs::Span pspan(p.strided ? "strided_pass" : "tile_pass");
    pspan.attr("q_begin", p.q_begin);
    pspan.attr("q_end", p.q_end);
    pspan.attr("width_log2", p.width_log2);
    if (p.strided) {
      strided_pass_counter().add();
      run_strided_pass(k, p, amp, n_amps, c, s, exec, pass_red, partials);
    } else {
      tile_pass_counter().add();
      run_tile_pass(k, p, amp, n_amps, phase, gamma, c, s, exec, pass_red,
                    partials);
    }
  }
}

}  // namespace

template <class T>
void run_layer(const LayerPlan& plan, std::complex<T>* amp,
               std::uint64_t n_amps, const PhaseCtxT<T>& phase, double gamma,
               double beta, Exec exec) {
  run_passes(plan, amp, n_amps, phase, gamma, beta, exec, nullptr, nullptr);
}

std::int64_t fewest_threaded_units(const LayerPlan& plan, Exec exec) {
  const std::uint64_t n_amps = 1ull << plan.num_qubits();
  std::int64_t fewest = std::numeric_limits<std::int64_t>::max();
  for (const LayerPass& p : plan.passes())
    fewest = std::min(fewest,
                      threaded_units(exec, pass_units(p, n_amps),
                                     static_cast<std::int64_t>(n_amps)));
  return plan.passes().empty() ? 1 : fewest;
}

bool can_fuse_expectation(const LayerPlan& plan, std::uint64_t n_amps) {
  if (!plan.active() || plan.passes().empty()) return false;
  if (n_amps < static_cast<std::uint64_t>(kReduceBlock)) return false;
  const LayerPass& last = plan.passes().back();
  // The final pass's unit width must hold whole kReduceBlocks so fused
  // partial blocks align with the two-pass decomposition.
  return (std::uint64_t{1} << last.width_log2) >=
         static_cast<std::uint64_t>(kReduceBlock);
}

template <class T>
void run_layer_expectation(const LayerPlan& plan, std::complex<T>* amp,
                           std::uint64_t n_amps, const PhaseCtxT<T>& phase,
                           double gamma, double beta, Exec exec,
                           const ExpectationCtx& reduce, double* partials) {
  run_passes(plan, amp, n_amps, phase, gamma, beta, exec, &reduce, partials);
}

/// Butterfly-only passes, no phase source.
template <class T>
void run_sweep(const LayerPlan& plan, std::complex<T>* amp,
               std::uint64_t n_amps, double c, double s, Exec exec) {
  if (!plan.active())
    throw std::logic_error("pipeline::run_sweep: plan is not active: " +
                           plan.fallback_reason());
  if (n_amps != (1ull << plan.num_qubits()))
    throw std::invalid_argument("pipeline::run_sweep: array size mismatch");
  const simd::detail::KernelsT<T>& k = simd::detail::active<T>();
  const PhaseCtxT<T> no_phase;
  obs::Span span("pipeline_sweep");
  span.attr("n", plan.num_qubits());
  for (const LayerPass& p : plan.passes()) {
    if (p.strided) {
      strided_pass_counter().add();
      run_strided_pass<T>(k, p, amp, n_amps, c, s, exec);
    } else {
      tile_pass_counter().add();
      run_tile_pass<T>(k, p, amp, n_amps, no_phase, 0.0, c, s, exec);
    }
  }
}

#define QOKIT_PIPELINE_INSTANTIATE(T)                                       \
  template void run_layer(const LayerPlan&, std::complex<T>*,               \
                          std::uint64_t, const PhaseCtxT<T>&, double,       \
                          double, Exec);                                    \
  template void run_layer_expectation(                                      \
      const LayerPlan&, std::complex<T>*, std::uint64_t, const PhaseCtxT<T>&, \
      double, double, Exec, const ExpectationCtx&, double*);                \
  template void run_sweep(const LayerPlan&, std::complex<T>*, std::uint64_t, \
                          double, double, Exec);
QOKIT_PIPELINE_INSTANTIATE(double)
QOKIT_PIPELINE_INSTANTIATE(float)
#undef QOKIT_PIPELINE_INSTANTIATE

}  // namespace qokit::pipeline
