// Thin OpenMP wrapper: every hot loop in qokit-cpp goes through
// parallel_for / parallel_reduce so serial-vs-threaded execution is a policy
// choice of the caller (the paper's `python` vs `c`/GPU simulator split).
// Compiles without OpenMP too (Exec::Parallel then degrades to serial), so
// the build treats OpenMP as an optimization, not a dependency.
#pragma once

#include <cstdint>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#define QOKIT_OMP_PRAGMA(directive) _Pragma(#directive)
#else
#define QOKIT_OMP_PRAGMA(directive)
#endif

namespace qokit {

/// Execution policy threaded through all kernels. `Serial` mirrors the
/// paper's portable reference simulator; `Parallel` the optimized one.
enum class Exec { Serial, Parallel };

/// Number of OpenMP threads a Parallel region will use.
inline int max_threads() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// This thread's index in the innermost enclosing OpenMP team (0 outside
/// any parallel region, or without OpenMP).
inline int thread_num() {
#if defined(_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Loops shorter than this run serially even under Exec::Parallel; OpenMP
/// team dispatch costs ~10us, so threading pays off only once a loop does
/// tens of thousands of element updates (important for gate-at-a-time
/// baselines, which dispatch per gate).
inline constexpr std::int64_t kParallelGrain = 1 << 15;

/// How many units a loop over `units` independent pieces covering `count`
/// elements in all hands to threads: `units`, or 1 where the loop runs
/// serially (Exec::Serial, a single unit, or fewer than kParallelGrain
/// elements). Every threaded loop in the library -- parallel_for (one
/// unit per element), the blocked loops below and the pipeline's tile
/// and row units -- decides by this one rule, and BatchEvaluator reads
/// it to see whether one schedule can keep every thread busy.
inline std::int64_t threaded_units(Exec exec, std::int64_t units,
                                   std::int64_t count) {
  return exec == Exec::Serial || units < 2 || count < kParallelGrain ? 1
                                                                     : units;
}

/// Apply `f(i)` for i in [begin, end).
template <class F>
void parallel_for(Exec exec, std::int64_t begin, std::int64_t end, F&& f) {
  if (end <= begin) return;
  if (threaded_units(exec, end - begin, end - begin) == 1) {
    for (std::int64_t i = begin; i < end; ++i) f(i);
    return;
  }
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
  for (std::int64_t i = begin; i < end; ++i) f(i);
}

/// Block size (in elements) of the blocked loops below. One block of
/// complex doubles is 128 KiB — thousands of elements, so the
/// function-pointer call into the SIMD kernel layer is fully amortized,
/// while a butterfly pass (which blocks over 2^{n-1} pairs) still exposes
/// 16+ blocks to threads from n = 18 and elementwise passes from n = 17.
inline constexpr std::int64_t kSimdBlock = 1 << 13;

/// Block size of the *expectation* reductions (expectation_slice /
/// expectation_u16). Smaller than kSimdBlock because these blocks are also
/// the unit the pipeline's fused final-pass reduction emits: 2^10
/// amplitudes divide every pipeline tile and strided chunk whose
/// width_log2 >= 10, so the fused path can compute the identical per-block
/// partials at the identical absolute offsets and sum them in the identical
/// order — bit-exact agreement with the two-pass oracle by construction.
inline constexpr std::int64_t kReduceBlock = 1 << 10;

/// Apply `f(begin, end)` over consecutive blocks of `block` elements
/// covering [0, count). The block decomposition is identical for Serial and
/// Parallel execution, so a kernel that is deterministic per block yields
/// the same result under either policy and any thread count.
template <class F>
void parallel_for_blocks(Exec exec, std::int64_t count, std::int64_t block,
                         F&& f) {
  if (count <= 0) return;
  const std::int64_t nblocks = (count + block - 1) / block;
  if (threaded_units(exec, nblocks, count) == 1) {
    for (std::int64_t b = 0; b < nblocks; ++b)
      f(b * block, b + 1 < nblocks ? (b + 1) * block : count);
    return;
  }
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
  for (std::int64_t b = 0; b < nblocks; ++b)
    f(b * block, b + 1 < nblocks ? (b + 1) * block : count);
}

/// Sum of per-block partials `f(begin, end)` over the same decomposition as
/// parallel_for_blocks. Partials are combined *sequentially in block order*
/// regardless of execution policy or thread count, so — unlike an OpenMP
/// `reduction(+)` — the result is a deterministic function of the input and
/// the block kernel alone.
template <class F>
double parallel_reduce_blocks(Exec exec, std::int64_t count,
                              std::int64_t block, F&& f) {
  if (count <= 0) return 0.0;
  const std::int64_t nblocks = (count + block - 1) / block;
  if (threaded_units(exec, nblocks, count) == 1) {
    double acc = 0.0;
    for (std::int64_t b = 0; b < nblocks; ++b)
      acc += f(b * block, b + 1 < nblocks ? (b + 1) * block : count);
    return acc;
  }
  std::vector<double> partials(static_cast<std::size_t>(nblocks));
  QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
  for (std::int64_t b = 0; b < nblocks; ++b)
    partials[static_cast<std::size_t>(b)] =
        f(b * block, b + 1 < nblocks ? (b + 1) * block : count);
  double acc = 0.0;
  for (double p : partials) acc += p;
  return acc;
}

}  // namespace qokit
