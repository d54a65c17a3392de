// Runtime CPU feature detection and the SIMD dispatch level.
//
// The vector kernel layer (src/simd/) is compiled as portable scalar C++
// plus, under the QOKIT_SIMD build option on x86-64, one translation unit
// per instruction-set extension: AVX2+FMA (kernels_avx2.cpp) and AVX-512
// F+DQ (kernels_avx512.cpp). Which family runs is decided *once per
// process* from CPUID — not per call — so every backend (auto/u16/dist,
// either Exec policy, batch) sees one consistent kernel family and results
// are deterministic per dispatch level.
#pragma once

namespace qokit {

// QOKIT_SIMD_X86 gates the vector translation units and the CPUID probe.
// It is on only when the build enabled QOKIT_SIMD *and* the target is
// x86-64; on any other combination the scalar kernels are the only ones in
// the binary.
#if defined(QOKIT_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define QOKIT_SIMD_X86 1
#else
#define QOKIT_SIMD_X86 0
#endif

/// Kernel families the binary can dispatch between. Numeric order is
/// "preference order": the highest supported level wins.
enum class SimdLevel { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Human-readable name ("scalar", "avx2", "avx512") for logs and benchmark
/// results.
const char* simd_level_name(SimdLevel level) noexcept;

/// True when the named level's kernels were compiled into this binary.
bool simd_level_compiled(SimdLevel level) noexcept;

/// Best level this *machine* supports among the compiled-in ones (CPUID
/// probe: AVX2+FMA for avx2, additionally AVX-512 F+DQ for avx512). Does
/// not consult the QOKIT_SIMD env override.
SimdLevel detect_simd_level() noexcept;

/// The level the dispatched kernels currently use. Initialized on first use
/// from detect_simd_level(), overridable down to scalar with the environment
/// variable QOKIT_SIMD=scalar (read once, at that first use).
SimdLevel active_simd_level() noexcept;

/// Test hook: force the dispatch level for the whole process. A request for
/// a level that is not compiled in or not supported by this machine
/// installs the best available level below it; the level actually
/// installed is returned. Not intended for concurrent use with running
/// kernels (flip it between kernel calls only).
SimdLevel force_simd_level(SimdLevel level) noexcept;

}  // namespace qokit
