// Runtime CPU feature detection and the SIMD dispatch level.
//
// The vector kernel layer (src/simd/) is compiled at most twice: once as
// portable scalar C++ and once per instruction-set extension (currently
// AVX2+FMA on x86-64, guarded by the QOKIT_SIMD build option). Which copy
// runs is decided *once per process* from CPUID — not per call — so every
// backend (serial/threaded/u16/fwht/dist/batch) sees one consistent kernel
// family and results are deterministic per dispatch level.
#pragma once

namespace qokit {

// QOKIT_SIMD_X86 gates the AVX2 translation unit and the CPUID probe. It is
// on only when the build enabled QOKIT_SIMD *and* the target is x86-64; on
// any other combination the scalar kernels are the only ones in the binary.
#if defined(QOKIT_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define QOKIT_SIMD_X86 1
#else
#define QOKIT_SIMD_X86 0
#endif

/// Kernel families the binary can dispatch between. Numeric order is
/// "preference order": the highest supported level wins.
enum class SimdLevel { Scalar = 0, Avx2 = 1 };

/// Human-readable name ("scalar", "avx2") for logs and benchmark results.
const char* simd_level_name(SimdLevel level) noexcept;

/// True when the named level's kernels were compiled into this binary.
bool simd_level_compiled(SimdLevel level) noexcept;

/// Best level this *machine* supports among the compiled-in ones (CPUID
/// probe for AVX2+FMA). Does not consult the QOKIT_SIMD env override.
SimdLevel detect_simd_level() noexcept;

/// The level the dispatched kernels currently use. Initialized on first use
/// from detect_simd_level(), overridable down to scalar with the environment
/// variable QOKIT_SIMD=scalar (read once, at that first use).
SimdLevel active_simd_level() noexcept;

/// Test/bench hook: force the dispatch level for the whole process. Requests
/// for a level that is not compiled in or not supported by this machine are
/// clamped; the level actually installed is returned. Not intended for
/// concurrent use with running kernels (flip it between kernel calls only).
SimdLevel force_simd_level(SimdLevel level) noexcept;

}  // namespace qokit
