#include "common/cpu_features.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace qokit {
namespace {

/// True when this machine (CPU and OS) can run the level's kernels. Each
/// vector level also needs everything the levels below it need: the
/// AVX-512 table keeps the AVX2 kernels for every entry it does not
/// replace.
bool machine_supports(SimdLevel level) noexcept {
#if QOKIT_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case SimdLevel::Scalar: return true;
    case SimdLevel::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case SimdLevel::Avx512:
      return machine_supports(SimdLevel::Avx2) &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
  }
  return false;
#else
  return level == SimdLevel::Scalar;
#endif
}

/// The best level at or below `level` that is compiled in and runs here.
SimdLevel clamp_to_available(SimdLevel level) noexcept {
  for (int v = static_cast<int>(level); v > 0; --v) {
    const auto candidate = static_cast<SimdLevel>(v);
    if (simd_level_compiled(candidate) && machine_supports(candidate))
      return candidate;
  }
  return SimdLevel::Scalar;
}

SimdLevel initial_level() noexcept {
  if (const char* env = std::getenv("QOKIT_SIMD")) {
    // Case-insensitive so QOKIT_SIMD=OFF (the CMake option's documented
    // spelling) works at runtime too.
    char folded[16] = {};
    for (int i = 0; i < 15 && env[i]; ++i)
      folded[i] = static_cast<char>(
          std::tolower(static_cast<unsigned char>(env[i])));
    if (std::strcmp(folded, "scalar") == 0 || std::strcmp(folded, "off") == 0 ||
        std::strcmp(folded, "0") == 0)
      return SimdLevel::Scalar;
  }
  return detect_simd_level();
}

// -1 = not yet initialized; otherwise a SimdLevel value. A relaxed atomic is
// enough: initialization is idempotent (every racer computes the same level),
// so this stays a lone atomic rather than a common/sync.hpp Mutex -- there
// is no multi-member invariant for a capability to guard.
std::atomic<int> g_active{-1};

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Avx512: return "avx512";
  }
  return "unknown";
}

bool simd_level_compiled(SimdLevel level) noexcept {
  if (level == SimdLevel::Scalar) return true;
#if QOKIT_SIMD_X86
  return level == SimdLevel::Avx2 || level == SimdLevel::Avx512;
#else
  return false;
#endif
}

SimdLevel detect_simd_level() noexcept {
  return clamp_to_available(SimdLevel::Avx512);
}

SimdLevel active_simd_level() noexcept {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(initial_level());
    g_active.store(v, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(v);
}

SimdLevel force_simd_level(SimdLevel level) noexcept {
  const SimdLevel installed = clamp_to_available(level);
  g_active.store(static_cast<int>(installed), std::memory_order_relaxed);
  return installed;
}

}  // namespace qokit
