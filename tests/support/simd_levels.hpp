// Dispatch-level helpers for the suites that run kernels at more than one
// SIMD level (kernel parity, pipeline bit-identity, precision, obs).
#pragma once

#include <vector>

#include "common/cpu_features.hpp"

namespace qokit::testing {

/// Restores the dispatch level that was active at test entry (which may be
/// a QOKIT_SIMD=scalar override, not the detected level).
struct SimdLevelGuard {
  SimdLevel entry = active_simd_level();
  ~SimdLevelGuard() { force_simd_level(entry); }
};

/// Every level force_simd_level installs on this build and host, lowest
/// first: scalar always, then avx2 and avx512 where they are compiled in
/// and the CPU runs them. An AVX-512 host lists avx2 too, so the suites
/// keep covering the AVX2 kernels there.
inline std::vector<SimdLevel> installable_simd_levels() {
  const SimdLevelGuard guard;
  std::vector<SimdLevel> out;
  for (const SimdLevel level :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
    if (force_simd_level(level) == level) out.push_back(level);
  return out;
}

}  // namespace qokit::testing
