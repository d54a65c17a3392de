// Monotonic wall-clock helpers: the library's per-schedule and per-request
// timings, and the stopwatch the examples use.
#pragma once

#include <chrono>
#include <cstdint>

namespace qokit {

/// Nanoseconds of steady_clock from `since` to `until` (now by default).
inline std::uint64_t elapsed_ns(
    std::chrono::steady_clock::time_point since,
    std::chrono::steady_clock::time_point until =
        std::chrono::steady_clock::now()) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(until - since)
          .count());
}

/// Stopwatch over std::chrono::steady_clock.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace qokit
