// Shared pieces of the repository benchmark: the run configuration, seeded
// input generation, latency statistics, the ordered metric set printed as
// the result line, and the span recorder used by the traced replay.
//
// Everything here is measured from outside the library: spans wrap calls
// into the public API, never code inside it.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "optimize/params.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One invocation of the benchmark binary.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of the timed loop
  bool trace = false;     ///< run the traced per-layer replay instead
  bool smoke = false;     ///< tiny problem sizes (metric-name checks only)
  std::string work_dir = ".bench_build";  ///< socket, trace and result files
  std::string env_record;  ///< variables the runner unset and set
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time consumed by all threads of this process, in seconds. Unlike
/// wall time it excludes time the hypervisor takes from the virtual CPUs.
inline double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Machine-wide CPU ticks from /proc/stat: {stolen by the hypervisor,
/// total}. Zero when unavailable.
std::pair<double, double> steal_ticks();

/// Deterministic 64-bit mix, used to derive independent input streams
/// (graph, schedules, requests, ...) from the one --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A linear-ramp schedule with a seeded total time and small seeded
/// per-angle jitter, so every evaluated schedule is a distinct input.
inline qokit::QaoaParams seeded_schedule(qokit::Rng& rng, int p) {
  qokit::QaoaParams s = qokit::linear_ramp(p, rng.uniform(0.5, 1.0));
  for (double& g : s.gammas) g += rng.uniform(-0.05, 0.05);
  for (double& b : s.betas) b += rng.uniform(-0.05, 0.05);
  return s;
}

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Bitwise equality of doubles (the replay contract is bit-identity, so
/// -0.0 vs 0.0 or any last-ulp drift counts as a mismatch).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Size of the last-level cache in bytes (0 when unknown).
std::uint64_t llc_bytes();

/// Ordered name -> (value, unit) set; printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_)
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    entries_.push_back({name, value, unit});
  }

  /// Value of a metric set earlier (throws when absent).
  double value(const std::string& name) const {
    for (const Entry& e : entries_)
      if (e.name == name) return e.value;
    throw std::logic_error("metric not set: " + name);
  }

  /// Shortest round-trip decimal for a double (JSON has no NaN/inf; those
  /// are reported as null so the runner rejects the line).
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  }

  /// Human-readable lines: `<tag> <name> = <value> <unit>`.
  void print_lines(std::FILE* out, const char* tag = "metric") const {
    for (const Entry& e : entries_)
      std::fprintf(out, "%-6s %-34s = %s %s\n", tag, e.name.c_str(),
                   number(e.value).c_str(), e.unit.c_str());
  }

  /// The JSON object of the result line's "metrics" key.
  std::string to_json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i) s += ", ";
      s += "\"" + e.name + "\": {\"value\": " + number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome checks of one run: one slot per attempted operation, marked
/// when the operation failed or its output was wrong.
class Tally {
 public:
  /// Register an operation; returns its index.
  std::size_t add() {
    bad_.push_back(0);
    return bad_.size() - 1;
  }
  /// Mark operation `op` failed unless `ok`.
  void check(std::size_t op, bool ok, const std::string& what) {
    if (ok) return;
    bad_.at(op) = 1;
    if (errors_.size() < 8) errors_.push_back(what);
  }
  /// Register an operation and check it in one step.
  void expect(bool ok, const std::string& what) { check(add(), ok, what); }

  long attempted() const { return static_cast<long>(bad_.size()); }
  long failed() const {
    return static_cast<long>(std::count(bad_.begin(), bad_.end(), 1));
  }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<char> bad_;
  std::vector<std::string> errors_;  ///< first few failure descriptions
};

/// In-memory span log of the traced replay: name, start, end, parent span
/// and request id, written out once at exit. Thread-safe (the serving
/// replay records from several client threads).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;
    std::int64_t request = -1;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  int begin(std::string name, int parent = -1, std::int64_t request = -1) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, -1, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Close span `id`; returns its duration in seconds.
  double end(int id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_ns = t;
    return static_cast<double>(t - s.start_ns) * 1e-9;
  }

  std::vector<Span> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed by stop() or the destructor.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent = -1,
             std::int64_t request = -1)
      : rec_(rec), id_(rec.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  /// Close now; returns the duration in seconds (0 when already closed).
  double stop() {
    if (closed_) return 0.0;
    closed_ = true;
    return rec_.end(id_);
  }

 private:
  SpanRecorder& rec_;
  int id_;
  bool closed_ = false;
};

/// Per-name totals with self time (duration minus the part covered by
/// child spans), in milliseconds; printed by the traced run.
struct SelfTime {
  std::string name;
  long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTime> self_times(const std::vector<SpanRecorder::Span>& spans);

/// Write the spans as a JSON array (Chrome trace "X" events) to `path`.
bool write_trace(const std::string& path,
                 const std::vector<SpanRecorder::Span>& spans);

/// The shared bench context (bench/bench_report.hpp) plus the run's
/// inputs and machine facts, as a JSON object.
std::string context_json(const Config& cfg, std::uint64_t working_set_bytes);

}  // namespace perfbench
