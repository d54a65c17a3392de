// Runtime observability: process-wide metrics registry, scoped tracing
// spans, and exporters (JSON snapshot / Prometheus text exposition /
// chrome://tracing trace events).
//
// The engine's serving story needs stage-attributed visibility — where a
// ProblemSession::evaluate spends its time (precompute vs per-layer
// pipeline passes vs reduction vs alltoall), which kernel family actually
// ran, whether the batch scratch pool is hitting — without taxing the hot
// paths when nobody is looking. The design:
//
//  - One process-wide registry of named counters, gauges, and fixed-bucket
//    latency histograms. Counters and histograms write to lock-free
//    thread-local shards (one relaxed fetch_add on a cache line no other
//    thread writes); a scrape merges the shards. Shards of finished
//    threads (e.g. the distributed simulator's per-call rank teams) are
//    folded into a retired accumulator at thread exit, so no count is ever
//    lost.
//  - Scoped spans (OBS_SPAN("phase_kernel") or a named obs::Span for
//    attribute attachment) nest per thread, carry typed attributes, and
//    become chrome://tracing complete events. Span storage is inline in
//    the guard object — opening a span allocates nothing; closing one
//    appends to a bounded per-thread event buffer.
//  - Everything is gated on one process-global flag: off by default, on
//    when the environment says QOKIT_OBS=1 (or on/true) or a caller
//    invokes obs::set_enabled(true). When off, every instrumentation site
//    reduces to a relaxed atomic load and a predictable branch — no
//    allocation, no shard, no mutation (pinned by
//    tests/test_observability.cpp).
//
// Registration (obs::counter/gauge/histogram) interns by name and may be
// called from any thread at any time; instrumentation sites hold the
// returned handle in a function-local static so the name lookup happens
// once per process. See DESIGN.md "Observability" for the shard-merge
// model and the overhead argument.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qokit::obs {

namespace detail {
/// Tri-state enable flag: -1 until the QOKIT_OBS environment variable has
/// been consulted, then 0 (off) or 1 (on). set_enabled() writes it
/// directly, so a program can override a silent environment.
extern std::atomic<int> g_enabled;
bool enabled_slow() noexcept;
void counter_add(int cell, std::uint64_t delta) noexcept;
void gauge_set(int slot, double value) noexcept;
double gauge_get(int slot) noexcept;
void histogram_record(int cell, const std::uint64_t* bounds, int n_bounds,
                      std::uint64_t value) noexcept;
std::uint64_t merged_cell(int cell);

/// Obs-internal heap activity (shard creation, metric registration, event
/// buffer growth). The disabled-is-free regression test pins that this —
/// and every counter — stays flat across instrumented calls once the
/// registry is warm and observability is off.
std::uint64_t allocation_count() noexcept;
}  // namespace detail

/// Whether instrumentation is live. One relaxed load on the fast path.
inline bool enabled() noexcept {
  const int s = detail::g_enabled.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return detail::enabled_slow();
}

/// Turn instrumentation on or off for the whole process: the one
/// programmatic switch next to the QOKIT_OBS environment variable.
void set_enabled(bool on) noexcept;

/// Monotonically increasing named count (events, bytes, calls). Handles
/// are cheap value types; obtain one from obs::counter and keep it in a
/// function-local static at the instrumentation site.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const noexcept {
    if (enabled()) detail::counter_add(cell_, delta);
  }
  /// Merged total across all live and retired thread shards.
  std::uint64_t value() const { return detail::merged_cell(cell_); }

 private:
  friend Counter counter(std::string_view);
  explicit Counter(int cell) : cell_(cell) {}
  int cell_ = -1;
};

/// Last-write-wins named value (queue depth, active level). Gauges are a
/// single process-global cell, not sharded: sets are rare and carry no
/// merge semantics.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept {
    if (enabled()) detail::gauge_set(slot_, value);
  }
  double value() const { return detail::gauge_get(slot_); }

 private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(int slot) : slot_(slot) {}
  int slot_ = -1;
};

/// Fixed-bucket latency histogram (value <= bounds[i] lands in bucket i,
/// larger values in the overflow bucket). Bucket counts and the running
/// sum live in the thread shards like counters.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const noexcept {
    if (enabled())
      detail::histogram_record(cell_, bounds_, n_bounds_, value);
  }

 private:
  friend Histogram histogram(std::string_view);
  Histogram(int cell, const std::uint64_t* bounds, int n_bounds)
      : cell_(cell), bounds_(bounds), n_bounds_(n_bounds) {}
  int cell_ = -1;
  const std::uint64_t* bounds_ = nullptr;  ///< interned in the registry
  int n_bounds_ = 0;
};

/// Register (or look up) a counter by name. Names should follow the
/// Prometheus convention used throughout: qokit_<noun>_total.
Counter counter(std::string_view name);

/// Register (or look up) a gauge by name.
Gauge gauge(std::string_view name);

/// Register (or look up) a histogram with the nanosecond latency bounds
/// every library histogram shares (powers of four from 256ns to ~1s).
Histogram histogram(std::string_view name);

/// Maximum attributes one span can carry; further attrs are dropped.
inline constexpr int kMaxSpanAttrs = 6;

/// One typed span/trace-event attribute. Key and string values must have
/// static storage duration (string literals, or the string_views returned
/// by the enum to_string helpers, which point at literals).
struct Attr {
  const char* key = nullptr;
  char tag = 'i';  ///< 'i' int64, 'f' double, 's' string
  std::int64_t i = 0;
  double f = 0.0;
  const char* s = nullptr;
};

/// Scoped tracing span: opens at construction, closes (and records a
/// chrome://tracing complete event) at destruction. Spans nest per thread
/// via a depth counter; attributes attach between open and close and are
/// stored inline (no allocation until close appends the finished event to
/// the thread's buffer). When observability is off the constructor is one
/// relaxed load and everything else a no-op.
class Span {
 public:
  /// `name` must have static storage duration (pass a string literal).
  explicit Span(const char* name) noexcept : live_(enabled()) {
    if (live_) open(name);
  }
  ~Span() {
    if (live_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(const char* key, std::int64_t v) noexcept {
    if (live_ && n_attrs_ < kMaxSpanAttrs)
      attrs_[n_attrs_++] = Attr{key, 'i', v, 0.0, nullptr};
  }
  void attr(const char* key, int v) noexcept {
    attr(key, static_cast<std::int64_t>(v));
  }
  void attr(const char* key, std::uint64_t v) noexcept {
    attr(key, static_cast<std::int64_t>(v));
  }
  void attr(const char* key, double v) noexcept {
    if (live_ && n_attrs_ < kMaxSpanAttrs)
      attrs_[n_attrs_++] = Attr{key, 'f', 0, v, nullptr};
  }
  /// `v` must have static storage duration.
  void attr(const char* key, const char* v) noexcept {
    if (live_ && n_attrs_ < kMaxSpanAttrs)
      attrs_[n_attrs_++] = Attr{key, 's', 0, 0.0, v};
  }

 private:
  void open(const char* name) noexcept;
  void close() noexcept;

  bool live_;
  int n_attrs_ = 0;
  int depth_ = 0;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  Attr attrs_[kMaxSpanAttrs];
};

// Anonymous scoped span; use a named obs::Span when attributes are needed.
#define QOKIT_OBS_CONCAT2(a, b) a##b
#define QOKIT_OBS_CONCAT(a, b) QOKIT_OBS_CONCAT2(a, b)
#define OBS_SPAN(name) \
  ::qokit::obs::Span QOKIT_OBS_CONCAT(qokit_obs_span_, __LINE__)(name)

/// RAII wall-clock timer recording its lifetime into a histogram on
/// destruction (nanoseconds). Free when observability is off.
class HistTimer {
 public:
  explicit HistTimer(Histogram hist) noexcept;
  ~HistTimer();
  HistTimer(const HistTimer&) = delete;
  HistTimer& operator=(const HistTimer&) = delete;

 private:
  Histogram hist_;
  std::uint64_t start_ = 0;
  bool live_;
};

/// Point-in-time view of one histogram: per-bucket (non-cumulative)
/// counts, bucket i counting values <= bounds[i]; buckets.back() is the
/// overflow bucket, so buckets.size() == bounds.size() + 1.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;  ///< total recordings (sum of buckets)
  std::uint64_t sum = 0;    ///< sum of recorded values
};

/// Scrape result: every registered metric, merged across thread shards,
/// sorted by name. ProblemSession::metrics() returns one of these.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const;
  /// Prometheus text exposition format, version 0.0.4 (cumulative
  /// le-buckets, _sum/_count series).
  std::string to_prometheus() const;
};

/// Merge all shards and return the current metric values. Cheap enough to
/// call per scrape; never blocks the hot paths (they never take the
/// registry lock).
Snapshot snapshot();

/// All trace events recorded since process start (or the last reset()) as
/// a chrome://tracing / Perfetto-loadable JSON document.
std::string trace_json();

/// Events currently retained / dropped against the per-thread and global
/// retention caps (bounded memory under long obs-on runs).
std::uint64_t trace_event_count();
std::uint64_t dropped_event_count();

/// Zero every metric and drop all trace events (registrations survive).
/// Test and long-lived-server aid; not safe concurrently with scrapes.
void reset();

/// When observability is on, write the three exports next to the process
/// (prefix overridable via QOKIT_OBS_PATH): qokit_obs_metrics.json,
/// qokit_obs_metrics.prom, qokit_obs_trace.json. Returns true when all
/// three were written; false when off or on I/O failure.
bool dump();

}  // namespace qokit::obs
