// Metrics registry: the enable flag, name interning, thread-local shards,
// and the merged scrape. See obs.hpp for the design overview.
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/obs_internal.hpp"

namespace qokit::obs {

namespace detail {

std::atomic<int> g_enabled{-1};

bool enabled_slow() noexcept {
  // First query: consult the environment once. A racing set_enabled or a
  // second first-query stores the same derived value, so the CAS loser
  // changes nothing.
  const char* e = std::getenv("QOKIT_OBS");
  const bool on = e != nullptr && (std::strcmp(e, "1") == 0 ||
                                   std::strcmp(e, "on") == 0 ||
                                   std::strcmp(e, "true") == 0);
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                    std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed) == 1;
}

Global& global() {
  // Leaked: thread shards retire through this during teardown, after
  // static destructors may already have run.
  static Global* g = new Global;
  return *g;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - global().epoch)
          .count());
}

namespace {

void retire_shard(Shard* s) {
  Global& g = global();
  MutexLock lock(g.mu);
  for (int c = 0; c < kMaxCells; ++c) {
    const std::uint64_t v = s->cells[c].load(std::memory_order_relaxed);
    if (v != 0) g.retired[static_cast<std::size_t>(c)] += v;
  }
  {
    // Only the exiting owner thread still appends to s->events, and it is
    // the thread running this retire -- but the contract is "events under
    // events_mu", and a concurrent scrape may be mid-drain on the list we
    // are about to unlink from, so take the shard lock (nested inside
    // g.mu, the documented order) rather than reason our way out of it.
    const MutexLock elock(s->events_mu);
    for (TraceEvent& e : s->events) {
      if (g.retired_events.size() >=
          static_cast<std::size_t>(kMaxRetainedEvents)) {
        g.dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (g.retired_events.size() == g.retired_events.capacity())
        g.allocs.fetch_add(1, std::memory_order_relaxed);
      g.retired_events.push_back(e);
    }
  }
  Shard** p = &g.shards;
  while (*p && *p != s) p = &(*p)->next;
  if (*p) *p = s->next;
  delete s;
}

/// Owns this thread's shard pointer; retires the shard at thread exit so
/// counts and events of short-lived threads (dist rank teams) survive.
struct ShardOwner {
  Shard* shard = nullptr;
  ~ShardOwner() {
    if (shard) retire_shard(shard);
  }
};

thread_local ShardOwner tls_owner;

}  // namespace

Shard& my_shard() {
  if (!tls_owner.shard) {
    Global& g = global();
    Shard* s = new Shard;
    s->tid = g.next_tid.fetch_add(1, std::memory_order_relaxed);
    const MutexLock lock(g.mu);
    s->next = g.shards;
    g.shards = s;
    g.allocs.fetch_add(1, std::memory_order_relaxed);
    tls_owner.shard = s;
  }
  return *tls_owner.shard;
}

void counter_add(int cell, std::uint64_t delta) noexcept {
  if (cell < 0) return;  // default-constructed handle
  my_shard().cells[static_cast<std::size_t>(cell)].fetch_add(
      delta, std::memory_order_relaxed);
}

void gauge_set(int slot, double value) noexcept {
  if (slot < 0) return;
  global().gauges[static_cast<std::size_t>(slot)].store(
      std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

double gauge_get(int slot) noexcept {
  if (slot < 0) return 0.0;
  return std::bit_cast<double>(global().gauges[static_cast<std::size_t>(
      slot)].load(std::memory_order_relaxed));
}

void histogram_record(int cell, const std::uint64_t* bounds, int n_bounds,
                      std::uint64_t value) noexcept {
  if (cell < 0) return;
  int b = n_bounds;  // overflow bucket unless a bound catches it
  for (int i = 0; i < n_bounds; ++i)
    if (value <= bounds[i]) {
      b = i;
      break;
    }
  Shard& s = my_shard();
  s.cells[static_cast<std::size_t>(cell + b)].fetch_add(
      1, std::memory_order_relaxed);
  // Sum cell sits after the overflow bucket.
  s.cells[static_cast<std::size_t>(cell + n_bounds + 1)].fetch_add(
      value, std::memory_order_relaxed);
}

std::uint64_t merged_cell(int cell) {
  if (cell < 0) return 0;
  Global& g = global();
  const MutexLock lock(g.mu);
  std::uint64_t total = g.retired[static_cast<std::size_t>(cell)];
  for (const Shard* s = g.shards; s; s = s->next)
    total += s->cells[static_cast<std::size_t>(cell)].load(
        std::memory_order_relaxed);
  return total;
}

std::uint64_t allocation_count() noexcept {
  return global().allocs.load(std::memory_order_relaxed);
}

namespace {

/// Intern `name` -> index into g.metrics; allocates `cells` fresh cells
/// for a new entry. Caller holds no lock.
int register_metric(std::string_view name, MetricKind kind, int cells,
                    std::vector<std::uint64_t> bounds) {
  Global& g = global();
  const MutexLock lock(g.mu);
  const auto it = g.index.find(std::string(name));
  if (it != g.index.end()) {
    const MetricDef& def = g.metrics[static_cast<std::size_t>(it->second)];
    if (def.kind != kind)
      throw std::logic_error("obs: metric '" + std::string(name) +
                             "' re-registered with a different kind");
    return it->second;
  }
  MetricDef def;
  def.name = std::string(name);
  def.kind = kind;
  def.bounds = std::move(bounds);
  if (kind == MetricKind::Gauge) {
    if (g.next_gauge >= kMaxGauges)
      throw std::logic_error("obs: gauge arena exhausted");
    def.gauge_slot = g.next_gauge++;
  } else {
    if (g.next_cell + cells > kMaxCells)
      throw std::logic_error("obs: metric cell arena exhausted");
    def.cell = g.next_cell;
    g.next_cell += cells;
  }
  const int id = static_cast<int>(g.metrics.size());
  g.metrics.push_back(std::move(def));
  g.index.emplace(g.metrics.back().name, id);
  g.allocs.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Default latency bounds: powers of four from 256ns to ~1s — wide enough
/// for a kernel pass and a whole distributed evaluate alike.
std::vector<std::uint64_t> default_latency_bounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 256; b <= (1ull << 30); b <<= 2)
    bounds.push_back(b);
  return bounds;
}

}  // namespace
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

Counter counter(std::string_view name) {
  using namespace detail;
  const int id = register_metric(name, MetricKind::Counter, 1, {});
  Global& g = global();
  const MutexLock lock(g.mu);
  return Counter(g.metrics[static_cast<std::size_t>(id)].cell);
}

Gauge gauge(std::string_view name) {
  using namespace detail;
  const int id = register_metric(name, MetricKind::Gauge, 0, {});
  Global& g = global();
  const MutexLock lock(g.mu);
  return Gauge(g.metrics[static_cast<std::size_t>(id)].gauge_slot);
}

Histogram histogram(std::string_view name) {
  using namespace detail;
  std::vector<std::uint64_t> bounds = default_latency_bounds();
  const int cells = static_cast<int>(bounds.size()) + 2;  // +overflow +sum
  const int id =
      register_metric(name, MetricKind::Histogram, cells, std::move(bounds));
  Global& g = global();
  const MutexLock lock(g.mu);
  const MetricDef& def = g.metrics[static_cast<std::size_t>(id)];
  // def.bounds' heap buffer is stable across metrics-vector growth (vector
  // moves preserve it), so the handle can point straight into it.
  return Histogram(def.cell, def.bounds.data(),
                   static_cast<int>(def.bounds.size()));
}

void reset() {
  using namespace detail;
  Global& g = global();
  const MutexLock lock(g.mu);
  g.retired.fill(0);
  g.retired_events.clear();
  for (auto& cell : g.gauges) cell.store(0, std::memory_order_relaxed);
  for (Shard* s = g.shards; s; s = s->next) {
    for (auto& cell : s->cells) cell.store(0, std::memory_order_relaxed);
    const MutexLock elock(s->events_mu);
    s->events.clear();
  }
  g.dropped.store(0, std::memory_order_relaxed);
}

}  // namespace qokit::obs
