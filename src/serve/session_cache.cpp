#include "serve/session_cache.hpp"

#include <limits>
#include <utility>

#include "fur/simulator.hpp"
#include "obs/obs.hpp"
#include "pipeline/layer_plan.hpp"

namespace qokit::serve {
namespace {

void fnv_mix(std::uint64_t* h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    *h ^= bytes[i];
    *h *= 1099511628211ull;  // FNV-1a prime
  }
}

/// The stored session answers for exactly this (terms, spec)? Guards
/// against 64-bit key collisions; cheap (term count is tiny next to 2^n).
bool same_problem(const api::ProblemSession& session, const TermList& terms,
                  const SimulatorSpec& spec) {
  return session.spec() == spec &&
         session.terms().num_qubits() == terms.num_qubits() &&
         session.terms().terms() == terms.terms();
}

}  // namespace

std::uint64_t problem_key(const TermList& terms, const SimulatorSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const std::uint32_t n = static_cast<std::uint32_t>(terms.num_qubits());
  fnv_mix(&h, &n, sizeof n);
  for (const Term& t : terms) {
    fnv_mix(&h, &t.weight, sizeof t.weight);
    fnv_mix(&h, &t.mask, sizeof t.mask);
  }
  const std::string spelled = spec.to_string();
  fnv_mix(&h, spelled.data(), spelled.size());
  return h;
}

std::uint64_t session_footprint_bytes(int num_qubits, std::size_t num_terms,
                                      Precision prec, std::size_t states) {
  // f64 diagonal + one statevector per pool slot at the session's actual
  // amplitude width (16 bytes f64, 8 bytes f32), plus the terms and a
  // fixed allowance for the plan/object headers.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t amp = amplitude_bytes(prec);
  if (states > (kMax - 8) / amp) return kMax;
  const std::uint64_t per_amp = 8 + states * amp;
  const std::uint64_t fixed = num_terms * sizeof(Term) + 4096;
  // The wire admits up to 63 qubits: saturate instead of wrapping.
  if (num_qubits >= 64 ||
      (std::uint64_t{1} << num_qubits) > (kMax - fixed) / per_amp)
    return kMax;
  return (std::uint64_t{1} << num_qubits) * per_amp + fixed;
}

std::uint64_t session_footprint_bytes(const api::ProblemSession& session) {
  const int n = session.terms().num_qubits();
  const Precision prec = session.simulator().precision();
  std::uint64_t bytes = session_footprint_bytes(
      n, session.terms().size(), prec, session.batch().pool_size());
  if (const auto* fur =
          dynamic_cast<const FurQaoaSimulator*>(&session.simulator())) {
    bytes += fur->layer_plan().passes().size() * sizeof(pipeline::LayerPass);
    if (fur->config().use_u16) {
      const std::uint64_t dim = std::uint64_t{1} << n;
      // uint16 code per amplitude, plus the 65536-entry phase-factor
      // table rebuilt per gamma at the amplitude precision.
      bytes += dim * 2 + std::uint64_t{65536} * amplitude_bytes(prec);
    }
  }
  return bytes;
}

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    release();
    cache_ = std::exchange(other.cache_, nullptr);
    key_ = std::exchange(other.key_, 0);
    session_ = std::exchange(other.session_, nullptr);
    hit_ = std::exchange(other.hit_, false);
  }
  return *this;
}

void SessionLease::release() {
  if (cache_ != nullptr) cache_->check_in(key_);
  cache_ = nullptr;
  session_ = nullptr;
}

SessionLease SessionCache::checkout(const TermList& terms,
                                    const SimulatorSpec& spec) {
  static const obs::Counter hit_count =
      obs::counter("qokit_serve_cache_hits_total");
  static const obs::Counter miss_count =
      obs::counter("qokit_serve_cache_misses_total");

  const std::uint64_t key = problem_key(terms, spec);
  MutexLock lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: fall through to build
    Entry& entry = it->second;
    if (entry.building || entry.checked_out) {
      // Someone is building or using this problem's session; wait for the
      // check-in (or the build's completion/failure) and re-examine.
      returned_.wait(lock);
      continue;
    }
    if (!same_problem(*entry.session, terms, spec)) {
      // 64-bit key collision with a different problem: evict the idle
      // occupant and rebuild for the requested one.
      bytes_ -= entry.bytes;
      ++evictions_;
      entries_.erase(it);
      break;
    }
    entry.checked_out = true;
    entry.last_used = ++tick_;
    ++hits_;
    hit_count.add();
    return SessionLease(this, key, entry.session.get(), /*hit=*/true);
  }

  // Reserve the slot so concurrent requests for the same problem wait for
  // this build instead of duplicating the precompute, then build unlocked.
  Entry& reserved = entries_[key];
  reserved.building = true;
  reserved.checked_out = true;
  reserved.last_used = ++tick_;
  ++misses_;
  miss_count.add();
  lock.unlock();

  std::unique_ptr<api::ProblemSession> built;
  try {
    built = std::make_unique<api::ProblemSession>(terms, spec);
  } catch (...) {
    lock.lock();
    entries_.erase(key);
    publish_gauges_locked();
    lock.unlock();
    returned_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[key];  // re-find: the map may have rehashed
  entry.session = std::move(built);
  entry.bytes = session_footprint_bytes(*entry.session);
  entry.building = false;
  bytes_ += entry.bytes;
  evict_lru_locked();
  api::ProblemSession* session = entry.session.get();
  publish_gauges_locked();
  lock.unlock();
  // Waiters blocked on a different key's eviction-freed budget don't
  // exist (waits are per check-in), but same-key waiters must re-examine.
  returned_.notify_all();
  return SessionLease(this, key, session, /*hit=*/false);
}

void SessionCache::check_in(std::uint64_t key) {
  {
    const MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.checked_out = false;
      it->second.last_used = ++tick_;
    }
    evict_lru_locked();
    publish_gauges_locked();
  }
  returned_.notify_all();
}

void SessionCache::evict_lru_locked() {
  static const obs::Counter eviction_count =
      obs::counter("qokit_serve_cache_evictions_total");
  while (bytes_ > budget_) {
    auto victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = it->second;
      if (entry.checked_out || entry.building) continue;
      if (entry.last_used < oldest) {
        oldest = entry.last_used;
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything resident is in use
    bytes_ -= victim->second.bytes;
    ++evictions_;
    eviction_count.add();
    entries_.erase(victim);
  }
}

void SessionCache::publish_gauges_locked() const {
  static const obs::Gauge bytes_gauge =
      obs::gauge("qokit_serve_cache_bytes");
  static const obs::Gauge sessions_gauge =
      obs::gauge("qokit_serve_cache_sessions");
  bytes_gauge.set(static_cast<double>(bytes_));
  sessions_gauge.set(static_cast<double>(entries_.size()));
}

SessionCache::Stats SessionCache::stats() const {
  const MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.sessions = entries_.size();
  return s;
}

}  // namespace qokit::serve
