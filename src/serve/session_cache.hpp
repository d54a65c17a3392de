// Session cache: the amortization store behind the schedule server.
//
// The paper's economics -- one diagonal precompute amortized over
// thousands of (gamma, beta) evaluations -- only reaches a serving
// workload if the precompute survives between requests. SessionCache keeps
// ProblemSessions alive across requests, keyed by a hash of (terms, spec),
// and solves the two problems that raises:
//
//  - Exclusivity. ProblemSession is single-caller (its scratch buffers are
//    per-instance; see api/session.hpp). checkout() therefore hands out an
//    exclusive SessionLease: while one lease is live, a second checkout of
//    the same problem BLOCKS until the lease is returned. Distinct
//    problems proceed in parallel.
//  - Bounded memory. Sessions are 2^n-amplitude objects; the cache evicts
//    least-recently-used idle sessions whenever the footprint estimate
//    exceeds the byte budget. Checked-out (or still-building) sessions are
//    never evicted -- the budget can be transiently exceeded while every
//    resident session is in use, and is re-enforced at each check-in.
//
// A miss builds the session OUTSIDE the cache lock (the precompute is the
// expensive step; other problems must not stall behind it) while the
// reserved entry is marked `building` so concurrent requests for the same
// problem wait for the one build instead of duplicating it.
//
// Hit/miss/eviction counts flow into the obs registry
// (qokit_serve_cache_*); stats() exposes the same numbers without
// observability enabled.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "api/session.hpp"
#include "api/spec.hpp"
#include "common/sync.hpp"
#include "terms/term.hpp"

namespace qokit::serve {

/// Cache key: FNV-1a over the qubit count, every term's (weight, mask)
/// bits, and the spec's canonical spelling. Equal problems under equal
/// specs collide on purpose; a 64-bit accidental collision is detected at
/// checkout by comparing the stored session's terms/spec and handled by
/// rebuilding (correctness never rests on the hash).
std::uint64_t problem_key(const TermList& terms, const SimulatorSpec& spec);

/// Footprint estimate used against the byte budget: the 2^n-sized buffers
/// a session owns -- the f64 diagonal and `states` statevectors, one per
/// batch-pool slot it can fill (a session keeps no initial-state copy or
/// separate scalar scratch) -- plus its terms. The default of one state is
/// the smallest session there is, which admission charges. The
/// statevectors are charged at `prec`'s actual amplitude width (24 B/amp
/// per single-state f64 session, 16 at f32). Saturates at UINT64_MAX for
/// sizes no 64-bit count can hold.
std::uint64_t session_footprint_bytes(int num_qubits, std::size_t num_terms,
                                      Precision prec = Precision::F64,
                                      std::size_t states = 1);

/// Footprint of a *built* session: the estimate above with one state per
/// slot of the session's own pool (batch().pool_size(): one per thread
/// where an Outer batch can fill them, else one), plus the buffers only a
/// live session reveals -- the LayerPlan's pass schedule and, for
/// u16-diagonal specs, the uint16 code array and the per-gamma
/// 65536-entry phase-factor table. The cache charges this overload after
/// a build, so the LRU budget bounds what the cached sessions can
/// actually hold.
std::uint64_t session_footprint_bytes(const api::ProblemSession& session);

class SessionCache;

/// Exclusive handle on one cached ProblemSession. While live, no other
/// thread can check out the same problem; destruction (or release())
/// returns the session and wakes waiters. Movable, not copyable.
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&& other) noexcept { *this = std::move(other); }
  SessionLease& operator=(SessionLease&& other) noexcept;
  ~SessionLease() { release(); }

  api::ProblemSession& session() const { return *session_; }
  api::ProblemSession* operator->() const { return session_; }

  /// True when checkout found the session resident (no precompute paid).
  bool hit() const { return hit_; }

  explicit operator bool() const { return session_ != nullptr; }

  /// Return the session to the cache early (idempotent).
  void release();

 private:
  friend class SessionCache;
  SessionLease(SessionCache* cache, std::uint64_t key,
               api::ProblemSession* session, bool hit)
      : cache_(cache), key_(key), session_(session), hit_(hit) {}

  SessionCache* cache_ = nullptr;
  std::uint64_t key_ = 0;
  api::ProblemSession* session_ = nullptr;
  bool hit_ = false;
};

/// LRU-evicting, byte-budgeted store of ProblemSessions with exclusive
/// checkout. All public methods are safe to call from any thread.
class SessionCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< sessions built (precomputes paid)
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;       ///< resident footprint estimate
    std::uint64_t sessions = 0;    ///< resident session count
  };

  explicit SessionCache(std::uint64_t byte_budget)
      : budget_(byte_budget) {}

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// Obtain exclusive access to the session for (terms, spec), building it
  /// on a miss (the build runs outside the cache lock). Blocks while
  /// another thread holds the same problem's lease. Build failures
  /// propagate (std::invalid_argument for bad specs) and leave no residue.
  SessionLease checkout(const TermList& terms, const SimulatorSpec& spec)
      QOKIT_EXCLUDES(mu_);

  Stats stats() const QOKIT_EXCLUDES(mu_);

  std::uint64_t byte_budget() const noexcept { return budget_; }

 private:
  friend class SessionLease;

  struct Entry {
    std::unique_ptr<api::ProblemSession> session;  ///< null while building
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
    bool checked_out = false;
    bool building = false;
  };

  void check_in(std::uint64_t key) QOKIT_EXCLUDES(mu_);
  /// Evict idle LRU entries until bytes_ <= budget_ (or nothing idle is
  /// left).
  void evict_lru_locked() QOKIT_REQUIRES(mu_);
  void publish_gauges_locked() const QOKIT_REQUIRES(mu_);

  const std::uint64_t budget_;
  // mu_ is the cache capability: the entry map, the footprint/LRU
  // accounting, and the stats counters only change under it. The
  // checkout/lease protocol (checked_out / building flags) is inspected
  // and flipped exclusively inside these guarded members; the expensive
  // session build itself runs with mu_ released (see checkout()).
  mutable Mutex mu_;
  CondVar returned_;
  std::unordered_map<std::uint64_t, Entry> entries_ QOKIT_GUARDED_BY(mu_);
  std::uint64_t bytes_ QOKIT_GUARDED_BY(mu_) = 0;
  std::uint64_t tick_ QOKIT_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ QOKIT_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ QOKIT_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ QOKIT_GUARDED_BY(mu_) = 0;
};

}  // namespace qokit::serve
