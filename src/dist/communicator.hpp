// Virtual-rank execution world for the distributed simulator (paper
// Sec. III-C). K virtual ranks stand in for the paper's GPUs/MPI ranks:
// each rank is a thread owning one 2^(n - log2 K)-amplitude slice of the
// state vector, and cross-rank traffic goes through the Communicator's
// collectives exactly where a production deployment would place
// MPI_Alltoall / cuStateVec p2p calls (see DESIGN.md for the mapping).
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <vector>

#include "statevector/state.hpp"

namespace qokit {

/// Largest rank count a world accepts. Every VirtualRankWorld::run starts
/// one thread per rank, so the count is capped before any thread starts.
inline constexpr int kMaxRanks = 64;

namespace detail {

/// Shared state of one world.run() invocation: the rendezvous barrier plus
/// the exchange windows ranks publish into. Everything cross-thread is
/// synchronized by the barrier (arrive_and_wait has acquire/release
/// semantics), so the raw pointers need no atomics. Deliberately
/// mutex-free: there is nothing here for common/sync.hpp to wrap, and
/// tools/lint/qokit_lint.py keeps it that way -- a future transport that
/// needs a lock (MPI progress thread, socket send queue) must take an
/// annotated qokit::Mutex so its discipline is compiler-checked from day
/// one.
struct WorldState {
  explicit WorldState(int size)
      : size(size),
        barrier(size),
        windows(static_cast<std::size_t>(size), nullptr),
        reduce_slots(static_cast<std::size_t>(size), 0.0) {}

  const int size;
  std::barrier<> barrier;
  /// Per-rank published pointer: each rank's live buffer during an
  /// exchange. Untyped because an exchange moves whatever amplitude scalar
  /// the collective was called with (complex128 or complex64); all ranks
  /// of one exchange publish the same element type, restored by alltoall
  /// before dereferencing.
  std::vector<void*> windows;
  /// Per-rank slots for allreduce_sum.
  std::vector<double> reduce_slots;
  /// Set (before arrive_and_drop) by a rank whose closure threw. alltoall
  /// checks it after every barrier and bails out so survivors never
  /// dereference a dead rank's window; run() re-throws the original
  /// exception after the join.
  std::atomic<bool> failed{false};
};

}  // namespace detail

/// Per-rank handle passed to the closure of VirtualRankWorld::run. Mirrors
/// the slice of an MPI communicator a rank would see: identity, barrier,
/// and the two collectives Algorithm 4 needs.
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return state_->size; }

  /// Block until every rank has arrived.
  void barrier() { state_->barrier.arrive_and_wait(); }

  /// Sum `value` over all ranks; every rank receives the same total
  /// (summed in rank order, so the result is scheduling-independent).
  /// Safe to call repeatedly back-to-back.
  double allreduce_sum(double value);

  /// In-place block exchange over `buf`, which holds size() blocks of
  /// `block` complex amplitudes. Afterwards block b holds what rank b held
  /// in block rank(): the transpose that implements the paper's
  /// global<->local qubit reordering. All ranks must call collectively
  /// with the same `block` and the same element type (the f32 overload
  /// moves half the bytes — the distributed path's share of the
  /// mixed-precision bandwidth win). The transport is pairwise: K - 1
  /// XOR-scheduled rounds of direct block swaps between the live
  /// buffers, one copy per element and no staging memory.
  void alltoall(cdouble* buf, std::uint64_t block);
  void alltoall(cfloat* buf, std::uint64_t block);

 private:
  friend class VirtualRankWorld;
  Communicator(int rank, detail::WorldState* state)
      : rank_(rank), state_(state) {}

  int rank_;
  detail::WorldState* state_;
};

/// K virtual ranks (threads) executing one SPMD closure, K a power of two.
/// run() may be invoked any number of times; each invocation spawns a
/// fresh team with barrier semantics and joins it before returning. An
/// exception thrown by any rank is re-thrown (first rank wins) after the
/// team joins.
class VirtualRankWorld {
 public:
  /// Throws std::invalid_argument unless `size` is a power of two in
  /// [1, kMaxRanks].
  explicit VirtualRankWorld(int size);

  int size() const noexcept { return size_; }

  /// Execute `fn` once per rank, in parallel, and join.
  void run(const std::function<void(Communicator&)>& fn) const;

 private:
  int size_;
};

}  // namespace qokit
