#include "dist/communicator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace qokit {
namespace {

using detail::WorldState;

/// Barrier arrival that accumulates this rank's wait time into *wait_ns
/// when observability is on (wait_ns == nullptr otherwise — the barrier
/// call itself is then untouched).
void barrier_wait(WorldState& st, std::uint64_t* wait_ns) {
  if (!wait_ns) {
    st.barrier.arrive_and_wait();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  st.barrier.arrive_and_wait();
  *wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// alltoall instrumentation: calls / exchanged bytes / barrier rounds
/// counters plus a histogram of the time a rank waited at barriers (the
/// load-imbalance signal).
struct AlltoallMetrics {
  obs::Counter calls = obs::counter("qokit_alltoall_calls_total");
  obs::Counter bytes = obs::counter("qokit_alltoall_bytes_total");
  obs::Counter rounds = obs::counter("qokit_alltoall_rounds_total");
  obs::Histogram wait_ns = obs::histogram("qokit_alltoall_wait_ns");
};

const AlltoallMetrics& alltoall_metrics() {
  static const AlltoallMetrics metrics;
  return metrics;
}

/// Pairwise exchange (the cuStateVec-style GPU p2p model): K-1 XOR-
/// scheduled rounds of direct block swaps. In round s the pair (r, r^s)
/// swaps r's block r^s with (r^s)'s block r; the lower rank performs the
/// swap while the higher one holds at the round barrier. Each block is
/// touched in exactly one round, so the rounds compose into the full
/// transpose with a single copy per element and no scratch memory. The
/// exchanged bytes are charged at the element width.
template <class C>
void alltoall_pairwise(WorldState& st, int rank, C* buf, std::uint64_t block) {
  const int k = st.size;
  if (k == 1) return;  // self-exchange is the identity
  const bool observed = obs::enabled();
  obs::Span span("alltoall");
  std::uint64_t wait_acc = 0;
  std::uint64_t* wait_ns = nullptr;
  const AlltoallMetrics* m = nullptr;
  if (observed) {
    const std::uint64_t xfer_bytes =
        static_cast<std::uint64_t>(k) * block * sizeof(C);
    m = &alltoall_metrics();
    m->calls.add();
    m->bytes.add(xfer_bytes);
    m->rounds.add(static_cast<std::uint64_t>(k - 1));
    span.attr("bytes", xfer_bytes);
    span.attr("ranks", k);
    wait_ns = &wait_acc;
  }
  st.windows[rank] = buf;
  barrier_wait(st, wait_ns);
  for (int s = 1; s < k; ++s) {
    // A peer that threw never (re)published its window; abandon the
    // exchange rather than swap through a stale or null pointer. run()
    // re-throws the peer's exception once the team joins.
    if (st.failed.load(std::memory_order_acquire)) break;
    const int peer = rank ^ s;
    if (rank < peer) {
      C* mine = buf + static_cast<std::uint64_t>(peer) * block;
      C* theirs = static_cast<C*>(st.windows[peer]) +
                  static_cast<std::uint64_t>(rank) * block;
      std::swap_ranges(mine, mine + block, theirs);
    }
    barrier_wait(st, wait_ns);
  }
  if (observed) m->wait_ns.record(wait_acc);
}

}  // namespace

void Communicator::alltoall(cdouble* buf, std::uint64_t block) {
  alltoall_pairwise(*state_, rank_, buf, block);
}

void Communicator::alltoall(cfloat* buf, std::uint64_t block) {
  alltoall_pairwise(*state_, rank_, buf, block);
}

double Communicator::allreduce_sum(double value) {
  static const obs::Counter allreduces =
      obs::counter("qokit_allreduce_total");
  allreduces.add();
  auto& st = *state_;
  st.reduce_slots[rank_] = value;
  st.barrier.arrive_and_wait();
  // Every rank sums in rank order, so all ranks see the identical total
  // regardless of thread scheduling.
  double total = 0.0;
  for (int r = 0; r < st.size; ++r) total += st.reduce_slots[r];
  // Exit barrier so the slots can be re-published immediately afterwards.
  st.barrier.arrive_and_wait();
  return total;
}

VirtualRankWorld::VirtualRankWorld(int size) : size_(size) {
  if (size < 1 || !std::has_single_bit(static_cast<unsigned>(size)))
    throw std::invalid_argument(
        "VirtualRankWorld: rank count must be a power of two >= 1, got " +
        std::to_string(size));
  if (size > kMaxRanks)
    throw std::invalid_argument("VirtualRankWorld: " + std::to_string(size) +
                                " ranks exceed the cap of " +
                                std::to_string(kMaxRanks));
}

void VirtualRankWorld::run(const std::function<void(Communicator&)>& fn)
    const {
  detail::WorldState state(size_);

  if (size_ == 1) {
    // Single rank: run inline; barriers over a one-thread team are no-ops
    // and exceptions propagate naturally.
    Communicator comm(0, &state);
    fn(comm);
    return;
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r)
    team.emplace_back([&, r] {
      Communicator comm(r, &state);
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
        // Mark the world failed, then leave the barrier so surviving
        // ranks are released rather than deadlocked; they observe the
        // flag at their next barrier and abandon any exchange in flight.
        state.failed.store(true, std::memory_order_release);
        state.barrier.arrive_and_drop();
      }
    });
  for (auto& t : team) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace qokit
