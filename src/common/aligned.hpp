// Cache-line-aligned storage for state vectors and cost vectors.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/parallel.hpp"

namespace qokit {

namespace detail {
/// Running count of AlignedAllocator::allocate calls. The scratch-reuse
/// regression tests read it to pin that the hot evaluation loops perform
/// zero steady-state statevector allocations; one relaxed increment per
/// 2^n-element allocation is free next to the allocation itself.
inline std::atomic<std::uint64_t> aligned_alloc_count{0};

/// NUMA first-touch switch (see set_first_touch_enabled). Process-global
/// and sticky: make_simulator turns it on once when the machine probe
/// finds more than one NUMA node, and it stays on — page placement is a
/// one-way optimization, and flapping it per-simulator would scatter pages.
inline std::atomic<bool> first_touch_enabled{false};

/// Allocations at least this large get the parallel first-touch pass.
/// Below 1 MiB a state fits one node's L2/L3 anyway and the OpenMP team
/// dispatch would cost more than remote-node traffic.
inline constexpr std::size_t kFirstTouchMinBytes = std::size_t{1} << 20;
inline constexpr std::size_t kFirstTouchPageBytes = 4096;
}  // namespace detail

/// Total AlignedAllocator::allocate calls so far in this process.
inline std::uint64_t aligned_allocation_count() {
  return detail::aligned_alloc_count.load(std::memory_order_relaxed);
}

/// Enable (or disable — tests only) parallel first-touch initialization
/// of large aligned allocations. When on, AlignedAllocator writes one
/// byte per page from a statically-scheduled parallel loop before the
/// container's own initialization runs, so on NUMA machines each page is
/// faulted in on (and therefore placed near) the thread that will sweep
/// it: the pipeline's for_units dispatch uses the same static schedule,
/// binding tile passes to the threads that touched those pages. Touched
/// bytes are immediately overwritten by value-initialization; results are
/// bit-identical with the switch on or off, at any thread count.
inline void set_first_touch_enabled(bool on) {
  detail::first_touch_enabled.store(on, std::memory_order_relaxed);
}

/// Current state of the first-touch switch.
inline bool first_touch_enabled() {
  return detail::first_touch_enabled.load(std::memory_order_relaxed);
}

/// Allocator returning 64-byte aligned memory so that SIMD loads in the hot
/// kernels never straddle cache lines and false sharing between OpenMP
/// threads is avoided at chunk boundaries.
template <class T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind: allocator_traits cannot infer it because of the
  /// non-type Alignment parameter.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = round_up(n * sizeof(T));
    void* p = std::aligned_alloc(Alignment, bytes);
    if (!p) throw std::bad_alloc();
    detail::aligned_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (detail::first_touch_enabled.load(std::memory_order_relaxed) &&
        bytes >= detail::kFirstTouchMinBytes) {
      // NUMA first-touch: fault every page in from a static parallel
      // loop before the container initializes the memory, so pages land
      // on the nodes of the threads that will sweep them (see
      // set_first_touch_enabled). The zeros written here are overwritten
      // by the caller's initialization — placement-only, bit-identical.
      auto* base = static_cast<unsigned char*>(p);
      const auto pages = static_cast<std::int64_t>(
          bytes / detail::kFirstTouchPageBytes);
      QOKIT_OMP_PRAGMA(omp parallel for schedule(static))
      for (std::int64_t page = 0; page < pages; ++page)
        base[static_cast<std::size_t>(page) *
             detail::kFirstTouchPageBytes] = 0;
    }
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }

 private:
  static std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Alignment - 1) / Alignment * Alignment;
  }
};

/// Vector with 64-byte aligned backing store.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace qokit
