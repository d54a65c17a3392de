// Cache-line-aligned storage for state vectors and cost vectors.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace qokit {

namespace detail {
/// Running count and byte total of AlignedAllocator::allocate calls. The
/// scratch-reuse regression tests read them to pin that the hot
/// evaluation loops perform zero steady-state statevector allocations and
/// that a session's buffers stay within its serve footprint; two relaxed
/// increments per 2^n-element allocation are free next to the allocation.
inline std::atomic<std::uint64_t> aligned_alloc_count{0};
inline std::atomic<std::uint64_t> aligned_alloc_bytes{0};
}  // namespace detail

/// Total AlignedAllocator::allocate calls so far in this process.
inline std::uint64_t aligned_allocation_count() {
  return detail::aligned_alloc_count.load(std::memory_order_relaxed);
}

/// Total bytes those calls requested (before alignment rounding).
inline std::uint64_t aligned_allocation_bytes() {
  return detail::aligned_alloc_bytes.load(std::memory_order_relaxed);
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
    detail::aligned_alloc_bytes.fetch_add(n * sizeof(T),
                                          std::memory_order_relaxed);
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
