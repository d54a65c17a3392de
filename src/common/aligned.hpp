// Cache-line-aligned storage for state vectors and cost vectors, and the
// one place that maps 2^n buffers from the OS and advises their pages
// (the qokit_lint `os-mapping` rule keeps mmap/munmap/madvise here).
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace qokit {

namespace detail {
/// Running count and byte totals of AlignedAllocator blocks. The
/// scratch-reuse regression tests read them to pin that the hot
/// evaluation loops perform zero steady-state statevector allocations,
/// that a session's buffers stay within its serve footprint, and that
/// every block is given back (LeakSanitizer does not see mapped blocks);
/// a few relaxed atomics per 2^n-element block are free next to it.
inline std::atomic<std::uint64_t> aligned_alloc_count{0};
inline std::atomic<std::uint64_t> aligned_alloc_bytes{0};
inline std::atomic<std::uint64_t> aligned_live{0};
}  // namespace detail

/// Total AlignedAllocator::allocate calls so far in this process.
inline std::uint64_t aligned_allocation_count() {
  return detail::aligned_alloc_count.load(std::memory_order_relaxed);
}

/// Total bytes those calls requested (before alignment rounding).
inline std::uint64_t aligned_allocation_bytes() {
  return detail::aligned_alloc_bytes.load(std::memory_order_relaxed);
}

/// Bytes allocated and not yet freed: the leak check for mapped blocks.
inline std::uint64_t aligned_live_bytes() {
  return detail::aligned_live.load(std::memory_order_relaxed);
}

/// What a buffer is for, which fixes the page advice of a mapped block.
enum class PageUse {
  /// States, pool slots and everything else: kept on 4 KiB pages
  /// (MADV_NOHUGEPAGE), whatever the host's THP mode. The strided mixer
  /// passes read 64 rows 2^q apart; on 2 MiB pages those rows share L2
  /// sets (DESIGN.md "Buffers from the OS").
  Strided,
  /// Cost diagonals and their codes, only ever streamed front to back:
  /// 2 MiB pages (MADV_HUGEPAGE) take their first touch off the 4 KiB
  /// page-fault path.
  Streamed,
};

/// Blocks of at least this many bytes are mapped with mmap and returned
/// with munmap: the SK-16 diagonal (512 KiB) and every larger 2^n buffer.
/// Their pages go back to the OS on free instead of into the heap.
inline constexpr std::size_t kMapThreshold = std::size_t{1} << 19;

/// Allocator returning 64-byte aligned memory so that SIMD loads in the hot
/// kernels never straddle cache lines and false sharing between OpenMP
/// threads is avoided at chunk boundaries. Blocks of kMapThreshold bytes or
/// more come straight from the OS (page aligned, advised by `Use`);
/// smaller ones from aligned_alloc.
///
/// construct() with no arguments default-initializes, so resizing a
/// vector of a trivial type leaves the new elements unwritten: the kernel
/// that fills a 2^n buffer is the first to touch its pages.
template <class T, PageUse Use = PageUse::Strided>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind: allocator_traits cannot infer it because of the
  /// non-type Use parameter.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Use>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Use>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    void* p = bytes >= kMapThreshold
                  ? map(bytes)
                  : std::aligned_alloc(kAlignment, round_up(bytes));
    if (!p) throw std::bad_alloc();
    detail::aligned_alloc_count.fetch_add(1, std::memory_order_relaxed);
    detail::aligned_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
    detail::aligned_live.fetch_add(bytes, std::memory_order_relaxed);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    // munmap fails only on a range this allocator did not map.
    if (bytes >= kMapThreshold)
      (void)::munmap(p, bytes);
    else
      std::free(p);
    detail::aligned_live.fetch_sub(bytes, std::memory_order_relaxed);
  }

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Use>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t kAlignment = 64;

  static std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  /// A fresh anonymous mapping (zero pages, none resident yet), or null.
  /// The advice is a hint: a kernel without THP, or set to `never`,
  /// refuses it, and the block works the same on whatever pages it gets.
  static void* map(std::size_t bytes) noexcept {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    // NOLINTNEXTLINE(performance-no-int-to-ptr,cppcoreguidelines-pro-type-cstyle-cast): MAP_FAILED is libc's ((void*)-1)
    if (p == MAP_FAILED) return nullptr;
#if defined(MADV_HUGEPAGE) && defined(MADV_NOHUGEPAGE)
    (void)::madvise(p, bytes,
                    Use == PageUse::Streamed ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
#endif
    return p;
  }
};

/// Vector with 64-byte aligned backing store; `Use` picks the page advice
/// of a mapped block.
template <class T, PageUse Use = PageUse::Strided>
using aligned_vector = std::vector<T, AlignedAllocator<T, Use>>;

}  // namespace qokit
