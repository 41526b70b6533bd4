// Pooled allocation for the Time Warp hot path.
//
// Optimistic execution allocates and frees at event rate: every received
// event becomes an input-queue node — and fossil collection frees them again
// in bulk once GVT passes. Routing that churn through the global heap costs
// a lock-shared malloc/free pair per event and scatters queue nodes across
// the address space. (Checkpoints need no pool: they are byte images in the
// checkpoint store's own ring, checkpoint_store.hpp.) The pool here exploits
// the Time Warp-specific structure:
//
//  * allocation is single-threaded per LP (each LP's queues are touched only
//    by the thread currently running that LP), so SlabPool needs no locks;
//  * block sizes are drawn from a tiny fixed set (input-queue nodes), so
//    power-of-two size classes with per-class freelists recycle every
//    fossil-collected block into the next event's allocation;
//  * freed memory is reused, never returned: a pool's footprint is the
//    high-water mark of live blocks, which is exactly the quantity the
//    pressure controller (core/pressure_controller.hpp) bounds.
//
// Two cooperating pieces:
//
//  * SlabPool — bump-allocated slabs + per-size-class freelists. Not
//    thread-safe; owned by one LP and used by its queues.
//  * PoolAllocator<T> — std::allocator adapter so node-based containers
//    (the input queue's multiset) draw their nodes from a SlabPool. A null
//    pool falls back to the global heap, so default-constructed containers
//    keep working in isolation tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "otw/util/assert.hpp"

namespace otw::tw {

/// Counters a SlabPool maintains. `live_blocks` is exact (allocations minus
/// deallocations, including oversize); `slab_bytes` is the pool's resident
/// footprint — it never shrinks, which makes it the honest number to charge
/// against a memory budget.
struct PoolStats {
  std::uint64_t allocations = 0;     ///< total allocate() calls
  std::uint64_t freelist_hits = 0;   ///< allocations served by recycling
  std::uint64_t oversize = 0;        ///< allocations above the largest class
  std::uint64_t slab_bytes = 0;      ///< bytes reserved in slabs (never shrinks)
  std::uint64_t live_blocks = 0;     ///< currently allocated blocks
  std::uint64_t peak_live_blocks = 0;///< high-water mark of live_blocks
};

/// Slab allocator with power-of-two size classes (64..4096 bytes).
///
/// allocate(n) rounds n up to its class and serves it from the class
/// freelist, else bumps the current slab, else reserves a new slab. Blocks
/// larger than the largest class go to ::operator new (counted in
/// stats().oversize). deallocate(p, n) must receive the same n as the
/// matching allocate and never throws. All freed memory is recycled, none is
/// returned to the heap before the pool is destroyed.
///
/// NOT thread-safe: a SlabPool belongs to one LP and is only touched by the
/// thread currently stepping that LP (the same exclusion that protects the
/// LP's queues).
class SlabPool {
 public:
  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = 4096;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool();

  /// Storage for at least `size` bytes, aligned for any object of that size
  /// (blocks are at least 64 bytes and slab bases are max_align_t-aligned).
  [[nodiscard]] void* allocate(std::size_t size);

  /// Returns a block to its class freelist. `size` must equal the size
  /// passed to the matching allocate().
  void deallocate(void* ptr, std::size_t size) noexcept;

  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t class_index(std::size_t size) noexcept;
  static std::size_t class_block_size(std::size_t index) noexcept;
  static constexpr std::size_t kNumClasses = 7;  // 64,128,...,4096

  void* bump_allocate(std::size_t index);

  FreeNode* freelists_[kNumClasses] = {};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* bump_ = nullptr;  // next free byte in the current slab
  std::byte* bump_end_ = nullptr;
  PoolStats stats_;
};

/// std::allocator adapter over a SlabPool, for node-based containers.
///
/// Single-element allocations (container nodes) go to the pool; array
/// allocations and a null pool fall back to the global heap. Two allocators
/// compare equal iff they share the pool, so containers with the same pool
/// can splice/swap. The pool must outlive every container using it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  explicit PoolAllocator(SlabPool* pool) noexcept : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) noexcept : pool_(other.pool()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (pool_ != nullptr && n == 1) {
      return static_cast<T*>(pool_->allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* ptr, std::size_t n) noexcept {
    if (pool_ != nullptr && n == 1) {
      pool_->deallocate(ptr, sizeof(T));
      return;
    }
    ::operator delete(ptr);
  }

  [[nodiscard]] SlabPool* pool() const noexcept { return pool_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const noexcept {
    return pool_ == other.pool();
  }

 private:
  SlabPool* pool_ = nullptr;
};

}  // namespace otw::tw
