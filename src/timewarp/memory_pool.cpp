#include "otw/tw/memory_pool.hpp"

#include <algorithm>
#include <bit>

namespace otw::tw {

SlabPool::~SlabPool() = default;

std::size_t SlabPool::class_index(std::size_t size) noexcept {
  const std::size_t clamped = std::max(size, kMinBlock);
  // 64 -> 0, 65..128 -> 1, ..., 2049..4096 -> 6.
  return static_cast<std::size_t>(std::bit_width(clamped - 1)) - 6;
}

std::size_t SlabPool::class_block_size(std::size_t index) noexcept {
  return kMinBlock << index;
}

void* SlabPool::allocate(std::size_t size) {
  ++stats_.allocations;
  ++stats_.live_blocks;
  stats_.peak_live_blocks = std::max(stats_.peak_live_blocks, stats_.live_blocks);
  if (size > kMaxBlock) {
    ++stats_.oversize;
    return ::operator new(size);
  }
  const std::size_t index = class_index(size);
  if (FreeNode* node = freelists_[index]; node != nullptr) {
    freelists_[index] = node->next;
    ++stats_.freelist_hits;
    return node;
  }
  return bump_allocate(index);
}

void* SlabPool::bump_allocate(std::size_t index) {
  const std::size_t block = class_block_size(index);
  if (static_cast<std::size_t>(bump_end_ - bump_) < block) {
    // New slab: at least 16 blocks of this class so the bump region
    // amortizes, never below 16 KiB so small classes batch well.
    const std::size_t slab_size = std::max<std::size_t>(block * 16, 16384);
    slabs_.push_back(std::make_unique<std::byte[]>(slab_size));
    bump_ = slabs_.back().get();
    bump_end_ = bump_ + slab_size;
    stats_.slab_bytes += slab_size;
  }
  std::byte* ptr = bump_;
  bump_ += block;
  return ptr;
}

void SlabPool::deallocate(void* ptr, std::size_t size) noexcept {
  if (ptr == nullptr) {
    return;
  }
  OTW_REQUIRE_MSG(stats_.live_blocks > 0,
                  "SlabPool::deallocate without allocate");
  --stats_.live_blocks;
  if (size > kMaxBlock) {
    ::operator delete(ptr);
    return;
  }
  const std::size_t index = class_index(size);
  auto* node = static_cast<FreeNode*>(ptr);
  node->next = freelists_[index];
  freelists_[index] = node;
}

}  // namespace otw::tw
