#include "otw/tw/checkpoint_store.hpp"

#include <cstring>

#include "otw/util/assert.hpp"

namespace otw::tw {

namespace {

const std::byte* flat_bytes(const ObjectState& state) {
  const std::byte* raw = state.raw_bytes();
  OTW_REQUIRE_MSG(raw != nullptr,
                  "checkpointing needs a flat state (ObjectState::raw_bytes)");
  return raw;
}

/// Copies `size` saved bytes over `into`, which must match them in size.
void write_into(ObjectState& into, const std::byte* bytes, std::size_t size) {
  std::byte* dst = into.mutable_raw_bytes();
  OTW_REQUIRE_MSG(dst != nullptr && into.byte_size() == size,
                  "a checkpoint restores only into a flat state of its size");
  std::memcpy(dst, bytes, size);
}

}  // namespace

// ------------------------------------------------------------------ Copy --

void CopyCheckpointStore::grow() {
  const std::size_t capacity = capacity_ < 4 ? 4 : capacity_ + capacity_ / 2;
  auto images = std::make_unique_for_overwrite<std::byte[]>(capacity * slot_bytes_);
  std::vector<Position> positions(capacity);
  for (std::size_t i = 0; i < count_; ++i) {
    positions[i] = positions_[slot(i)];
    std::memcpy(images.get() + i * slot_bytes_, image(slot(i)), slot_bytes_);
  }
  images_ = std::move(images);
  positions_ = std::move(positions);
  capacity_ = capacity;
  head_ = 0;
}

SaveReceipt CopyCheckpointStore::save(const Position& pos,
                                      const ObjectState& current) {
  OTW_REQUIRE_MSG(count_ == 0 || positions_[slot(count_ - 1)] < pos,
                  "checkpoint positions must be strictly increasing");
  const std::byte* raw = flat_bytes(current);
  const std::size_t size = current.byte_size();
  if (capacity_ == 0) {
    slot_bytes_ = size;
  }
  OTW_REQUIRE_MSG(size == slot_bytes_,
                  "checkpointing needs a fixed-size state");
  if (count_ == capacity_) {
    grow();
  }
  const std::size_t tail = slot(count_);
  positions_[tail] = pos;
  std::memcpy(image(tail), raw, size);
  ++count_;
  return SaveReceipt{0, size};
}

Position CopyCheckpointStore::restore_before(const Position& target,
                                             ObjectState& into) {
  while (count_ > 0 && !(positions_[slot(count_ - 1)] < target)) {
    --count_;
  }
  OTW_REQUIRE_MSG(count_ > 0, "no checkpoint to roll back to");
  const std::size_t keeper = slot(count_ - 1);
  write_into(into, image(keeper), slot_bytes_);
  return positions_[keeper];
}

Position CopyCheckpointStore::fossil_collect(VirtualTime gvt) {
  OTW_REQUIRE(count_ > 0);
  // The latest checkpoint strictly before gvt stays, everything older goes.
  // When even the oldest is at/after gvt, nothing is collectable and the
  // scan stops at it all the same.
  std::size_t keeper = count_ - 1;
  while (keeper > 0 && !(positions_[slot(keeper)].recv_time() < gvt)) {
    --keeper;
  }
  head_ = slot(keeper);
  count_ -= keeper;
  return positions_[head_];
}

// ----------------------------------------------------------- Incremental --

IncrementalCheckpointStore::IncrementalCheckpointStore(
    std::uint32_t full_snapshot_interval)
    : full_snapshot_interval_(full_snapshot_interval) {
  OTW_REQUIRE(full_snapshot_interval >= 1);
}

void IncrementalCheckpointStore::retire_entry(const Entry& entry) noexcept {
  stored_delta_bytes_ -= entry.changes.size() * sizeof(Change);
  snapshot_bytes_ -= entry.image.size();
}

SaveReceipt IncrementalCheckpointStore::save(const Position& pos,
                                             const ObjectState& current) {
  OTW_REQUIRE_MSG(entries_.empty() || entries_.back().pos < pos,
                  "checkpoint positions must be strictly increasing");
  const std::byte* raw = flat_bytes(current);
  const std::size_t size = current.byte_size();
  OTW_REQUIRE_MSG(entries_.empty() || size == shadow_.size(),
                  "checkpointing needs a fixed-size state");

  if (entries_.empty() || saves_since_full_ >= full_snapshot_interval_) {
    // Full snapshot; it also becomes the diff base.
    shadow_.assign(raw, raw + size);
    entries_.push_back(Entry{pos, true, shadow_, {}});
    snapshot_bytes_ += size;
    saves_since_full_ = 1;
    return SaveReceipt{0, size};
  }

  Entry entry;
  entry.pos = pos;
  for (std::size_t i = 0; i < size; ++i) {
    if (shadow_[i] != raw[i]) {
      entry.changes.push_back(Change{static_cast<std::uint32_t>(i), raw[i]});
      shadow_[i] = raw[i];  // the shadow always mirrors the last saved state
    }
  }
  const std::uint64_t stored = entry.changes.size() * sizeof(Change);
  stored_delta_bytes_ += stored;
  entries_.push_back(std::move(entry));
  ++saves_since_full_;
  return SaveReceipt{size, stored};
}

Position IncrementalCheckpointStore::restore_before(const Position& target,
                                                    ObjectState& into) {
  while (!entries_.empty() && !(entries_.back().pos < target)) {
    retire_entry(entries_.back());
    entries_.pop_back();
  }
  OTW_REQUIRE_MSG(!entries_.empty(), "no checkpoint to roll back to");

  // Rebuild the latest entry in the shadow: walk back to the nearest full
  // snapshot, then roll the deltas forward. The shadow must mirror the last
  // SAVED state so the next delta is computed against the right base; the
  // truncated chain itself stays sound (its prefix is intact), so only the
  // snapshot cadence is recomputed.
  std::size_t base = entries_.size() - 1;
  while (!entries_[base].full) {
    OTW_ASSERT(base > 0);
    --base;
  }
  shadow_ = entries_[base].image;
  for (std::size_t i = base + 1; i < entries_.size(); ++i) {
    for (const Change& change : entries_[i].changes) {
      shadow_[change.offset] = change.value;
    }
  }
  saves_since_full_ = static_cast<std::uint32_t>(entries_.size() - base);
  write_into(into, shadow_.data(), shadow_.size());
  return entries_.back().pos;
}

Position IncrementalCheckpointStore::fossil_collect(VirtualTime gvt) {
  OTW_REQUIRE(!entries_.empty());
  std::size_t keeper = entries_.size() - 1;
  while (keeper > 0 && !(entries_[keeper].pos.recv_time() < gvt)) {
    --keeper;
  }
  // Retain back to the snapshot the keeper reconstructs from.
  std::size_t floor = keeper;
  while (!entries_[floor].full) {
    OTW_ASSERT(floor > 0);
    --floor;
  }
  for (std::size_t i = 0; i < floor; ++i) {
    retire_entry(entries_[i]);
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(floor));
  return entries_[keeper - floor].pos;
}

std::unique_ptr<CheckpointStore> make_checkpoint_store(
    StateSaving mode, std::uint32_t full_snapshot_interval) {
  switch (mode) {
    case StateSaving::Copy:
      return std::make_unique<CopyCheckpointStore>();
    case StateSaving::Incremental:
      return std::make_unique<IncrementalCheckpointStore>(full_snapshot_interval);
  }
  return nullptr;
}

}  // namespace otw::tw
