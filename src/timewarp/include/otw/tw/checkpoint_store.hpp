// State-saving back-ends (cf. Fleischmann & Wilsey, PADS'95 — the paper's
// ref [7], which compares periodic COPY state saving with INCREMENTAL state
// saving).
//
//  * CopyCheckpointStore      — each checkpoint is a full byte image of the
//    object state in a ring of fixed-size slots (the kernel's default; a
//    save is one memcpy, cost ~ state size).
//  * IncrementalCheckpointStore — each checkpoint is a byte-level delta
//    against the previously saved state, with a full snapshot every
//    `full_snapshot_interval` saves to bound reconstruction chains. Cost ~
//    bytes actually CHANGED per event: a large-state object that touches a
//    few fields per event (e.g. the RAID fork controller) checkpoints almost
//    for free.
//
// Both need a flat, fixed-size state (ObjectState::raw_bytes) and implement
// the CheckpointStore interface ObjectRuntime drives; the dynamic
// checkpoint-interval controller composes with either.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "otw/tw/event.hpp"
#include "otw/tw/object.hpp"

namespace otw::tw {

enum class StateSaving : std::uint8_t { Copy, Incremental };

/// What one save() cost, in the cost model's terms.
struct SaveReceipt {
  /// Bytes scanned to compute the checkpoint (diffing; 0 for copy saves).
  std::uint64_t scanned_bytes = 0;
  /// Bytes written into the checkpoint (full size for copy saves).
  std::uint64_t stored_bytes = 0;
};

class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  /// Records a checkpoint of `current` at `pos` (positions strictly
  /// increasing). `current` must be flat, with the size of the first save.
  virtual SaveReceipt save(const Position& pos, const ObjectState& current) = 0;

  /// Drops every checkpoint at/after `target`, writes the latest remaining
  /// one into `into` (reconstructed if stored incrementally) and returns its
  /// position. `into` must be flat and of the saved size. Fails (contract)
  /// if nothing remains — fossil collection guarantees a floor below any
  /// legal rollback.
  virtual Position restore_before(const Position& target, ObjectState& into) = 0;

  /// Keeps the latest checkpoint strictly before `gvt` (plus everything the
  /// representation needs to reconstruct it) and drops older history.
  /// Returns that checkpoint's position: the input queue may drop processed
  /// events ordered before it.
  virtual Position fossil_collect(VirtualTime gvt) = 0;

  [[nodiscard]] virtual std::size_t entries() const noexcept = 0;

  /// Bytes currently held by live checkpoints (snapshots + deltas) — the
  /// state-queue term of the LP's memory footprint.
  [[nodiscard]] virtual std::uint64_t stored_bytes() const noexcept = 0;
};

/// Full-image checkpoints in one ring of fixed-size slots, oldest at the
/// head. A save copies the state's bytes into the next slot, a rollback
/// truncates the tail and fossil collection advances the head; the ring
/// grows by half when full and never shrinks, so after warm-up no save
/// allocates.
class CopyCheckpointStore final : public CheckpointStore {
 public:
  SaveReceipt save(const Position& pos, const ObjectState& current) override;
  Position restore_before(const Position& target, ObjectState& into) override;
  Position fossil_collect(VirtualTime gvt) override;
  [[nodiscard]] std::size_t entries() const noexcept override { return count_; }
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept override {
    return count_ * slot_bytes_;
  }

 private:
  /// Ring slot of the `i`-th live checkpoint (0 = oldest).
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = head_ + i;
    return s < capacity_ ? s : s - capacity_;
  }
  [[nodiscard]] std::byte* image(std::size_t s) const noexcept {
    return images_.get() + s * slot_bytes_;
  }
  /// Reallocates the ring 1.5x larger (4 slots at first), oldest first.
  void grow();

  std::size_t slot_bytes_ = 0;  ///< the state size, fixed by the first save
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::vector<Position> positions_;      ///< per slot
  std::unique_ptr<std::byte[]> images_;  ///< capacity_ * slot_bytes_
};

/// Byte-delta checkpoints with periodic full snapshots.
class IncrementalCheckpointStore final : public CheckpointStore {
 public:
  explicit IncrementalCheckpointStore(std::uint32_t full_snapshot_interval = 32);

  SaveReceipt save(const Position& pos, const ObjectState& current) override;
  Position restore_before(const Position& target, ObjectState& into) override;
  Position fossil_collect(VirtualTime gvt) override;
  [[nodiscard]] std::size_t entries() const noexcept override {
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept override {
    return snapshot_bytes_ + stored_delta_bytes_;
  }

  /// Stored delta bytes across live entries (memory footprint; tests).
  [[nodiscard]] std::uint64_t stored_delta_bytes() const noexcept {
    return stored_delta_bytes_;
  }

 private:
  struct Change {
    std::uint32_t offset;
    std::byte value;
  };
  struct Entry {
    Position pos;
    bool full = false;
    std::vector<std::byte> image;  ///< full snapshots
    std::vector<Change> changes;   ///< delta entries
  };

  void retire_entry(const Entry& entry) noexcept;

  std::uint32_t full_snapshot_interval_;
  std::uint32_t saves_since_full_ = 0;
  std::deque<Entry> entries_;
  /// Byte image of the most recently saved state (diff base).
  std::vector<std::byte> shadow_;
  std::uint64_t stored_delta_bytes_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
};

/// Factory for ObjectRuntime.
std::unique_ptr<CheckpointStore> make_checkpoint_store(
    StateSaving mode, std::uint32_t full_snapshot_interval);

}  // namespace otw::tw
