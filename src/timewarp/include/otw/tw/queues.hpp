// Two of the three history queues of a Time Warp simulation object (paper
// Fig. 1): the output queue and the state queue. The input queue is the
// object's PendingEventSet (pending_set.hpp).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "otw/tw/event.hpp"
#include "otw/tw/memory_pool.hpp"
#include "otw/tw/object.hpp"
#include "otw/util/assert.hpp"

namespace otw::tw {

/// One remembered output message: the event as sent plus the position of
/// the event whose processing generated it.
struct OutputEntry {
  Position cause;
  Event event;
};

/// Output queue: every message sent and not yet cancelled or fossil
/// collected, in increasing cause order. Rollback extracts the suffix of
/// entries caused by re-executed events; those are cancelled per the
/// cancellation strategy.
class OutputQueue {
 public:
  void record(const Position& cause, const Event& event);

  /// Removes and returns all entries with cause > `target` — or cause >=
  /// `target` when `inclusive` (an annihilated event's own outputs must be
  /// cancelled too: nothing will ever re-execute it). Order preserved.
  std::vector<OutputEntry> extract_after(const Position& target,
                                         bool inclusive = false);

  /// Drops entries sent at virtual times < gvt (no rollback can reach them).
  void fossil_collect_before(VirtualTime gvt);

  [[nodiscard]] std::size_t size() const noexcept { return sent_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sent_.empty(); }
  [[nodiscard]] const std::deque<OutputEntry>& entries() const noexcept {
    return sent_;
  }

 private:
  std::deque<OutputEntry> sent_;  // increasing cause order
};

/// State queue: periodic checkpoints. Each entry snapshots the object state
/// *after* processing the event identified by `key`.
class StateQueue {
 public:
  struct Entry {
    Position pos;
    std::unique_ptr<ObjectState> state;
  };

  /// With an arena, states dropped by rollback or fossil collection are
  /// released into it for recycling (the arena must outlive the queue); a
  /// null arena simply destroys them.
  explicit StateQueue(StateArena* arena = nullptr) : arena_(arena) {}

  /// Appends a checkpoint; positions must be strictly increasing.
  void save(const Position& pos, std::unique_ptr<ObjectState> state);

  /// Latest checkpoint ordered before `target` — the rollback restore point.
  /// Never nullptr while fossil collection keeps its guarantee.
  [[nodiscard]] const Entry* latest_before(const Position& target) const;

  /// Drops checkpoints at/after `target` (invalidated by rollback).
  void drop_from(const Position& target);

  /// Keeps the latest checkpoint taken strictly before `gvt` (plus all later
  /// ones) and drops everything older. Returns the kept checkpoint's
  /// position: the input queue may drop processed events before it.
  Position fossil_collect(VirtualTime gvt);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const Entry& back() const { return entries_.back(); }

  /// Sum of byte_size() over the stored checkpoints (memory accounting).
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept { return bytes_; }

 private:
  void retire(Entry& entry) noexcept;

  std::deque<Entry> entries_;  // increasing key order
  StateArena* arena_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace otw::tw
