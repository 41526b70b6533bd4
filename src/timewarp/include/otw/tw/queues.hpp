// The output queue, one of the three history queues of a Time Warp
// simulation object (paper Fig. 1). The input queue is the object's
// PendingEventSet (pending_set.hpp), the state queue its CheckpointStore
// (checkpoint_store.hpp).
#pragma once

#include <deque>
#include <vector>

#include "otw/tw/event.hpp"
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

}  // namespace otw::tw
