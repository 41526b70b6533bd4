#include "otw/tw/queues.hpp"

#include <algorithm>

namespace otw::tw {

void OutputQueue::record(const Position& cause, const Event& event) {
  OTW_ASSERT(sent_.empty() || !(cause < sent_.back().cause));
  sent_.push_back(OutputEntry{cause, event});
}

std::vector<OutputEntry> OutputQueue::extract_after(const Position& target,
                                                    bool inclusive) {
  std::vector<OutputEntry> extracted;
  while (!sent_.empty() && (target < sent_.back().cause ||
                            (inclusive && target == sent_.back().cause))) {
    extracted.push_back(std::move(sent_.back()));
    sent_.pop_back();
  }
  std::reverse(extracted.begin(), extracted.end());
  return extracted;
}

void OutputQueue::fossil_collect_before(VirtualTime gvt) {
  while (!sent_.empty() && sent_.front().cause.recv_time() < gvt) {
    sent_.pop_front();
  }
}

void StateQueue::save(const Position& pos, std::unique_ptr<ObjectState> state) {
  OTW_REQUIRE(state != nullptr);
  OTW_REQUIRE_MSG(entries_.empty() || entries_.back().pos < pos,
                  "checkpoint positions must be strictly increasing");
  bytes_ += state->byte_size();
  entries_.push_back(Entry{pos, std::move(state)});
}

void StateQueue::retire(Entry& entry) noexcept {
  bytes_ -= entry.state->byte_size();
  if (arena_ != nullptr) {
    arena_->release(std::move(entry.state));
  }
}

const StateQueue::Entry* StateQueue::latest_before(const Position& target) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->pos < target) {
      return &*it;
    }
  }
  return nullptr;
}

void StateQueue::drop_from(const Position& target) {
  while (!entries_.empty() && !(entries_.back().pos < target)) {
    retire(entries_.back());
    entries_.pop_back();
  }
}

Position StateQueue::fossil_collect(VirtualTime gvt) {
  OTW_REQUIRE(!entries_.empty());
  // Find the latest checkpoint strictly before gvt; everything older goes.
  std::size_t keeper = 0;
  bool found = false;
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].pos.recv_time() < gvt) {
      keeper = i;
      found = true;
      break;
    }
  }
  if (!found) {
    // Even the oldest checkpoint is at/after gvt: nothing is collectable.
    return entries_.front().pos;
  }
  for (std::size_t i = 0; i < keeper; ++i) {
    retire(entries_[i]);
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(keeper));
  return entries_.front().pos;
}

}  // namespace otw::tw
