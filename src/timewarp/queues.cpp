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

}  // namespace otw::tw
