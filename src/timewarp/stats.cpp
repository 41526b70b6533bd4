#include "otw/tw/stats.hpp"

#include <ostream>
#include <sstream>

#include "otw/tw/event.hpp"

namespace otw::tw {

std::ostream& operator<<(std::ostream& os, VirtualTime t) {
  if (t.is_infinity()) {
    return os << "inf";
  }
  return os << t.ticks();
}

std::ostream& operator<<(std::ostream& os, const EventKey& key) {
  return os << "(" << key.recv_time << ", s" << key.sender << ", #" << key.seq
            << ")";
}

std::ostream& operator<<(std::ostream& os, const Event& event) {
  os << (event.negative ? "anti" : "event") << "[" << event.sender << "->"
     << event.receiver << " @" << event.recv_time << " sent@" << event.send_time
     << " seq=" << event.seq << " inst=" << event.instance << "]";
  return os;
}

void MemoryStats::add(const MemoryStats& other) noexcept {
  input_queue_bytes += other.input_queue_bytes;
  output_queue_bytes += other.output_queue_bytes;
  state_bytes += other.state_bytes;
  pending_bytes += other.pending_bytes;
  held_bytes += other.held_bytes;
  pool_slab_bytes += other.pool_slab_bytes;
  live_events += other.live_events;
  checkpoints += other.checkpoints;
}

#define OTW_STATS_SUM(name) name += other.name;

void ObjectStats::merge(const ObjectStats& other) {
  OTW_OBJECT_COUNTERS(OTW_STATS_SUM)
}

void LpStats::merge(const LpStats& other) {
  OTW_LP_COUNTERS(OTW_STATS_SUM)
  aggregate_size.merge(other.aggregate_size);
  aggregation_window_us.merge(other.aggregation_window_us);
  memory.add(other.memory);
  memory_peak_bytes += other.memory_peak_bytes;
  memory_budget_bytes += other.memory_budget_bytes;
}

#undef OTW_STATS_SUM

ObjectStats KernelStats::object_totals() const {
  ObjectStats total;
  for (const auto& s : objects) {
    total.merge(s);
  }
  return total;
}

LpStats KernelStats::lp_totals() const {
  LpStats total;
  for (const auto& s : lps) {
    total.merge(s);
  }
  return total;
}

std::uint64_t KernelStats::total_committed() const {
  std::uint64_t n = 0;
  for (const auto& s : objects) {
    n += s.events_committed;
  }
  return n;
}

std::uint64_t KernelStats::total_rollbacks() const {
  std::uint64_t n = 0;
  for (const auto& s : objects) {
    n += s.rollbacks;
  }
  return n;
}

MemoryStats KernelStats::memory_totals() const {
  MemoryStats total;
  for (const auto& s : lps) {
    total.add(s.memory);
  }
  return total;
}

std::uint64_t KernelStats::memory_peak_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : lps) {
    n += s.memory_peak_bytes;
  }
  return n;
}

std::string KernelStats::summary() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const KernelStats& stats) {
  const ObjectStats obj = stats.object_totals();
  const LpStats lp = stats.lp_totals();
  os << "kernel stats:\n"
     << "  committed events:     " << obj.events_committed << "\n"
     << "  processed events:     " << obj.events_processed << "\n"
     << "  rollbacks:            " << obj.rollbacks << " (undone "
     << obj.events_rolled_back << ", coast-forward " << obj.coast_forward_events
     << ")\n"
     << "  stragglers:           " << obj.stragglers << "\n"
     << "  states saved:         " << obj.states_saved << " (restores "
     << obj.state_restores << ")\n"
     << "  messages:             " << obj.messages_sent << " app, "
     << obj.anti_messages_sent << " anti sent, " << obj.anti_messages_received
     << " anti received\n"
     << "  cancellation:         lazy " << obj.lazy_hits << "/"
     << obj.lazy_hits + obj.lazy_misses << " hits, passive " << obj.passive_hits
     << "/" << obj.passive_hits + obj.passive_misses << " hits, "
     << obj.cancellation_switches << " switches\n"
     << "  gvt:                  " << lp.gvt_epochs << " epochs, " << lp.gvt_rounds
     << " token rounds, final " << stats.final_gvt << "\n"
     << "  comm:                 " << lp.events_sent_remote << " remote events in "
     << lp.aggregates_sent << " aggregates, " << lp.events_sent_local
     << " local events\n"
     << "  memory:               " << lp.memory.total() << " B final, "
     << lp.memory_peak_bytes << " B peak";
  if (lp.memory_budget_bytes > 0) {
    os << " (budget " << lp.memory_budget_bytes << " B, "
       << lp.pressure_enters << " pressure enters, " << lp.sends_held
       << " sends held)";
  }
  os << "\n";
  return os;
}

}  // namespace otw::tw
