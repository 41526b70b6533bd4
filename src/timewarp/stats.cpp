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

void ObjectStats::merge(const ObjectStats& other) {
  events_processed += other.events_processed;
  events_committed += other.events_committed;
  events_rolled_back += other.events_rolled_back;
  rollbacks += other.rollbacks;
  coast_forward_events += other.coast_forward_events;
  states_saved += other.states_saved;
  state_restores += other.state_restores;
  messages_sent += other.messages_sent;
  anti_messages_sent += other.anti_messages_sent;
  anti_messages_received += other.anti_messages_received;
  stragglers += other.stragglers;
  lazy_hits += other.lazy_hits;
  lazy_misses += other.lazy_misses;
  passive_hits += other.passive_hits;
  passive_misses += other.passive_misses;
  cancellation_switches += other.cancellation_switches;
  checkpoint_control_ticks += other.checkpoint_control_ticks;
}

void LpStats::merge(const LpStats& other) {
  gvt_epochs += other.gvt_epochs;
  gvt_rounds += other.gvt_rounds;
  events_sent_remote += other.events_sent_remote;
  events_sent_local += other.events_sent_local;
  aggregates_sent += other.aggregates_sent;
  messages_aggregated += other.messages_aggregated;
  aggregate_size.merge(other.aggregate_size);
  aggregation_window_us.merge(other.aggregation_window_us);
  steps += other.steps;
  idle_polls += other.idle_polls;
  memory.add(other.memory);
  memory_peak_bytes += other.memory_peak_bytes;
  memory_budget_bytes += other.memory_budget_bytes;
  pool_recycled_blocks += other.pool_recycled_blocks;
  pressure_enters += other.pressure_enters;
  pressure_exits += other.pressure_exits;
  pressure_gvt_triggers += other.pressure_gvt_triggers;
  sends_held += other.sends_held;
  holds_annihilated += other.holds_annihilated;
}

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
