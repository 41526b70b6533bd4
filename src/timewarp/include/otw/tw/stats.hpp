// Kernel instrumentation: per-object and per-LP counters plus roll-ups.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "otw/core/cancellation_controller.hpp"
#include "otw/tw/virtual_time.hpp"
#include "otw/util/stats.hpp"

namespace otw::tw {

/// One memory-footprint sample. Every term counts bytes the optimistic
/// history currently pins: events still rollback-reachable, remembered
/// output messages, stored checkpoints, and comparison lists awaiting
/// resolution. Pool slab bytes are accounted separately (slabs never
/// shrink, so they are a high-water mark, not a live count). Invariant:
/// total() is exactly what fossil collection can eventually reclaim plus
/// one checkpoint + the unprocessed-event tail.
struct MemoryStats {
  std::uint64_t input_queue_bytes = 0;   ///< live input-queue events
  std::uint64_t output_queue_bytes = 0;  ///< remembered sent messages
  std::uint64_t state_bytes = 0;         ///< stored checkpoints (snapshots+deltas)
  std::uint64_t pending_bytes = 0;       ///< lazy-pending + passive entries
  std::uint64_t held_bytes = 0;          ///< cancelback-held remote sends
  std::uint64_t pool_slab_bytes = 0;     ///< slab reservation (never shrinks)
  std::uint64_t live_events = 0;         ///< input-queue population
  std::uint64_t checkpoints = 0;         ///< state-queue population

  /// The number the pressure controller compares against the budget.
  [[nodiscard]] std::uint64_t total() const noexcept {
    return input_queue_bytes + output_queue_bytes + state_bytes +
           pending_bytes + held_bytes;
  }

  void add(const MemoryStats& other) noexcept;
};

struct ObjectStats {
  std::uint64_t events_processed = 0;   ///< process_event calls, incl. re-execution
  std::uint64_t events_committed = 0;   ///< events finally below GVT
  std::uint64_t events_rolled_back = 0; ///< processed events undone by rollbacks
  std::uint64_t rollbacks = 0;
  std::uint64_t coast_forward_events = 0;
  std::uint64_t states_saved = 0;
  std::uint64_t state_restores = 0;
  std::uint64_t messages_sent = 0;      ///< positive messages (first sends + re-sends)
  std::uint64_t anti_messages_sent = 0;
  std::uint64_t anti_messages_received = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t lazy_hits = 0;          ///< identical regeneration under lazy
  std::uint64_t lazy_misses = 0;        ///< lazy entries cancelled after all
  std::uint64_t passive_hits = 0;       ///< "lazy aggressive hits" (paper S5)
  std::uint64_t passive_misses = 0;
  std::uint64_t cancellation_switches = 0;
  std::uint64_t checkpoint_control_ticks = 0;
  std::uint32_t final_checkpoint_interval = 1;
  core::CancellationMode final_mode = core::CancellationMode::Aggressive;
  double final_hit_ratio = 0.0;

  void merge(const ObjectStats& other);
};

struct LpStats {
  std::uint64_t gvt_epochs = 0;
  std::uint64_t gvt_rounds = 0;        ///< token passes handled
  std::uint64_t events_sent_remote = 0;
  std::uint64_t events_sent_local = 0;
  std::uint64_t aggregates_sent = 0;
  std::uint64_t messages_aggregated = 0;
  util::RunningStat aggregate_size;
  util::RunningStat aggregation_window_us;
  std::uint64_t steps = 0;
  std::uint64_t idle_polls = 0;

  /// --- memory governance (final footprint + pressure history) ---
  MemoryStats memory;                      ///< footprint at the last sample
  std::uint64_t memory_peak_bytes = 0;     ///< max sampled MemoryStats::total()
  std::uint64_t memory_budget_bytes = 0;   ///< configured per-LP budget (0 = off)
  std::uint64_t pool_recycled_blocks = 0;  ///< allocations served by freelists
  std::uint64_t pressure_enters = 0;       ///< Normal -> Throttle/Emergency edges
  std::uint64_t pressure_exits = 0;        ///< edges back to Normal
  std::uint64_t pressure_gvt_triggers = 0; ///< early GVT epochs forced by pressure
  std::uint64_t sends_held = 0;            ///< cancelback-lite: sends deferred
  std::uint64_t holds_annihilated = 0;     ///< held sends cancelled in place

  void merge(const LpStats& other);
};

struct KernelStats {
  std::vector<ObjectStats> objects;  ///< indexed by ObjectId
  std::vector<LpStats> lps;          ///< indexed by LpId
  VirtualTime final_gvt = VirtualTime::zero();

  [[nodiscard]] ObjectStats object_totals() const;
  [[nodiscard]] LpStats lp_totals() const;
  [[nodiscard]] std::uint64_t total_committed() const;
  [[nodiscard]] std::uint64_t total_rollbacks() const;
  /// Final footprint summed over LPs; peak is the sum of per-LP peaks (an
  /// upper bound on the true global peak — per-LP peaks need not coincide).
  [[nodiscard]] MemoryStats memory_totals() const;
  [[nodiscard]] std::uint64_t memory_peak_bytes() const;

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const KernelStats& stats);

}  // namespace otw::tw
