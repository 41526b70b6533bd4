// Kernel instrumentation: per-object and per-LP counters plus roll-ups.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "otw/core/cancellation_controller.hpp"
#include "otw/obs/counters.hpp"
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

#define OTW_STATS_FIELD(name) std::uint64_t name = 0;

/// Per-object counters (the OTW_OBJECT_COUNTERS schema) plus the
/// controllers' final settings.
struct ObjectStats {
  OTW_OBJECT_COUNTERS(OTW_STATS_FIELD)
  std::uint32_t final_checkpoint_interval = 1;
  core::CancellationMode final_mode = core::CancellationMode::Aggressive;
  double final_hit_ratio = 0.0;

  /// Sums every schema counter; the final_* settings are left alone.
  void merge(const ObjectStats& other);
};

/// Per-LP counters (the OTW_LP_COUNTERS schema) plus aggregation and
/// memory-governance readings.
struct LpStats {
  OTW_LP_COUNTERS(OTW_STATS_FIELD)
  util::RunningStat aggregate_size;
  util::RunningStat aggregation_window_us;

  /// --- memory governance (final footprint + pressure history) ---
  MemoryStats memory;                      ///< footprint at the last sample
  std::uint64_t memory_peak_bytes = 0;     ///< max sampled MemoryStats::total()
  std::uint64_t memory_budget_bytes = 0;   ///< configured per-LP budget (0 = off)

  void merge(const LpStats& other);
};

#undef OTW_STATS_FIELD

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
