// Live introspection plane (otw::obs::live): a lock-free registry of
// relaxed-atomic counters/gauges that kernel hot paths publish into while a
// run is in flight, plus the snapshot/codec/watchdog machinery that turns
// those cells into something an operator can scrape mid-run.
//
// Digest neutrality: publishing is nothing but relaxed atomic stores into
// preallocated cells — no allocation, no locks, no ctx->charge(), no control
// flow that depends on reader activity — so enabling the live plane cannot
// perturb committed results. The differential tests prove this bit-for-bit.
//
// Cost discipline (mirrors obs::Recorder):
//   * registry pointer null: every publish site is one branch;
//   * OTW_OBS_LIVE=0 (CMake -DOTW_OBS_LIVE=OFF): publish methods compile to
//     empty inline functions and the cells are never allocated;
//   * enabled: a publish is a handful of relaxed stores per LP batch.
//
// Memory model: writers use memory_order_relaxed stores of *absolute totals*
// (never read-modify-write on the LP path), readers use relaxed loads. A
// scrape may therefore see a torn view *across* cells (counter A from batch
// n, counter B from batch n-1) but never a torn value *within* one cell, and
// every counter is individually monotone — exactly the guarantee Prometheus
// counters need. Engine-level gauges (mailbox occupancy, parked workers) are
// relaxed fetch_adds from many threads; they are order-free tallies.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "otw/obs/counters.hpp"
#include "otw/obs/export.hpp"
#include "otw/obs/hist.hpp"

#ifndef OTW_OBS_LIVE
#define OTW_OBS_LIVE 1
#endif

namespace otw::obs::live {

// ---------------------------------------------------------------------------
// Metric identities.
// ---------------------------------------------------------------------------

/// Per-LP monotone counters (published as absolute running totals): one
/// slot per counter of the schema (otw/obs/counters.hpp), object counters
/// summed over the LP's objects, then the LP's own counters.
enum class Counter : std::uint8_t {
#define OTW_LIVE_COUNTER(name) name,
  OTW_OBJECT_COUNTERS(OTW_LIVE_COUNTER) OTW_LP_COUNTERS(OTW_LIVE_COUNTER)
#undef OTW_LIVE_COUNTER
  kCount,
};

/// Schema name of each Counter slot, in slot order.
inline constexpr const char* kCounterNames[] = {
#define OTW_LIVE_COUNTER_NAME(name) #name,
    OTW_OBJECT_COUNTERS(OTW_LIVE_COUNTER_NAME)
        OTW_LP_COUNTERS(OTW_LIVE_COUNTER_NAME)
#undef OTW_LIVE_COUNTER_NAME
};

/// Per-LP point-in-time gauges.
enum class Gauge : std::uint8_t {
  MemoryBytes,       ///< live footprint (queues + state + pool slabs)
  MemoryBudgetBytes, ///< governance budget (0 = unlimited)
  PressureState,     ///< 0 Normal / 1 Throttle / 2 Emergency
  LastRollbackDepth, ///< events undone by the most recent rollback
  kCount,
};

/// Engine-wide occupancy gauges (relaxed +/- tallies from scheduler threads).
enum class EngineGauge : std::uint8_t {
  MailboxOccupancy,  ///< messages enqueued but not yet popped, all LPs
  WorkersParked,     ///< threads currently blocked in park()
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
static_assert(std::size(kCounterNames) == kNumCounters);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumEngineGauges =
    static_cast<std::size_t>(EngineGauge::kCount);

/// Sentinel for "virtual time = infinity" in tick-valued slots.
inline constexpr std::uint64_t kTicksInfinity = UINT64_MAX;

// ---------------------------------------------------------------------------
// Snapshots: plain (non-atomic) copies of registry state.
// ---------------------------------------------------------------------------

/// One LP's cell, copied with relaxed loads.
struct LpLive {
  std::uint32_t lp = 0;
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
};

/// One shard's full registry state at a point in time. `wall_ns` is stamped
/// by the producer (capture) and refreshed by the consumer on arrival, so
/// the watchdog's silent-shard rule measures end-to-end staleness.
struct LiveSnapshot {
  std::uint32_t shard = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t gvt_ticks = kTicksInfinity;
  std::array<std::uint64_t, kNumEngineGauges> engine{};
  std::vector<LpLive> lps;
  /// Attribution histograms (non-empty seams only; the codec's histogram
  /// section).
  std::vector<hist::Entry> hists;

  [[nodiscard]] std::uint64_t engine_gauge(EngineGauge g) const noexcept {
    return engine[static_cast<std::size_t>(g)];
  }
  /// Sum of one counter across every LP in the shard.
  [[nodiscard]] std::uint64_t total(Counter c) const noexcept {
    std::uint64_t sum = 0;
    for (const LpLive& lp : lps) {
      sum += lp.counter(c);
    }
    return sum;
  }
  /// Sum of one gauge across every LP (bytes-valued gauges).
  [[nodiscard]] std::uint64_t sum_gauge(Gauge g) const noexcept {
    std::uint64_t sum = 0;
    for (const LpLive& lp : lps) {
      sum += lp.gauge(g);
    }
    return sum;
  }
  /// Max of one gauge across every LP (state-valued gauges).
  [[nodiscard]] std::uint64_t max_gauge(Gauge g) const noexcept {
    std::uint64_t mx = 0;
    for (const LpLive& lp : lps) {
      mx = lp.gauge(g) > mx ? lp.gauge(g) : mx;
    }
    return mx;
  }
};

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Lock-free cell bank: one cache-line-aligned cell per LP plus a global GVT
/// slot and engine gauges. Writers are the owning LP (its cell), whichever
/// LP closes a GVT epoch (the GVT slot), and scheduler threads (engine
/// gauges); the only reader is the snapshot thread.
class LiveMetricsRegistry {
 public:
  explicit LiveMetricsRegistry(std::uint32_t num_lps) : num_lps_(num_lps) {
#if OTW_OBS_LIVE
    cells_ = std::make_unique<Cell[]>(num_lps);
#endif
  }

  LiveMetricsRegistry(const LiveMetricsRegistry&) = delete;
  LiveMetricsRegistry& operator=(const LiveMetricsRegistry&) = delete;

  [[nodiscard]] static constexpr bool compiled_in() noexcept {
#if OTW_OBS_LIVE
    return true;
#else
    return false;
#endif
  }

  [[nodiscard]] std::uint32_t num_lps() const noexcept { return num_lps_; }

  /// Allocates the latency-attribution bank (idempotent). Called once
  /// before any thread/process splits off so everyone shares the layout.
  void enable_hists(std::uint32_t num_shards) {
#if OTW_OBS_LIVE
    if (!hists_) {
      hists_ = std::make_unique<hist::Bank>(num_shards);
    }
#else
    static_cast<void>(num_shards);
#endif
  }

  /// The attribution bank, or nullptr when disabled / compiled out. Every
  /// record site is a null check away from free when histograms are off.
  [[nodiscard]] hist::Bank* hists() const noexcept {
#if OTW_OBS_LIVE
    return hists_.get();
#else
    return nullptr;
#endif
  }

  /// Relaxed store of an absolute running total into the LP's cell.
  void store_counter(std::uint32_t lp, Counter c, std::uint64_t total) noexcept {
#if OTW_OBS_LIVE
    cells_[lp].slots[static_cast<std::size_t>(c)].store(
        total, std::memory_order_relaxed);
#else
    static_cast<void>(lp);
    static_cast<void>(c);
    static_cast<void>(total);
#endif
  }

  void store_gauge(std::uint32_t lp, Gauge g, std::uint64_t value) noexcept {
#if OTW_OBS_LIVE
    cells_[lp].slots[kNumCounters + static_cast<std::size_t>(g)].store(
        value, std::memory_order_relaxed);
#else
    static_cast<void>(lp);
    static_cast<void>(g);
    static_cast<void>(value);
#endif
  }

  /// GVT advances monotonically; any LP that applies an epoch may store it.
  void store_gvt(std::uint64_t ticks) noexcept {
#if OTW_OBS_LIVE
    gvt_.store(ticks, std::memory_order_relaxed);
#else
    static_cast<void>(ticks);
#endif
  }

  /// Relaxed tally for engine-wide occupancy gauges (may be called from any
  /// scheduler thread; deltas of +1/-1 around push/pop and park/unpark).
  void engine_add(EngineGauge g, std::int64_t delta) noexcept {
#if OTW_OBS_LIVE
    engine_[static_cast<std::size_t>(g)].fetch_add(
        static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
#else
    static_cast<void>(g);
    static_cast<void>(delta);
#endif
  }

  /// Full relaxed-load copy. `shard` and `wall_ns` are stamped through.
  [[nodiscard]] LiveSnapshot snapshot(std::uint32_t shard,
                                      std::uint64_t wall_ns) const {
    LiveSnapshot snap;
    snap.shard = shard;
    snap.wall_ns = wall_ns;
#if OTW_OBS_LIVE
    snap.gvt_ticks = gvt_.load(std::memory_order_relaxed);
    for (std::size_t g = 0; g < kNumEngineGauges; ++g) {
      snap.engine[g] = engine_[g].load(std::memory_order_relaxed);
    }
    snap.lps.resize(num_lps_);
    for (std::uint32_t lp = 0; lp < num_lps_; ++lp) {
      LpLive& out = snap.lps[lp];
      out.lp = lp;
      for (std::size_t c = 0; c < kNumCounters; ++c) {
        out.counters[c] = cells_[lp].slots[c].load(std::memory_order_relaxed);
      }
      for (std::size_t g = 0; g < kNumGauges; ++g) {
        out.gauges[g] =
            cells_[lp].slots[kNumCounters + g].load(std::memory_order_relaxed);
      }
    }
    if (hists_) {
      snap.hists = hists_->snapshot(shard);
    }
#endif
    return snap;
  }

 private:
#if OTW_OBS_LIVE
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kNumCounters + kNumGauges> slots{};
  };
  std::unique_ptr<Cell[]> cells_;
  std::atomic<std::uint64_t> gvt_{kTicksInfinity};
  std::array<std::atomic<std::uint64_t>, kNumEngineGauges> engine_{};
  std::unique_ptr<hist::Bank> hists_;
#endif
  std::uint32_t num_lps_;
};

// ---------------------------------------------------------------------------
// Snapshot wire codec (raw little-endian; the distributed transport carries
// these as opaque STATS payloads so obs stays independent of platform).
// ---------------------------------------------------------------------------

void encode_snapshot(const LiveSnapshot& snap, std::vector<std::uint8_t>& out);

/// Strict decode; false on truncation, bad magic, a version other than the
/// current one, slot counts other than this build's, or an unknown seam.
/// STATS payloads come from fork()ed workers of the same binary, so there
/// is no older or newer layout to tolerate.
[[nodiscard]] bool decode_snapshot(const std::uint8_t* data, std::size_t len,
                                   LiveSnapshot& out);

/// The attribution-histogram section, shared by the snapshot codec and the
/// distributed RESULT frame: appends `entries` to `out`.
void encode_hists(const std::vector<hist::Entry>& entries,
                  std::vector<std::uint8_t>& out);

/// Decodes one encode_hists() section starting at data[pos], advances `pos`
/// past it and appends the entries to `out`, stamped with `shard`. False
/// on truncation, an absurd entry count, an unknown seam or a bucket count
/// other than this build's.
[[nodiscard]] bool decode_hists(const std::uint8_t* data, std::size_t len,
                                std::size_t& pos, std::uint32_t shard,
                                std::vector<hist::Entry>& out);

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

/// Health rules, evaluated per shard on every monitor feed. Documented in
/// DESIGN.md section 9 (check_docs.py guards against drift).
enum class HealthRule : std::uint8_t {
  GvtStall,        ///< GVT unchanged for N consecutive feeds while work ran
  RollbackStorm,   ///< rolled-back/committed delta ratio above threshold
  OccupancyPinned, ///< memory footprint pinned >= fraction of budget
  ShardSilent,     ///< no snapshot from a shard past the deadline
  kCount,
};

[[nodiscard]] const char* health_rule_name(HealthRule rule) noexcept;

/// One edge-triggered watchdog transition (raise or clear).
struct HealthEvent {
  HealthRule rule = HealthRule::GvtStall;
  bool raised = true;  ///< true = condition entered, false = condition cleared
  std::uint32_t shard = 0;
  std::uint64_t wall_ns = 0;
  std::string detail;
};

struct WatchdogConfig {
  /// Feeds with unchanged GVT (while events were processed) before GvtStall.
  std::uint32_t gvt_stall_feeds = 8;
  /// RollbackStorm when rolled_back_delta > ratio * committed_delta ...
  double rollback_ratio = 2.0;
  /// ... and the deltas are large enough to be statistically meaningful.
  std::uint64_t rollback_min_events = 256;
  /// OccupancyPinned when footprint >= fraction * budget for N feeds.
  double occupancy_fraction = 0.9;
  std::uint32_t occupancy_feeds = 4;
  /// ShardSilent when now - snapshot.wall_ns exceeds this.
  std::uint64_t shard_silent_ns = 2'000'000'000;
};

/// Pure rule evaluator: feed it per-shard snapshots at a steady cadence and
/// it emits edge-triggered HealthEvents. Single-threaded by design (the
/// monitor loop owns it); no I/O, so tests drive it with synthetic snapshots.
class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config) : config_(config) {}

  /// Evaluates every rule against this feed. Returns only the transitions
  /// (newly raised / newly cleared); the full log accretes in history().
  std::vector<HealthEvent> feed(const std::vector<LiveSnapshot>& shards,
                                std::uint64_t now_ns);

  [[nodiscard]] const std::vector<HealthEvent>& history() const noexcept {
    return history_;
  }

  /// Rules currently in the raised state, as (rule, shard) pairs.
  [[nodiscard]] std::vector<std::pair<HealthRule, std::uint32_t>> active() const;

 private:
  struct ShardState {
    bool seen = false;
    std::uint64_t last_gvt = kTicksInfinity;
    std::uint32_t gvt_stall_feeds = 0;
    std::uint64_t last_processed = 0;
    std::uint64_t last_committed = 0;
    std::uint64_t last_rolled_back = 0;
    std::uint32_t occupancy_feeds = 0;
    std::array<bool, static_cast<std::size_t>(HealthRule::kCount)> raised{};
  };

  void transition(ShardState& state, HealthRule rule, bool now_raised,
                  std::uint32_t shard, std::uint64_t now_ns,
                  std::string detail, std::vector<HealthEvent>& out);

  WatchdogConfig config_;
  std::vector<ShardState> states_;
  std::vector<HealthEvent> history_;
};

/// One JSON object per line per event (machine-parseable health log).
void write_health_jsonl(std::ostream& os, const std::vector<HealthEvent>& events);

// ---------------------------------------------------------------------------
// Cluster view: latest per-shard snapshots, mutex-protected (written by the
// coordinator relay thread, read by the scrape/monitor thread).
// ---------------------------------------------------------------------------

class ClusterView {
 public:
  explicit ClusterView(std::uint32_t num_shards) : shards_(num_shards) {}

  /// Replaces the stored snapshot for `snap.shard` (stamps arrival time).
  void update(LiveSnapshot snap, std::uint64_t arrival_ns);

  /// Copies of every snapshot seen so far (unseen shards are omitted).
  [[nodiscard]] std::vector<LiveSnapshot> shards() const;

 private:
  mutable std::mutex mutex_;
  std::vector<LiveSnapshot> shards_;
  std::vector<bool> seen_ = std::vector<bool>(shards_.size(), false);
};

// ---------------------------------------------------------------------------
// Exposition.
// ---------------------------------------------------------------------------

/// Folds per-shard snapshots into otw_live_* metrics (shard-labelled
/// aggregates; per-LP detail stays in the registry, not the exposition).
[[nodiscard]] MetricsSnapshot build_live_metrics(
    const std::vector<LiveSnapshot>& shards);

/// JSON snapshot document served at /snapshot and polled by twtop.
void write_live_json(std::ostream& os, const std::vector<LiveSnapshot>& shards,
                     const std::vector<std::pair<HealthRule, std::uint32_t>>& active,
                     const std::vector<HealthEvent>& recent_events,
                     std::uint64_t now_ns);

}  // namespace otw::obs::live
