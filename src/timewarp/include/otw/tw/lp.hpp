// A logical process: a group of simulation objects sharing one scheduler,
// one aggregation channel and one GVT agent, driven step-wise by a platform
// engine. Implements the LpServices the per-object runtimes call back into.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "otw/comm/aggregation.hpp"
#include "otw/core/load_balance_controller.hpp"
#include "otw/core/optimism_controller.hpp"
#include "otw/core/pressure_controller.hpp"
#include "otw/core/snapshot_schedule_controller.hpp"
#include "otw/obs/live.hpp"
#include "otw/obs/recorder.hpp"
#include "otw/platform/distributed.hpp"
#include "otw/platform/engine.hpp"
#include "otw/tw/gvt.hpp"
#include "otw/tw/memory_pool.hpp"
#include "otw/tw/object_runtime.hpp"
#include "otw/tw/stats.hpp"
#include "otw/util/buffer_pool.hpp"

namespace otw::tw {

/// Which execution platform tw::run dispatches to.
enum class EngineKind : std::uint8_t {
  Sequential,    ///< ground-truth event-list kernel (no Time Warp)
  SimulatedNow,  ///< deterministic modeled network of workstations
  Threaded,      ///< M:N work-stealing scheduler on real threads
  Distributed,   ///< LPs sharded over worker processes + TCP loopback
};

/// LP -> shard placement policy for the distributed engine (tw/partition.hpp
/// implements both; the choice is digest-neutral).
enum class PartitionKind : std::uint8_t {
  RoundRobin,  ///< lp % num_shards (the adversarial layout for the wire)
  CommGraph,   ///< greedy edge-cut over the model's declared send graph
};

struct KernelConfig {
  LpId num_lps = 1;
  /// Events with receive time beyond this are never processed.
  VirtualTime end_time = VirtualTime::infinity();
  /// Events one LP processes per step() (between network polls). On every
  /// engine this alone bounds how long one step holds its worker.
  std::uint32_t batch_size = 8;
  /// Locally processed events between GVT epochs.
  std::uint64_t gvt_period_events = 512;
  /// Minimum platform time between GVT epochs. Keeps an idle initiator from
  /// flooding the network with back-to-back token rounds (GVT is control
  /// traffic competing with useful work, cf. paper Section 3).
  std::uint64_t gvt_min_interval_ns = 500'000;
  /// Per-object state saving. The LogicalProcess assembles the internal
  /// ObjectRuntimeConfig from this block plus `runtime` and `telemetry`.
  struct Checkpoint {
    /// Static checkpoint interval chi (1 = copy state after every event).
    std::uint32_t interval = 1;
    /// Checkpoint representation: full copies or byte deltas (paper ref [7]).
    StateSaving state_saving = StateSaving::Copy;
    /// Incremental mode: saves between full snapshots.
    std::uint32_t full_snapshot_interval = 32;
    /// When true, chi is driven by the CheckpointIntervalController instead.
    bool dynamic = false;
    core::CheckpointControlConfig control;
  } checkpoint;

  /// Per-object rollback/cancellation tuning.
  struct Runtime {
    core::CancellationControlConfig cancellation;
    /// Bound on the passive-comparison list used to maintain HR under
    /// aggressive cancellation.
    std::size_t passive_compare_cap = 64;
  } runtime;

  /// DyMA policy for the outgoing communication path.
  comm::AggregationConfig aggregation;

  /// Controller-trajectory recording (off by default). Applied to every
  /// object and LP; read back from RunResult::telemetry. Samples also land
  /// in the kernel trace when observability.tracing is on (one sink).
  TelemetryConfig telemetry;

  /// Kernel tracing and phase profiling (otw::obs; off by default). Traces
  /// are read back from RunResult::trace / RunResult::lp_phases and exported
  /// via otw/tw/observability.hpp.
  obs::ObsConfig observability;

  /// Bounded-time-window optimism throttling (Palaniswamy & Wilsey): an LP
  /// only processes events with receive time <= GVT + window.
  struct Optimism {
    enum class Mode : std::uint8_t { Unbounded, Static, Adaptive };
    Mode mode = Mode::Unbounded;
    /// Static window / adaptive initial window, in virtual-time ticks.
    std::uint64_t window = 1u << 16;
    core::OptimismControlConfig control;
  } optimism;

  /// Bounded-memory execution. With a non-zero budget, every LP samples its
  /// optimistic-history footprint (see MemoryStats) against budget_bytes /
  /// num_lps and drives the pressure controller: Throttle clamps the
  /// optimism window, Emergency additionally forces early GVT epochs and
  /// holds far-future remote sends (cancelback-lite). Committed results are
  /// unaffected — only speculation is delayed. budget_bytes == 0 disables
  /// the controller (pooled allocation and accounting stay on).
  struct Memory {
    std::uint64_t budget_bytes = 0;
    core::MemoryPressureConfig control;
  } memory;

  /// Which execution platform tw::run dispatches to, plus its sizing knobs.
  /// Per-engine tuning beyond these (cost models, trace capacities, ports)
  /// stays in the optional platform config each entry point accepts.
  struct Engine {
    EngineKind kind = EngineKind::SimulatedNow;
    /// Pending-event-set implementation behind every LP input queue and the
    /// sequential kernel's central event list (digest-neutral; see
    /// pending_set.hpp). Multiset is the reference.
    QueueKind queue = QueueKind::Multiset;
    /// Threaded engine: worker threads (0 = one per hardware thread).
    std::uint32_t num_workers = 0;
    /// Distributed engine: worker processes (each owns num_lps/num_shards
    /// LPs under RoundRobin; CommGraph balances by edge cut).
    std::uint32_t num_shards = 2;
    /// Unused: the peer mesh is the distributed engine's only data plane.
    /// Kept, with its single value, because perfbench/src/main.cpp sets it.
    platform::Topology topology = platform::Topology::Mesh;
    /// Initial LP -> shard placement policy (Distributed only).
    PartitionKind partition = PartitionKind::CommGraph;
  } engine;

  /// On-line LP migration (Distributed engine, >= 2 shards; DESIGN.md
  /// section 8b). The coordinator samples per-shard work every period_ms
  /// via the live plane, feeds the <O,I,S,T,P> load-balance controller
  /// (core/load_balance_controller.hpp), and past the dead-zoned threshold
  /// moves the hottest LP on the hottest shard to the coldest shard. Each
  /// move is one stop-the-world epoch of the snapshot protocol: every shard
  /// pauses while the LP is frozen at the GVT cut and shipped. The adaptive
  /// path needs the live plane (observability.live) for its observations;
  /// `forced` works without it. Mutually exclusive with `fault`.
  struct Migration {
    bool enabled = false;
    /// Control period P: how often the coordinator evaluates the controller.
    std::uint32_t period_ms = 20;
    core::LoadBalanceConfig control;
    /// Scripted moves (tests/benches): each (lp, to_shard) fires on its own
    /// control period, in order, before the adaptive controller runs.
    std::vector<std::pair<LpId, std::uint32_t>> forced;
  } migration;

  /// Shard-level checkpoint/restart with automatic failure recovery
  /// (Distributed engine, >= 2 shards; DESIGN.md section 8c). When
  /// enabled, the coordinator schedules stop-the-world snapshot epochs via a
  /// SnapshotScheduleController tuned against `recovery_budget_ms`, retains
  /// the last complete cut, and — on a worker-process death or a watchdog
  /// ShardSilent verdict under Policy::Recover — forks a replacement,
  /// restores the lost shard from the cut, rolls every survivor back to it
  /// and resumes. Mutually exclusive with on-line migration (owners keep
  /// their initial placement so a replacement inherits a known shard).
  struct Fault {
    bool enabled = false;
    /// Worst-case work-at-risk promise: snapshot gap + restore must fit.
    std::uint32_t recovery_budget_ms = 250;
    /// Cap on one epoch's total serialized bytes (0 = unlimited). Epochs
    /// over the cap are recorded to `spill_dir` instead of held in memory,
    /// or refused when no spill directory is configured.
    std::uint64_t max_snapshot_bytes = 0;
    /// Recoveries allowed per run; past this a death is fatal again.
    std::uint32_t max_recoveries = 4;
    /// Directory for spilled snapshot epochs (OTWSNAP1 container files,
    /// readable by `twreport snapshot`). Empty = keep epochs in memory.
    std::string spill_dir;
    /// What a ShardSilent watchdog verdict does: report-only leaves the
    /// existing flight-dump path in charge; Recover kills the hung worker
    /// and restores it from the last complete cut.
    enum class Policy : std::uint8_t { ReportOnly, Recover };
    Policy policy = Policy::Recover;
    /// Snapshot cadence controller (budget cap / overhead floor bounds).
    core::SnapshotScheduleConfig control;
    /// Chaos injection (tests/CI): SIGKILL this shard's worker right after
    /// the first committed snapshot epoch numbered `inject_kill_after_epoch`
    /// or later. -1 = disabled. The number counts epoch attempts, as
    /// RecoveryIncident::epoch and the spill file names do, so a declined or
    /// aborted attempt uses one up. The epochs before an armed kill follow
    /// GVT progress (each starts once GVT has passed the last cut), not the
    /// wall-clock cadence, so a short run still reaches the kill.
    std::int32_t inject_kill_shard = -1;
    std::uint32_t inject_kill_after_epoch = 1;
  } fault;

  /// Copy of this config with fault tolerance switched on and the recovery
  /// budget set (0 keeps the default). Keeps enabling a one-liner:
  /// `kc.with_fault_tolerance(500)` — analogous to with_engine().
  [[nodiscard]] KernelConfig with_fault_tolerance(
      std::uint32_t recovery_budget_ms = 0) const {
    KernelConfig copy = *this;
    copy.fault.enabled = true;
    if (recovery_budget_ms > 0) {
      copy.fault.recovery_budget_ms = recovery_budget_ms;
      copy.fault.control.recovery_budget_ms = recovery_budget_ms;
    } else {
      copy.fault.control.recovery_budget_ms = copy.fault.recovery_budget_ms;
    }
    return copy;
  }

  /// Copy of this config running on `kind`; `size` (when non-zero) sets the
  /// engine's parallelism — num_workers for Threaded, num_shards for
  /// Distributed. Keeps call-site migration to tw::run a one-liner.
  [[nodiscard]] KernelConfig with_engine(EngineKind kind,
                                         std::uint32_t size = 0) const {
    KernelConfig copy = *this;
    copy.engine.kind = kind;
    if (size > 0) {
      if (kind == EngineKind::Threaded) {
        copy.engine.num_workers = size;
      } else if (kind == EngineKind::Distributed) {
        copy.engine.num_shards = size;
      }
    }
    return copy;
  }

  /// Hard cap on Engine::num_shards: one worker process per shard, joined
  /// by a full peer mesh, so the socket count grows with the square of the
  /// shard count.
  static constexpr std::uint32_t kMaxShards = 64;

  /// Checks the whole configuration for contradictions a constructor cannot
  /// see locally: zero control periods, inverted thresholds/watermarks,
  /// engine sizing out of range. Returns one descriptive message per
  /// violation (empty = valid). Every tw::run entry point rejects a config
  /// for which this is non-empty.
  [[nodiscard]] std::vector<std::string> validate() const;
};

class LogicalProcess final : public platform::LpRunner,
                             public LpServices,
                             public platform::MigratableLp {
 public:
  /// @param object_to_lp global ObjectId -> LpId map (shared by all LPs)
  /// @param objects      (global id, object) pairs owned by this LP
  /// @param costs        SimulatedNow's cost model, which prices the
  ///                     kernel's own work; null on every other engine
  ///                     (nothing is priced). Must outlive the LP.
  LogicalProcess(LpId id, const KernelConfig& config,
                 std::vector<LpId> object_to_lp,
                 std::vector<std::pair<ObjectId, std::unique_ptr<SimulationObject>>>
                     objects,
                 const platform::CostModel* costs = nullptr);

  // --- platform::LpRunner ---
  platform::StepStatus step(platform::LpContext& ctx) override;

  // --- platform::MigratableLp ---
  /// Epoch settle pass (DESIGN.md section 8c): drains the engine inbox,
  /// delivers deferred same-LP events and force-flushes the aggregation
  /// channel so parked (already Mattern-counted) events reach the wire and
  /// the shard's channel-op counters can stabilize. Processes no events.
  /// Returns true when anything moved (the shard is not yet quiescent).
  bool snapshot_settle(platform::LpContext& ctx) override;
  /// Cut phase: rolls every runtime back to the current GVT
  /// (migration_freeze; at GVT 0, to just after the initial state), settles
  /// the resulting same-LP anti-messages and flushes held sends and channel
  /// batches. Declines (returns false) when the LP is done — the
  /// coordinator aborts the epoch; an executed cut is digest-neutral, so no
  /// undo is needed.
  [[nodiscard]] bool snapshot_cut(platform::LpContext& ctx) override;
  /// Serializes this LP in the MIGRATE travelling layout (DESIGN.md section
  /// 8b: gvt / gvt_agent / lp_stats / events_total / samples / runtimes)
  /// without disturbing it (ObjectRuntime::encode_frozen).
  void snapshot_encode(platform::LpContext& ctx,
                       platform::WireWriter& writer) override;
  /// Rebuilds this LP from an encoded cut (survivor rollback, replacement
  /// revival or a move's destination): the shipped GVT cut replaces local
  /// progress, every LP-local transient and the aggregation channel are
  /// cleared, per-LP controllers restart fresh and the restored runtimes
  /// checkpoint at Position::before_all().
  void snapshot_restore(platform::LpContext& ctx,
                        platform::WireReader& reader) override;
  [[nodiscard]] std::uint64_t snapshot_gvt_ticks() const noexcept override {
    return gvt_value_.ticks();
  }

  // --- LpServices (called by ObjectRuntime) ---
  void route(Event&& event) override;
  void note_rollback(std::size_t undone) noexcept override;
  [[nodiscard]] std::uint64_t wall_now_ns() const noexcept override;
  void wall_charge(std::uint64_t ns) noexcept override;
  [[nodiscard]] VirtualTime end_time() const noexcept override {
    return config_.end_time;
  }
  [[nodiscard]] obs::Recorder& recorder() noexcept override { return recorder_; }
  [[nodiscard]] SlabPool* event_pool() noexcept override { return &event_pool_; }
  [[nodiscard]] QueueKind queue_kind() const noexcept override {
    return config_.engine.queue;
  }

  /// Shared recycler for cross-LP event-batch buffers (null: no recycling).
  /// Installed by the kernel before the run starts; the pool must outlive
  /// every message shipped through this LP.
  void set_batch_pool(std::shared_ptr<util::BufferPool<Event>> pool) noexcept {
    batch_pool_ = std::move(pool);
    channel_.set_recycler(batch_pool_.get());
  }

  /// Live introspection registry (null: publishing disabled). Installed by
  /// the kernel before the run starts; must outlive the run. Publishing is
  /// relaxed atomic stores only — provably digest-neutral.
  void set_live(obs::live::LiveMetricsRegistry* live) noexcept { live_ = live; }

  // --- results / introspection ---
  [[nodiscard]] LpId id() const noexcept { return id_; }
  [[nodiscard]] VirtualTime gvt() const noexcept { return gvt_value_; }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const LpStats& lp_stats() const noexcept { return stats_; }
  [[nodiscard]] LpStats snapshot_lp_stats() const;
  [[nodiscard]] const std::vector<std::unique_ptr<ObjectRuntime>>& runtimes()
      const noexcept {
    return runtimes_;
  }
  [[nodiscard]] const GvtAgent& gvt_agent() const noexcept { return gvt_; }
  [[nodiscard]] const comm::AggregationChannel<Event>& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] const std::vector<LpSample>& trace() const noexcept {
    return trace_;
  }
  /// This LP's current footprint: runtimes' queues/checkpoints plus held
  /// sends, plus the slab pool's resident bytes.
  [[nodiscard]] MemoryStats memory_footprint() const noexcept;
  [[nodiscard]] const core::MemoryPressureController* pressure() const noexcept {
    return pressure_ ? &*pressure_ : nullptr;
  }

 private:
  static constexpr std::size_t kNoRuntime = SIZE_MAX;

  void drain_one(std::unique_ptr<platform::EngineMessage> msg);
  /// Handles the engine's messages for this LP; true if any was handled.
  /// With `stop_at_returning_token`, stops after a second GVT token.
  bool drain(bool stop_at_returning_token = false);
  void deliver_local_pending();
  void handle_token(const GvtTokenMessage& token);
  void complete_epoch(VirtualTime gvt);
  void apply_gvt(VirtualTime gvt);
  [[nodiscard]] VirtualTime local_min() const noexcept;
  [[nodiscard]] std::size_t local_index(ObjectId id) const;
  /// Hands `event` to its local receiver and refreshes that runtime's entry
  /// in next_times_ (a receive may insert, annihilate or roll back).
  void deliver(const Event& event);
  /// Rebuilds next_times_ from every runtime.
  void refresh_next_times() noexcept;
  void ship_batch(LpId dst, std::vector<Event>&& events);
  /// Lowest-timestamp-first pick: the index of the runtime with the lowest
  /// next receive time (the lowest index among equals), or kNoRuntime when
  /// that time is infinity or lies past processing_bound().
  [[nodiscard]] std::size_t pick_lowest() const noexcept;
  /// Highest receive time currently processable (end_time and, when bounded,
  /// GVT + optimism window — further clamped under memory pressure).
  [[nodiscard]] VirtualTime processing_bound() const noexcept;
  /// GVT + emergency_window, overflow-clamped: the horizon below which held
  /// sends must always flow (deadlock freedom).
  [[nodiscard]] VirtualTime emergency_horizon() const noexcept;
  /// Samples the footprint, steps the pressure controller, applies the
  /// actuations (window clamp, held-send flush on exit). ctx_ must be valid.
  void sample_pressure();
  /// Ships every held send with receive time <= horizon (order preserved).
  void flush_held(VirtualTime horizon);
  /// Annihilates a held positive matching `anti` in place (the pair never
  /// reaches the wire). True when a match was found.
  bool annihilate_held(const Event& anti);
  /// Copies this LP's running totals into its live-registry cell (relaxed
  /// stores of absolute totals; see obs/live.hpp for the ordering argument).
  void publish_live() noexcept;
  /// Prices one piece of LP-level work: charges the cost model's `cost` to
  /// the clock and books it to `phase`. A no-op without a cost model.
  /// ctx_ must be valid.
  void price(obs::Phase phase, std::uint64_t platform::CostModel::*cost);

  LpId id_;
  KernelConfig config_;
  const platform::CostModel* costs_;  ///< null: nothing is priced
  obs::Recorder recorder_;
  std::vector<LpId> object_to_lp_;
  /// Input-queue node pool; declared before runtimes_ (their queues release
  /// nodes into it on destruction).
  SlabPool event_pool_;
  std::vector<std::unique_ptr<ObjectRuntime>> runtimes_;
  /// Global ObjectId -> index into runtimes_, or kNoRuntime for remote
  /// objects.
  std::vector<std::size_t> local_index_;
  /// next_times_[i] is runtimes_[i]->next_event_time(), kept current after
  /// every receive and process_next, so pick_lowest scans one flat array
  /// instead of asking every input queue.
  std::vector<VirtualTime> next_times_;
  std::vector<Event> local_inbox_;  ///< deferred same-LP deliveries
  comm::AggregationChannel<Event> channel_;
  GvtAgent gvt_;
  std::optional<core::OptimismWindowController> optimism_;
  std::uint64_t optimism_rolled_back_ = 0;
  std::optional<core::MemoryPressureController> pressure_;
  /// Cancelback-lite: positive remote sends deferred under Emergency, in
  /// send order. Their receive times feed local_min() so GVT can never
  /// overtake a held message.
  std::vector<Event> held_sends_;
  std::uint64_t pressure_enter_ns_ = 0;
  std::shared_ptr<util::BufferPool<Event>> batch_pool_;
  VirtualTime gvt_value_ = VirtualTime::zero();
  std::uint64_t last_epoch_start_ns_ = 0;
  bool epoch_ever_started_ = false;
  bool initialized_ = false;
  bool done_ = false;
  platform::LpContext* ctx_ = nullptr;  ///< valid only inside step()
  std::uint64_t events_since_sample_ = 0;
  std::uint64_t events_processed_total_ = 0;
  std::vector<LpSample> trace_;
  LpStats stats_;
  obs::live::LiveMetricsRegistry* live_ = nullptr;
};

}  // namespace otw::tw
