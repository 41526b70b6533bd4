// Per-object Time Warp machinery: event processing, periodic checkpointing,
// rollback with coast-forward, aggressive/lazy/dynamic cancellation, and the
// per-object feedback controllers.
#pragma once

#include <memory>
#include <vector>

#include "otw/core/cancellation_controller.hpp"
#include "otw/core/checkpoint_controller.hpp"
#include "otw/obs/recorder.hpp"
#include "otw/platform/cost_model.hpp"
#include "otw/tw/event.hpp"
#include "otw/tw/object.hpp"
#include "otw/tw/checkpoint_store.hpp"
#include "otw/tw/pending_set.hpp"
#include "otw/tw/queues.hpp"
#include "otw/tw/stats.hpp"
#include "otw/tw/telemetry.hpp"

namespace otw::platform {
class WireReader;
class WireWriter;
}  // namespace otw::platform

namespace otw::tw {

/// Services an ObjectRuntime needs from its logical process.
class LpServices {
 public:
  virtual ~LpServices() = default;

  /// Takes ownership of a finished outgoing event (positive or anti) and
  /// routes it: deferred local delivery for same-LP receivers, the
  /// aggregation layer for remote ones.
  virtual void route(Event&& event) = 0;

  /// Platform clock / work accounting (modeled or real nanoseconds).
  [[nodiscard]] virtual std::uint64_t wall_now_ns() const noexcept = 0;
  virtual void wall_charge(std::uint64_t ns) noexcept = 0;

  [[nodiscard]] virtual VirtualTime end_time() const noexcept = 0;

  /// Notification that a rollback undid `undone` processed events (feeds the
  /// LP-level optimism-window controller). Default: ignored.
  virtual void note_rollback(std::size_t undone) noexcept {
    static_cast<void>(undone);
  }

  /// The LP's observability sink (trace ring + phase profiler). The default
  /// is a shared disabled recorder, so test stubs record nothing.
  [[nodiscard]] virtual obs::Recorder& recorder() noexcept {
    static obs::Recorder disabled;
    return disabled;
  }

  /// The LP's slab pool for input-queue nodes (null: use the global heap).
  /// Must outlive every ObjectRuntime built against these services.
  [[nodiscard]] virtual SlabPool* event_pool() noexcept { return nullptr; }

  /// Pending-event-set implementation for every input queue this LP's
  /// runtimes build (KernelConfig::engine.queue; see pending_set.hpp).
  [[nodiscard]] virtual QueueKind queue_kind() const noexcept {
    return QueueKind::Multiset;
  }
};

struct ObjectRuntimeConfig {
  /// Static checkpoint interval chi (1 = copy state after every event).
  std::uint32_t checkpoint_interval = 1;
  /// Controller-trajectory recording (off by default).
  TelemetryConfig telemetry;
  /// Checkpoint representation: full copies or byte deltas (paper ref [7]).
  StateSaving state_saving = StateSaving::Copy;
  /// Incremental mode: saves between full snapshots.
  std::uint32_t full_snapshot_interval = 32;
  /// When true, chi is driven by the CheckpointIntervalController instead.
  bool dynamic_checkpointing = false;
  core::CheckpointControlConfig checkpoint_control;
  core::CancellationControlConfig cancellation;
  /// Bound on the passive-comparison list used to maintain HR under
  /// aggressive cancellation.
  std::size_t passive_compare_cap = 64;
};

class ObjectRuntime final : public ObjectContext {
 public:
  /// `costs` prices the kernel's own work (event overhead, saves, rollbacks,
  /// comparisons, control invocations) on the LP's clock. Only SimulatedNow
  /// models time, so every other engine passes null and nothing is priced.
  /// A non-null model must outlive the runtime.
  ObjectRuntime(ObjectId id, std::unique_ptr<SimulationObject> object,
                LpServices& lp, const ObjectRuntimeConfig& config,
                const platform::CostModel* costs = nullptr);

  /// Creates the initial state, lets the object schedule its first events
  /// and records the time-zero checkpoint.
  void initialize();

  /// Receive time of the next unprocessed event (infinity when none).
  [[nodiscard]] VirtualTime next_event_time() const noexcept {
    return input_->next_unprocessed_time();
  }

  /// This object's GVT contribution: the next unprocessed event (clamped by
  /// the simulation horizon) AND the earliest receive time among
  /// lazy-pending entries (anti-messages this object may still send).
  [[nodiscard]] VirtualTime gvt_contribution(VirtualTime end_time) const noexcept;

  /// Processes the next unprocessed event if there is one at/below the
  /// simulation end time. Returns false when there is nothing to do.
  bool process_next();

  /// Delivers one incoming event (positive or anti-message). May trigger a
  /// rollback, which may route anti-messages through LpServices.
  void receive(const Event& event);

  /// Resolves lazy-pending and passive entries that can no longer be
  /// regenerated. Called when the object goes idle (and internally before
  /// each processed event).
  void idle_flush();

  /// Reclaims history below the new GVT; accumulates committed events.
  void fossil_collect(VirtualTime gvt);

  /// Commits remaining history and calls the object's finalize().
  void finalize();

  /// First phase of an epoch cut: rolls back every processed event at/after
  /// the GVT cut `gvt` (cancelling their outputs per the cancellation
  /// strategy) and force-misses the comparison lists. At GVT 0 the cut lies
  /// just after the initial state, which no real event precedes. The
  /// resulting anti-messages may target sibling runtimes of the same LP, so
  /// the LP freezes ALL of its runtimes first, then drains the deferred
  /// local deliveries (each anti annihilates a now-unprocessed event — no
  /// further rollback), and only then serializes: an anti-message must
  /// never reach an already-serialized sibling.
  void migration_freeze(VirtualTime gvt);

  /// Serializes the frozen runtime's travelling state (the `runtimes` group
  /// of the MIGRATE frame; DESIGN.md section 8b) and leaves every queue,
  /// stat and controller untouched. Requires migration_freeze() and a
  /// settled local inbox.
  void encode_frozen(platform::WireWriter& w);

  /// Restore: resets every queue/checkpoint structure and rebuilds the
  /// runtime from encode_frozen's bytes. `gvt` is the same cut; the
  /// restored state is checkpointed at Position::before_all(), which any
  /// legal rollback (>= gvt, below every shipped event) can restore.
  void migrate_in(platform::WireReader& r, VirtualTime gvt);

  // --- ObjectContext (application-facing) ---
  [[nodiscard]] ObjectId self() const noexcept override { return id_; }
  [[nodiscard]] VirtualTime now() const noexcept override { return lvt_; }
  [[nodiscard]] ObjectState& state() noexcept override { return *current_state_; }
  void send(ObjectId dest, VirtualTime::rep delay, const Payload& payload) override;
  void charge(std::uint64_t ns) noexcept override { lp_.wall_charge(ns); }

  // --- introspection (stats, tests) ---
  [[nodiscard]] const ObjectStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ObjectStats snapshot_stats() const;
  [[nodiscard]] std::uint64_t state_digest() const noexcept {
    return current_state_->digest();
  }
  [[nodiscard]] const SimulationObject& object() const noexcept { return *object_; }
  [[nodiscard]] const OutputQueue& output_queue() const noexcept { return output_; }
  [[nodiscard]] std::size_t lazy_pending_size() const noexcept {
    return lazy_pending_.size();
  }
  [[nodiscard]] const core::CancellationController& cancellation() const noexcept {
    return cancel_;
  }
  [[nodiscard]] const core::CheckpointIntervalController& checkpoint_controller()
      const noexcept {
    return ckpt_;
  }
  [[nodiscard]] std::uint32_t checkpoint_interval() const noexcept {
    return config_.dynamic_checkpointing ? ckpt_.interval()
                                         : config_.checkpoint_interval;
  }
  [[nodiscard]] const std::vector<ObjectSample>& trace() const noexcept {
    return trace_;
  }
  /// Current memory footprint of this object's optimistic history (exact
  /// byte accounting; the LP sums these against its budget).
  [[nodiscard]] MemoryStats memory_footprint() const noexcept;

 private:
  void execute(const Event& event);
  /// Rolls back to before `target`. `cause` is the message that forced the
  /// rollback (straggler or anti-message) — traced so the analysis layer can
  /// chain cascades across LPs. cancel_at_target additionally cancels
  /// outputs caused by the event AT `target` (annihilation: that event will
  /// never re-execute).
  void rollback(const Position& target, const Event& cause,
                bool cancel_at_target = false);
  void coast_forward(const Position& target);
  void cancel_invalid_outputs(std::vector<OutputEntry>&& invalid);
  void purge_entries_caused_by(const Position& cause);
  void flush_resolved_before(const Position& pos);
  void maybe_checkpoint(const Position& pos);
  void save_state(const Position& pos);
  void emit(Event&& event);
  void send_anti(const Event& original);
  /// Feeds one comparison outcome to the cancellation controller and traces
  /// the A<->L switch (with the triggering Hit Ratio) if one resulted.
  void note_comparison(bool hit);

  ObjectId id_;
  std::unique_ptr<SimulationObject> object_;
  LpServices& lp_;
  obs::Recorder& rec_;
  ObjectRuntimeConfig config_;
  const platform::CostModel* costs_;  ///< null: nothing is priced

  /// The working state; a rollback restores a checkpoint into it in place.
  std::unique_ptr<ObjectState> current_state_;
  /// Input queue: every positive event at/after the last fossil-collected
  /// checkpoint, with the processed/unprocessed boundary (pending_set.hpp).
  std::unique_ptr<PendingEventSet> input_;
  OutputQueue output_;
  std::unique_ptr<CheckpointStore> states_;
  /// Outputs invalidated by a lazy-mode rollback, awaiting regeneration or
  /// cancellation; sorted by cause.
  std::vector<OutputEntry> lazy_pending_;
  /// Copies of aggressively cancelled outputs kept only to maintain HR
  /// ("lazy aggressive hits"); sorted by cause.
  std::vector<OutputEntry> passive_;

  core::CheckpointIntervalController ckpt_;
  core::CancellationController cancel_;

  std::uint64_t instance_seq_ = 0;  ///< never rolled back
  VirtualTime lvt_ = VirtualTime::zero();
  Position current_pos_{};  ///< position of the event being processed
  std::uint32_t sends_this_event_ = 0;  ///< derive_send_seq index
  std::uint32_t events_since_save_ = 0;
  bool processing_ = false;
  bool suppress_sends_ = false;  ///< true during coast-forward
  VirtualTime gvt_bound_ = VirtualTime::zero();
  std::uint64_t events_since_sample_ = 0;

  std::vector<ObjectSample> trace_;
  ObjectStats stats_;
};

}  // namespace otw::tw
