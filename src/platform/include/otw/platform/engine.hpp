// Execution-platform abstraction.
//
// A logical process (LP) of the Time Warp kernel is written as a
// *step-based, non-blocking* state machine (LpRunner). An Engine owns the
// LPs, drives their step() functions, transports messages between them and
// supplies each LP with a clock. Three engines are provided:
//
//   SimulatedNowEngine - deterministic direct-execution simulation of a
//       network of workstations: each LP has a modeled clock advanced by
//       LpContext::charge(); the engine always steps the LP with the
//       smallest modeled clock, and message arrival times follow its cost
//       model. Reported execution time = makespan of the modeled machine.
//       This is the substrate for all paper figures, and the only engine
//       on which modeled cost means anything.
//
//   ThreadedEngine - an M-worker : N-LP work-stealing scheduler on real
//       threads and wall clocks: per-worker run queues with lock-free
//       stealing, MPSC mailboxes, a timer wheel for request_wakeup and an
//       event-driven parking lot (no idle polling). Validates the kernel
//       under true concurrency and scales to LP counts far beyond the OS
//       thread limit.
//
//   DistributedEngine - LPs sharded over fork()ed worker processes joined
//       by a TCP peer mesh, on real wall clocks (distributed.hpp).
//
// Every transport is non-overtaking per (source, destination) pair, which
// the kernel relies on (an anti-message never arrives before the positive
// message it cancels).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "otw/obs/hist.hpp"
#include "otw/obs/trace.hpp"

namespace otw::platform {

using LpId = std::uint32_t;

class WireWriter;

/// Base class of anything an LP sends to another LP. The engine only needs
/// the wire size (for transmission cost); receivers dispatch on the
/// registered wire tag (see wire.hpp). In-process engines move the object
/// itself; the distributed engine serializes via encode_wire() and rebuilds
/// it through the WireRegistry on the receiving shard.
class EngineMessage {
 public:
  virtual ~EngineMessage() = default;
  /// Payload bytes of this message (SimulatedNow prices them).
  [[nodiscard]] virtual std::uint64_t wire_bytes() const noexcept = 0;
  /// Registered type tag (wire.hpp), or kNoWireTag (0) for messages that
  /// cannot leave the process. Cross-process transports refuse untagged
  /// messages with a descriptive error instead of silently dropping them.
  [[nodiscard]] virtual std::uint16_t wire_tag() const noexcept { return 0; }
  /// Serializes the payload (header excluded). Only called when wire_tag()
  /// is non-zero; the default aborts so a tagged type cannot forget it.
  virtual void encode_wire(WireWriter& writer) const;
  /// Control-plane marker (GVT tokens/announces). The distributed transport
  /// flags such frames on the wire and counts them separately from data.
  [[nodiscard]] virtual bool wire_control() const noexcept { return false; }

  /// Transport telemetry stamp: engine clock at enqueue into a mailbox /
  /// inbox, consumed by the MailboxDwell histogram at poll(). Only written
  /// when the attribution plane is armed; never observable by LP logic.
  std::uint64_t obs_enqueue_ns = 0;
};

/// What an LP reports after one step() call.
enum class StepStatus : std::uint8_t {
  Active,  ///< did useful work or has more pending; step again soon
  Idle,    ///< nothing to do until a new message arrives
  Done,    ///< simulation finished for this LP; never step again
};

/// Per-step services the engine hands to the LP.
class LpContext {
 public:
  virtual ~LpContext() = default;

  /// This LP's identity.
  [[nodiscard]] virtual LpId self() const noexcept = 0;
  /// Number of LPs in the simulation.
  [[nodiscard]] virtual LpId num_lps() const noexcept = 0;

  /// Current wall-clock of this LP in nanoseconds (modeled or real).
  [[nodiscard]] virtual std::uint64_t now_ns() const noexcept = 0;

  /// Accounts `ns` nanoseconds of CPU work to this LP. On the simulated
  /// engine this advances the modeled clock; on the threaded engine it is
  /// a busy spin when ThreadedConfig::spin_on_charge is set and a no-op
  /// otherwise; on the distributed engine it is always a no-op.
  virtual void charge(std::uint64_t ns) noexcept = 0;

  /// Ships a message to `dst` (self-sends are allowed). The simulated
  /// engine charges the sender-side send cost itself.
  virtual void send(LpId dst, std::unique_ptr<EngineMessage> msg) = 0;

  /// Retrieves the next deliverable message, or nullptr. The simulated
  /// engine charges the receiver-side receive cost itself.
  virtual std::unique_ptr<EngineMessage> poll() = 0;

  /// Asks to be stepped again no later than `abs_ns` even if Idle is
  /// returned and no message arrives (e.g. an aggregation window expiring).
  /// Valid for the current step only. Every engine honors it: the simulated
  /// engine folds it into its ready-time ordering, the threaded engine parks
  /// the LP on a timer wheel.
  virtual void request_wakeup(std::uint64_t abs_ns) noexcept {
    static_cast<void>(abs_ns);
  }

  /// Yield hint: true when the engine would rather have this LP return from
  /// step() soon (other LPs are waiting on the same worker). Purely advisory
  /// — an LP may ignore it; honoring it improves fairness when workers are
  /// outnumbered by LPs.
  [[nodiscard]] virtual bool should_yield() const noexcept { return false; }
};

/// A logical process as seen by the engine.
class LpRunner {
 public:
  virtual ~LpRunner() = default;
  /// Performs a bounded amount of work. Must not block.
  virtual StepStatus step(LpContext& ctx) = 0;
};

/// Per-worker scheduler counters (threaded engine).
struct WorkerStats {
  std::uint64_t steps = 0;          ///< LP step() calls run on this worker
  std::uint64_t steals = 0;         ///< LPs popped from another worker's queue
  std::uint64_t steal_fails = 0;    ///< full sweeps that found nothing to steal
  std::uint64_t parks = 0;          ///< times this worker parked
  std::uint64_t wakes = 0;          ///< unparks caused by a wake token
  std::uint64_t timer_fires = 0;    ///< timer-wheel entries this worker fired
  std::uint64_t yields = 0;         ///< steps where the yield hint was taken
};

/// Scheduler-level telemetry (empty unless produced by a worker-pool engine).
struct SchedulerStats {
  std::uint32_t num_workers = 0;
  std::uint64_t mailbox_overflows = 0;  ///< messages that took the backpressure path
  std::uint64_t timers_scheduled = 0;   ///< request_wakeup deadlines armed
  std::vector<WorkerStats> workers;

  [[nodiscard]] std::uint64_t total_steals() const noexcept {
    std::uint64_t n = 0;
    for (const WorkerStats& w : workers) {
      n += w.steals;
    }
    return n;
  }
  [[nodiscard]] std::uint64_t total_parks() const noexcept {
    std::uint64_t n = 0;
    for (const WorkerStats& w : workers) {
      n += w.parks;
    }
    return n;
  }
};

/// Socket-transport counters (distributed engine only). Frames are physical
/// wire messages (length-prefixed, see wire.hpp); one frame can carry a whole
/// DyMA aggregate, which is what the aggregated-vs-unaggregated frame counts
/// in BENCH_distributed.json measure.
struct DistStats {
  std::uint32_t num_shards = 0;
  std::uint64_t frames_sent = 0;       ///< frames written to the socket
  std::uint64_t frames_received = 0;   ///< frames decoded from the socket
  std::uint64_t frames_relayed = 0;    ///< frames forwarded by the coordinator
  std::uint64_t bytes_sent = 0;        ///< header + payload bytes written
  std::uint64_t bytes_received = 0;    ///< header + payload bytes decoded
  std::uint64_t gvt_token_frames = 0;  ///< control frames (GVT tokens/announces)
  std::uint64_t stats_frames = 0;      ///< live STATS frames the coordinator absorbed
  std::uint64_t migrations = 0;        ///< LPs moved between shards mid-run
  std::uint64_t serialize_ns = 0;      ///< wall time spent encoding payloads
  std::uint64_t deserialize_ns = 0;    ///< wall time spent decoding payloads
  std::uint64_t snapshots_taken = 0;   ///< complete snapshot epochs recorded
  std::uint64_t snapshot_bytes = 0;    ///< total bytes across recorded epochs

  void add(const DistStats& other) noexcept {
    frames_sent += other.frames_sent;
    frames_received += other.frames_received;
    frames_relayed += other.frames_relayed;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    gvt_token_frames += other.gvt_token_frames;
    stats_frames += other.stats_frames;
    migrations += other.migrations;
    serialize_ns += other.serialize_ns;
    deserialize_ns += other.deserialize_ns;
    snapshots_taken += other.snapshots_taken;
    snapshot_bytes += other.snapshot_bytes;
  }
};

/// One completed shard recovery (distributed engine with fault tolerance).
/// The coordinator records an incident when a worker process dies mid-run
/// and every shard has been rolled back to the last complete snapshot cut.
struct RecoveryIncident {
  std::uint32_t epoch = 0;       ///< snapshot epoch the run was restored from
  std::uint32_t lost_shard = 0;  ///< shard whose worker process died
  std::uint64_t restore_ns = 0;  ///< death detected -> all shards resumed
  std::uint64_t bytes = 0;       ///< snapshot bytes replayed into the replacement
  std::uint64_t gvt_ticks = 0;   ///< virtual time of the restored cut
};

/// Per-shard steady-clock alignment estimated over the worker stream
/// (distributed engine only). `offset_ns` maps a worker clock reading into
/// the coordinator's clock domain (coordinator = worker + offset); the
/// estimate is the ping RTT midpoint, so its error is bounded by rtt_ns/2.
struct ShardClock {
  std::int64_t offset_ns = 0;
  std::uint64_t rtt_ns = 0;
};

/// Result of driving a set of LPs to completion.
struct EngineRunResult {
  /// Modeled makespan (simulated engine) or elapsed wall time (threaded),
  /// in nanoseconds.
  std::uint64_t execution_time_ns = 0;
  /// Total physical messages transported between LPs.
  std::uint64_t physical_messages = 0;
  /// Total wire bytes transported between LPs.
  std::uint64_t wire_bytes = 0;
  /// Total engine step() invocations.
  std::uint64_t steps = 0;
  /// Worker-pool counters (default-empty on engines without a worker pool).
  SchedulerStats scheduler;
  /// Socket-transport counters (default-empty on in-process engines).
  DistStats dist;
  /// Per-worker scheduler trace rings (park slices, steals, wakes), drained.
  /// Empty unless the engine was configured with a trace capacity. The `lp`
  /// field holds the WORKER index; the kernel offsets it past the LP ids
  /// before merging into a RunResult trace.
  std::vector<obs::LpTraceLog> worker_traces;
  /// Attribution histograms harvested at run end (empty unless the caller
  /// armed a hist::Bank). Distributed: per-shard entries from each RESULT
  /// plus coordinator relay entries stamped shard = num_shards.
  std::vector<obs::hist::Entry> hists;
  /// Clock alignment per shard (distributed engine only; index = shard).
  std::vector<ShardClock> shard_clocks;
  /// Wall-clock shift, per shard, that rebases that shard's driver-relative
  /// trace timestamps onto the coordinator's run-relative timeline (already
  /// applied to worker_traces; the kernel applies it to harvested LP traces).
  std::vector<std::int64_t> shard_trace_shift_ns;
  /// LP -> shard ownership at run end (distributed engine only; index =
  /// LpId). Equals the initial placement unless on-line migration moved LPs;
  /// the kernel keys its harvest merge and trace rebasing on this, never on
  /// the static placement.
  std::vector<std::uint32_t> final_owners;
  /// Shard recoveries performed mid-run (distributed engine with
  /// FaultHooks enabled; empty otherwise), in occurrence order.
  std::vector<RecoveryIncident> recoveries;
};

}  // namespace otw::platform
