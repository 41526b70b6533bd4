// Multi-process engine: LPs sharded across worker processes over TCP.
//
// The coordinator (the calling process) binds a loopback TCP listener and
// forks one worker process per shard. Workers hold direct TCP links to every
// other worker (the peer mesh), dialed at startup from a coordinator-brokered
// peer directory (each HELLO carries the worker's own listener port; the
// HELLO-ACK answers with the full port table). Data frames travel one hop on
// the (src,dst) peer link; the coordinator keeps only control-plane duties
// (HELLO/RESULT/STATS, GVT tokens and announces, clock pings, the
// flight-recorder feed, and the migration protocol below).
//
// Each directed pair of shards exchanges data frames over exactly one ordered
// TCP stream (the peer link), which is the per-(src,dst) FIFO — the
// non-overtaking guarantee the Time Warp kernel requires (an anti-message can
// never overtake its positive message on the same path).
//
// LP -> shard placement is a table (DistributedConfig::placement, filled by
// a partitioner or defaulting to round-robin), and it can change mid-run:
// the coordinator may order an LP migrated (MigrationHooks), the source
// shard freezes it at a GVT cut and ships it over the peer link in a
// MIGRATE frame, and the coordinator rebinds routing with an epoch-tagged
// REBIND broadcast. Owner maps only ever advance to higher epochs, so
// forwarding chains for in-flight frames are acyclic and terminate.
//
// Inside one worker, a single-threaded shard driver round-robins the local
// LPs exactly like the other engines: local cross-LP messages move through
// in-process FIFO mailboxes, remote ones are serialized (wire.hpp) into
// length-prefixed frames. Mattern GVT runs unchanged: the token ring is over
// global LP ids (which interleave across shards), and the white/black
// message counts piggyback on the data frames themselves — each serialized
// event carries its Mattern color, so the receiving LP's GvtAgent counts it
// exactly as it would in-process.
//
// Workers report results as opaque payloads produced by a caller-supplied
// harvest callback (the kernel serializes digests/stats/traces with it), so
// the engine stays free of kernel types. Workers exit with _exit(); the
// coordinator joins them with waitpid and fails loudly on a non-zero child.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "otw/obs/trace.hpp"
#include "otw/platform/engine.hpp"

namespace otw::platform {

class WireReader;
class WireWriter;

/// Data-plane shape of the distributed engine. The peer mesh is the only
/// one and no engine reads this; the enum (and KernelConfig::Engine::
/// topology) stays only because perfbench/src/main.cpp names it.
enum class Topology : std::uint8_t {
  Mesh,  ///< direct shard-to-shard links; coordinator is control-plane only
};

struct DistributedConfig {
  /// Worker processes. Default LP -> shard placement is round-robin
  /// (lp % num_shards) so the GVT token ring alternates shards — the
  /// adversarial layout for the wire protocol; `placement` overrides it.
  std::uint32_t num_shards = 2;
  /// Initial LP -> shard table (index = LpId). Empty = round-robin
  /// (shard_of_lp). When set, must cover every LP with shard < num_shards;
  /// a partitioner (tw/partition.hpp) fills this from the model's send
  /// graph. Migration updates ownership at run time; this stays the
  /// *initial* placement.
  std::vector<std::uint32_t> placement;
  /// TCP port for the coordinator's loopback listener; 0 picks an ephemeral
  /// port (the default — no clashes between concurrent runs).
  std::uint16_t port = 0;
  /// Safety valve: abort a worker after this many LP step() invocations.
  std::uint64_t max_steps = 2'000'000'000;
  /// Longest a fully idle worker sleeps in poll() before rechecking local
  /// timer deadlines, microseconds.
  std::uint64_t idle_poll_us = 500;
  /// Per-shard wire trace-ring capacity (TraceKind::WireFrame records,
  /// shipped back with the shard result and merged into the run trace as
  /// "shard k wire" tracks). 0 = off.
  std::size_t wire_trace_capacity = 0;
};

/// Returns the shard owning `lp` under the round-robin placement.
[[nodiscard]] constexpr std::uint32_t shard_of_lp(LpId lp,
                                                  std::uint32_t num_shards) noexcept {
  return lp % num_shards;
}

/// Initial owner of `lp` under `config`: the placement table when present,
/// round-robin otherwise. Run-time ownership (after migrations) lives in the
/// engine's epoch-tagged owner map, not here.
[[nodiscard]] inline std::uint32_t initial_owner_of(
    LpId lp, const DistributedConfig& config) noexcept {
  if (lp < config.placement.size()) {
    return config.placement[lp];
  }
  return shard_of_lp(lp, config.num_shards);
}

/// Implemented by LP runners that can be moved between shards mid-run. The
/// engine freezes the LP on the source shard (migrate_out serializes its
/// whole dynamic state into a MIGRATE frame payload; the LP must roll back
/// to its GVT cut and drain in-flight local work first) and revives it on
/// the destination (migrate_in consumes the same byte stream). Both run
/// between step() calls, with `ctx` bound to the calling shard's driver.
/// migrate_out returns false to decline the move (the LP completed while
/// draining its backlog); the writer's partial output is then discarded.
class MigratableLp {
 public:
  virtual ~MigratableLp() = default;
  [[nodiscard]] virtual bool migrate_out(LpContext& ctx, WireWriter& writer) = 0;
  virtual void migrate_in(LpContext& ctx, WireReader& reader) = 0;

  // --- shard-level checkpoint/restart (fault tolerance) ---
  // The snapshot protocol reuses the migration machinery but keeps the LP
  // alive: settle lets the LP absorb in-flight traffic without processing
  // new events, cut freezes it at the global GVT cut (the same forced
  // rollback migrate_out performs), encode serializes the frozen LP in the
  // MIGRATE revival layout WITHOUT consuming it, and restore rewinds a
  // *live* LP back to a previously encoded cut (migrate_in semantics plus
  // dropping any post-cut aggregation batches). Default implementations
  // make non-checkpointable runners decline every snapshot.

  /// Absorbs pending traffic (drain inboxes, forward GVT tokens, flush
  /// aggregation windows) without processing events. Returns true when any
  /// message or send was handled — i.e. the LP was not yet quiescent.
  virtual bool snapshot_settle(LpContext& ctx) {
    static_cast<void>(ctx);
    return false;
  }
  /// Rolls the LP back to its current GVT cut and flushes every held send
  /// and aggregation batch (their antis/events re-enter the settle loop).
  /// Returns false to decline (GVT still zero, or the LP completed).
  [[nodiscard]] virtual bool snapshot_cut(LpContext& ctx) {
    static_cast<void>(ctx);
    return false;
  }
  /// Serializes the cut LP without consuming it (MIGRATE revival layout).
  /// Only valid after a successful snapshot_cut + re-settle.
  virtual void snapshot_encode(LpContext& ctx, WireWriter& writer) {
    static_cast<void>(ctx);
    static_cast<void>(writer);
  }
  /// Rewinds a live LP to an encoded cut (survivor side of a recovery) or
  /// initializes a fresh replacement from one (migrate_in semantics).
  virtual void snapshot_restore(LpContext& ctx, WireReader& reader) {
    static_cast<void>(ctx);
    static_cast<void>(reader);
  }
  /// Virtual time of the cut snapshot_cut froze this LP at. After global
  /// quiescence every LP of every shard agrees on this value (no GVT epoch
  /// can be in flight), so the driver reads it from any accepting LP.
  [[nodiscard]] virtual std::uint64_t snapshot_gvt_ticks() const noexcept {
    return 0;
  }
};

/// One migration order: move `lp` to shard `to_shard`.
struct MigrationDecision {
  LpId lp = 0;
  std::uint32_t to_shard = 0;
};

/// On-line migration control (>= 2 shards). When enabled, the coordinator
/// calls `decide` every period_ms with the current owner map; a returned
/// decision triggers the MIGRATE_CMD -> MIGRATE -> MIGRATED -> REBIND
/// sequence. At most one migration is in flight at a time, and the
/// coordinator stops deciding once any shard first drains (endgame).
struct MigrationHooks {
  /// Decision cadence; 0 disables migration entirely.
  std::uint32_t period_ms = 0;
  /// Coordinator side: pick the next migration, or nullopt to hold.
  /// `owners[lp]` is the current owner shard. Must not pick an LP whose
  /// owner equals the target. Called on the relay loop thread.
  std::function<std::optional<MigrationDecision>(
      const std::vector<std::uint32_t>& owners)>
      decide;

  [[nodiscard]] bool enabled() const noexcept {
    return period_ms > 0 && static_cast<bool>(decide);
  }
};

/// Live health streaming over the worker<->coordinator streams: when
/// period_ms > 0, every worker emits a STATS control frame (tag 0xFF03)
/// carrying whatever bytes `encode` returns (the kernel serializes its live
/// registry snapshot with it), and the coordinator hands each payload to
/// `on_stats` instead of relaying it. The engine treats payloads as opaque,
/// mirroring HarvestFn — no kernel or obs types cross this interface.
struct LiveStatsHooks {
  /// STATS cadence per worker; 0 disables the stream entirely.
  std::uint32_t period_ms = 0;
  /// Worker side: serialize the shard's current live state (called in the
  /// worker process between LP steps; `shard` identifies the caller, exactly
  /// like HarvestFn).
  std::function<std::vector<std::uint8_t>(std::uint32_t shard)> encode;
  /// Coordinator side: consume one shard's payload (called on the relay
  /// loop thread; must be fast or it backpressures the relay).
  std::function<void(std::uint32_t shard, const std::uint8_t* data,
                     std::size_t len)>
      on_stats;
  /// Latency-attribution bank, allocated pre-fork so every process inherits
  /// the same layout. Workers record their seams into their own (COW) copy
  /// and ship the contents home in the RESULT; the coordinator records
  /// relay residency into the parent copy. May be set with period_ms == 0
  /// (e.g. benches that want latency numbers without a live stream). Null
  /// disables all recording. Arming the bank also enables clock-offset
  /// refresh pings (TIME frames) on the worker streams.
  obs::hist::Bank* bank = nullptr;
  /// Coordinator side, optional: observe every relayed control frame
  /// (flight recorder feed). Called on the relay loop thread after the
  /// frame is queued to its destination; must be fast.
  std::function<void(std::uint32_t src_shard, std::uint32_t dst_shard,
                     std::uint16_t tag, std::uint32_t frame_len,
                     std::uint64_t send_ns, std::uint64_t coord_now_ns)>
      on_relay;
  /// Worker side, optional: runs once in each freshly forked worker before
  /// it connects (the kernel installs the flight recorder's fatal-signal
  /// handlers here).
  std::function<void(std::uint32_t shard)> on_worker_start;

  [[nodiscard]] bool enabled() const noexcept {
    return period_ms > 0 && encode && on_stats;
  }
};

/// Shard-level checkpoint/restart (>= 2 shards; mutually exclusive with
/// migration — owners stay at the initial placement so a snapshot never has
/// to version the owner map). When enabled, the coordinator periodically
/// runs the SNAPSHOT protocol (SNAP_CTL stop -> settle -> cut -> settle ->
/// serialize -> resume; see DESIGN.md section 8c), retains the last complete
/// epoch (each worker also keeps its own shard's blob for self-restore), and
/// on a worker death forks a replacement, restores every shard to the cut
/// and resumes — the run completes with digests bit-identical to a
/// failure-free execution.
struct FaultHooks {
  bool enabled = false;
  /// Give up (rethrow the legacy failure) after this many recoveries.
  std::uint32_t max_recoveries = 4;
  /// Abort (discard) a snapshot epoch whose total blob bytes exceed this;
  /// 0 = unlimited.
  std::uint64_t max_snapshot_bytes = 0;
  /// Milliseconds from run start to the first snapshot attempt, and the
  /// fallback gap when `next_gap_ms` is unset.
  std::uint32_t initial_gap_ms = 50;
  /// Cadence controller: called after each complete epoch with its measured
  /// wall cost and size; returns the ms gap until the next snapshot (the
  /// kernel backs this with a Bringmann-style schedule controller).
  std::function<std::uint32_t(std::uint64_t cost_ns, std::uint64_t bytes)>
      next_gap_ms;
  /// Spill directory for complete epochs ("OTWSNAP1" container, see
  /// wire.hpp kSnapshotManifestFields); empty = coordinator memory only.
  std::string spill_dir;
  /// Watchdog -> engine kill request: when set, the coordinator SIGKILLs
  /// the worker of the shard stored here (then recovers it). Written by the
  /// monitor thread, consumed (reset to -1) by the coordinator loop.
  std::shared_ptr<std::atomic<std::int32_t>> kill_request;
  /// Chaos injection for tests/CI: when >= 0, the coordinator SIGKILLs this
  /// shard's worker right after snapshot epoch `inject_kill_after_epoch`
  /// completes (deterministic mid-run failure).
  std::int32_t inject_kill_shard = -1;
  std::uint32_t inject_kill_after_epoch = 1;
};

class DistributedEngine {
 public:
  /// Serializes whatever the caller wants back from a finished shard
  /// (invoked in the worker process, once all its LPs are Done). `owners`
  /// is the LP -> shard map at harvest time; with migration enabled a shard
  /// may finish owning LPs its initial placement never gave it.
  using HarvestFn = std::function<std::vector<std::uint8_t>(
      std::uint32_t shard, const std::vector<std::uint32_t>& owners)>;

  explicit DistributedEngine(DistributedConfig config)
      : config_(std::move(config)) {}

  /// Drives all LPs to completion across config.num_shards processes.
  /// Returns in the coordinator only; worker processes _exit() internally.
  /// Throws std::runtime_error on socket failures, worker crashes or step
  /// overrun. `harvest` may be null (no shard payloads collected); `live`
  /// may be default (no STATS streaming); `migration` may be default (static
  /// placement; requires num_shards >= 2 when enabled).
  EngineRunResult run(const std::vector<LpRunner*>& lps, HarvestFn harvest,
                      LiveStatsHooks live = {}, MigrationHooks migration = {},
                      FaultHooks fault = {});

  /// Opaque per-shard payloads produced by the harvest callback, indexed by
  /// shard id. Valid after run() returns. (Per-shard wire trace logs, when
  /// enabled, ride in EngineRunResult::worker_traces with `lp` = shard id.)
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& shard_payloads()
      const noexcept {
    return payloads_;
  }

  [[nodiscard]] const DistributedConfig& config() const noexcept { return config_; }

 private:
  DistributedConfig config_;
  std::vector<std::vector<std::uint8_t>> payloads_;
};

}  // namespace otw::platform
