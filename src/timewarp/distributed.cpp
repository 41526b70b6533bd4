// Kernel side of the distributed engine: assembles the model, hands the LP
// runners to platform::DistributedEngine, and (de)serializes per-shard
// results. The harvest half runs in the worker process after its LPs are
// Done; the merge half runs in the coordinator. Fork guarantees both halves
// share one ABI, so the trivially-copyable stats ship as raw bytes.
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>
#include <type_traits>

#include "kernel_internal.hpp"
#include "otw/obs/flight.hpp"
#include "otw/platform/wire.hpp"
#include "otw/tw/wire.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/net.hpp"
#include "wire_codec_internal.hpp"

namespace otw::tw::detail {

namespace {

using platform::WireReader;
using platform::WireWriter;

static_assert(std::is_trivially_copyable_v<LpStats>);
static_assert(std::is_trivially_copyable_v<ObjectStats>);
static_assert(std::is_trivially_copyable_v<obs::PhaseTotals>);
static_assert(std::is_trivially_copyable_v<LpSample>);
static_assert(std::is_trivially_copyable_v<ObjectSample>);

/// Serializes every LP this shard owns at harvest time (runs in the worker
/// process). `owners` is the engine's live LP -> shard map: with on-line
/// migration a shard harvests LPs its initial placement never gave it.
void encode_shard(WireWriter& w, const Assembly& assembly, std::uint32_t shard,
                  const std::vector<std::uint32_t>& owners) {
  std::uint32_t n_local = 0;
  for (LpId lp = 0; lp < assembly.lps.size(); ++lp) {
    n_local += owners[lp] == shard ? 1 : 0;
  }
  w.u32(n_local);
  for (LpId lp = 0; lp < assembly.lps.size(); ++lp) {
    if (owners[lp] != shard) {
      continue;
    }
    LogicalProcess& proc = *assembly.lps[lp];
    OTW_REQUIRE_MSG(proc.done(), "harvesting a shard whose LPs are not Done");
    w.u32(lp);
    w.u64(proc.gvt().ticks());
    write_pod(w, proc.snapshot_lp_stats());
    obs::Recorder& recorder = proc.recorder();
    w.u8(recorder.tracing() ? 1 : 0);
    if (recorder.tracing()) {
      const obs::LpTraceLog log = recorder.drain_trace();
      w.u64(log.dropped);
      write_pod_vector(w, log.records);
    }
    w.u8(recorder.profiling() ? 1 : 0);
    if (recorder.profiling()) {
      write_pod(w, recorder.phase_totals());
    }
    write_pod_vector(w, proc.trace());
    w.u32(static_cast<std::uint32_t>(proc.runtimes().size()));
    for (const auto& runtime : proc.runtimes()) {
      w.u32(runtime->self());
      w.u64(runtime->state_digest());
      write_pod(w, runtime->snapshot_stats());
      write_pod_vector(w, runtime->trace());
    }
  }
}

/// One LP's harvested state, parked until all shards are in so the merged
/// result can be laid out in LP-id order regardless of shard interleaving.
struct HarvestedLp {
  VirtualTime gvt = VirtualTime::zero();
  LpStats stats;
  std::optional<obs::LpTraceLog> trace;
  std::optional<obs::PhaseTotals> phases;
  std::vector<LpSample> samples;
};

void decode_shard(WireReader& r, std::vector<std::optional<HarvestedLp>>& lps,
                  RunResult& result) {
  const std::uint32_t n_local = r.u32();
  for (std::uint32_t i = 0; i < n_local; ++i) {
    const LpId lp = r.u32();
    OTW_REQUIRE_MSG(lp < lps.size() && !lps[lp].has_value(),
                    "shard result names an unknown or duplicate LP");
    HarvestedLp harvested;
    harvested.gvt = VirtualTime(r.u64());
    harvested.stats = read_pod<LpStats>(r);
    if (r.u8() != 0) {
      obs::LpTraceLog log;
      log.lp = lp;
      log.dropped = r.u64();
      log.records = read_pod_vector<obs::TraceRecord>(r);
      harvested.trace = std::move(log);
    }
    if (r.u8() != 0) {
      harvested.phases = read_pod<obs::PhaseTotals>(r);
    }
    harvested.samples = read_pod_vector<LpSample>(r);
    const std::uint32_t n_objects = r.u32();
    for (std::uint32_t k = 0; k < n_objects; ++k) {
      const ObjectId id = r.u32();
      OTW_REQUIRE_MSG(id < result.digests.size(),
                      "shard result names an unknown object");
      result.digests[id] = r.u64();
      result.stats.objects[id] = read_pod<ObjectStats>(r);
      result.telemetry.objects[id] =
          ObjectTrace{id, read_pod_vector<ObjectSample>(r)};
    }
    lps[lp] = std::move(harvested);
  }
}

}  // namespace

RunResult run_distributed_impl(const Model& model, const KernelConfig& config,
                               platform::DistributedConfig dist_config) {
  // Children inherit the registry through fork, so registering here (before
  // DistributedEngine::run forks) covers coordinator and every shard.
  register_wire_messages();

  const auto start = std::chrono::steady_clock::now();
  Assembly assembly = assemble(model, config);
  if (config.observability.tracing && dist_config.wire_trace_capacity == 0) {
    dist_config.wire_trace_capacity = config.observability.ring_capacity;
  }

  platform::DistributedEngine engine(dist_config);
  const std::uint32_t num_shards = dist_config.num_shards;

  // Live plane: every forked worker inherits its own copy of the registry
  // (assemble allocates it pre-fork), encodes snapshots of it into STATS
  // frames, and the coordinator folds the decoded payloads into a
  // ClusterView that backs the scrape endpoint and the watchdog.
  platform::LiveStatsHooks live_hooks;
  std::unique_ptr<obs::live::ClusterView> cluster;
  std::unique_ptr<obs::live::LiveServer> server;
  // Set inside the live-plane block when the watchdog may order recoveries;
  // shared with FaultHooks below so the monitor thread's verdicts reach the
  // coordinator's relay loop.
  std::shared_ptr<std::atomic<std::int32_t>> watchdog_kill_request;
  // Flight recorder: coordinator-side evidence rings. A SIGKILLed worker
  // cannot dump anything, so snapshots/health/frames accrete here and the
  // dump fires on a watchdog raise or an abnormal run teardown.
  std::shared_ptr<obs::flight::FlightRecorder> flight;
  if (assembly.live != nullptr && config.observability.flight.enabled) {
    obs::flight::FlightConfig flight_config;
    flight_config.enabled = true;
    flight_config.dir = config.observability.flight.dir;
    flight_config.snapshot_ring = config.observability.flight.snapshot_ring;
    flight_config.frame_ring = config.observability.flight.frame_ring;
    flight = std::make_shared<obs::flight::FlightRecorder>(flight_config,
                                                           num_shards);
  }
  if (assembly.live != nullptr) {
    cluster = std::make_unique<obs::live::ClusterView>(num_shards);
    obs::live::ClusterView* view = cluster.get();
    const std::shared_ptr<obs::live::LiveMetricsRegistry> registry = assembly.live;
    live_hooks.period_ms = config.observability.live.stats_period_ms;
    live_hooks.bank = registry->hists();
    live_hooks.encode = [registry](std::uint32_t shard) {
      std::vector<std::uint8_t> out;
      obs::live::encode_snapshot(registry->snapshot(shard, util::net::mono_ns()),
                                 out);
      return out;
    };
    live_hooks.on_stats = [view, flight](std::uint32_t shard,
                                         const std::uint8_t* data,
                                         std::size_t len) {
      obs::live::LiveSnapshot snap;
      if (obs::live::decode_snapshot(data, len, snap) && snap.shard == shard) {
        if (flight != nullptr) {
          flight->on_snapshot(snap);
        }
        view->update(std::move(snap), util::net::mono_ns());
      }
    };
    if (flight != nullptr) {
      // Catchable fatal signals in a worker (SIGSEGV/SIGABRT/...) leave a
      // minimal shard-side dump; SIGKILL is covered by the coordinator rings.
      const std::string flight_dir = config.observability.flight.dir;
      live_hooks.on_worker_start = [flight_dir](std::uint32_t shard) {
        obs::flight::install_worker_fatal_dump(flight_dir, shard);
      };
      live_hooks.on_relay = [flight](std::uint32_t src_shard,
                                     std::uint32_t dst_shard, std::uint16_t tag,
                                     std::uint32_t frame_len,
                                     std::uint64_t send_ns,
                                     std::uint64_t coord_now_ns) {
        obs::flight::FrameEvent event;
        event.src_shard = src_shard;
        event.dst_shard = dst_shard;
        event.tag = tag;
        event.frame_len = frame_len;
        event.send_ns = send_ns;
        event.coord_now_ns = coord_now_ns;
        flight->on_frame(event);
      };
    }
    obs::live::LiveServerConfig server_config;
    server_config.port = config.observability.live_port;
    server_config.monitor_period_ms = config.observability.live.monitor_period_ms;
    server_config.watchdog = config.observability.live.watchdog;
    server_config.on_endpoint = config.observability.live.on_endpoint;
    // Health routing: the flight recorder always sees every event (a raise
    // is evidence whether or not we act on it); under Policy::Recover a
    // ShardSilent raise additionally asks the coordinator to SIGKILL the
    // hung worker — the EOF path then restores it from the last cut.
    const bool recover_on_silent =
        config.fault.enabled &&
        config.fault.policy == KernelConfig::Fault::Policy::Recover;
    if (flight != nullptr || recover_on_silent) {
      const std::shared_ptr<std::atomic<std::int32_t>> kill_request =
          recover_on_silent
              ? std::make_shared<std::atomic<std::int32_t>>(-1)
              : nullptr;
      watchdog_kill_request = kill_request;
      server_config.on_health = [flight, kill_request](
                                    const obs::live::HealthEvent& event) {
        if (flight != nullptr) {
          flight->on_health(event);
        }
        if (kill_request != nullptr && event.raised &&
            event.rule == obs::live::HealthRule::ShardSilent) {
          kill_request->store(static_cast<std::int32_t>(event.shard));
        }
      };
    }
    server = std::make_unique<obs::live::LiveServer>(
        server_config, [view] { return view->shards(); });
    server->start();
  }

  // On-line migration: the decide() hook runs on the coordinator's relay
  // loop every period_ms. Scripted `forced` moves (tests, benches) fire
  // first — one per control period, no live plane needed. The adaptive path
  // is the paper's <O,I,S,T,P> loop: observations come from the ClusterView
  // the STATS stream feeds, the load-balance controller picks (hot, cold)
  // shards, and the hottest LP on the hot shard is ordered moved.
  platform::MigrationHooks migration_hooks;
  struct MigrationState {
    std::size_t next_forced = 0;
    core::LoadBalanceController controller;
    explicit MigrationState(const core::LoadBalanceConfig& lb)
        : controller(lb) {}
  };
  std::shared_ptr<MigrationState> mig_state;
  if (config.migration.enabled) {
    migration_hooks.period_ms = config.migration.period_ms;
    mig_state = std::make_shared<MigrationState>(config.migration.control);
    const std::vector<std::pair<LpId, std::uint32_t>> forced =
        config.migration.forced;
    obs::live::ClusterView* view = cluster.get();
    migration_hooks.decide =
        [mig_state, forced, view, num_shards](
            const std::vector<std::uint32_t>& owners)
        -> std::optional<platform::MigrationDecision> {
      MigrationState& state = *mig_state;
      while (state.next_forced < forced.size()) {
        const auto [lp, to] = forced[state.next_forced];
        if (lp < owners.size() && owners[lp] != to) {
          // Re-issued every period until the owner map shows the move took:
          // a shard may decline (LP finished, or GVT has not advanced past
          // zero yet) and the coordinator drops declined epochs on the floor.
          return platform::MigrationDecision{lp, to};
        }
        // Applied (or the partitioner beat us): advance to the next move.
        ++state.next_forced;
      }
      if (view == nullptr) {
        return std::nullopt;  // adaptive path needs the live plane
      }
      // O: per-shard work totals = committed + rolled-back events (wasted
      // optimism is load too), summed over the LPs each shard currently
      // owns. A per-LP cell is only written by its owning shard, so LP l is
      // read from the snapshot of owners[l]; totals travel with migrated
      // LPs because their stats ship inside the MIGRATE frame.
      const std::vector<obs::live::LiveSnapshot> snaps = view->shards();
      std::vector<std::uint64_t> totals(num_shards, 0);
      std::vector<std::uint64_t> lp_work(owners.size(), 0);
      for (std::size_t lp = 0; lp < owners.size(); ++lp) {
        const std::uint32_t owner = owners[lp];
        if (owner >= snaps.size()) {
          continue;
        }
        for (const obs::live::LpLive& cell : snaps[owner].lps) {
          if (cell.lp == lp) {
            lp_work[lp] = cell.counter(obs::live::Counter::EventsCommitted) +
                          cell.counter(obs::live::Counter::EventsRolledBack);
            totals[owner] += lp_work[lp];
            break;
          }
        }
      }
      const std::optional<core::LoadBalanceOrder> order =
          state.controller.update(totals);
      if (!order) {
        return std::nullopt;
      }
      // I: the heaviest LP on the hot shard (cumulative work — a persistent
      // hotspot dominates its shard's total). Never the shard's last LP:
      // swapping a singleton's only LP just relabels the imbalance.
      std::size_t best = owners.size();
      std::size_t on_hot = 0;
      for (std::size_t lp = 0; lp < owners.size(); ++lp) {
        if (owners[lp] != order->hot) {
          continue;
        }
        ++on_hot;
        if (best == owners.size() || lp_work[lp] > lp_work[best]) {
          best = lp;
        }
      }
      if (on_hot < 2 || best == owners.size()) {
        return std::nullopt;
      }
      return platform::MigrationDecision{static_cast<LpId>(best),
                                         order->cold};
    };
  }

  // Fault tolerance: snapshot cadence comes from the Bringmann-style
  // SnapshotScheduleController (core/snapshot_schedule_controller.hpp) —
  // each committed epoch feeds its stop-the-world cost back and the
  // controller picks the next gap inside [overhead floor, recovery budget].
  platform::FaultHooks fault_hooks;
  std::shared_ptr<core::SnapshotScheduleController> snap_sched;
  if (config.fault.enabled) {
    fault_hooks.enabled = true;
    fault_hooks.max_recoveries = config.fault.max_recoveries;
    fault_hooks.max_snapshot_bytes = config.fault.max_snapshot_bytes;
    fault_hooks.spill_dir = config.fault.spill_dir;
    fault_hooks.inject_kill_shard = config.fault.inject_kill_shard;
    fault_hooks.inject_kill_after_epoch = config.fault.inject_kill_after_epoch;
    core::SnapshotScheduleConfig sched_config = config.fault.control;
    sched_config.recovery_budget_ms = config.fault.recovery_budget_ms;
    snap_sched =
        std::make_shared<core::SnapshotScheduleController>(sched_config);
    fault_hooks.initial_gap_ms = snap_sched->gap_ms();
    fault_hooks.next_gap_ms = [snap_sched](std::uint64_t cost_ns,
                                           std::uint64_t bytes) {
      return snap_sched->on_snapshot(cost_ns, bytes);
    };
    fault_hooks.kill_request = watchdog_kill_request;
  }

  platform::EngineRunResult engine_result;
  try {
    engine_result = engine.run(
        assembly.runners,
        [&assembly](std::uint32_t shard, const std::vector<std::uint32_t>& owners) {
          std::vector<std::uint8_t> blob;
          WireWriter writer(blob);
          encode_shard(writer, assembly, shard, owners);
          return blob;
        },
        live_hooks, migration_hooks, fault_hooks);
  } catch (const std::exception& e) {
    // Abnormal teardown (a shard died, the relay failed): dump everything
    // we know before surfacing the error — this is the black box's moment.
    if (flight != nullptr) {
      flight->dump_all(e.what());
    }
    throw;
  }

  RunResult result;
  result.execution_time_ns = engine_result.execution_time_ns;
  result.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  result.physical_messages = engine_result.physical_messages;
  result.wire_bytes = engine_result.wire_bytes;
  result.dist = engine_result.dist;
  result.recoveries = engine_result.recoveries;
  result.hists = engine_result.hists;
  result.shard_clocks = engine_result.shard_clocks;

  result.stats.objects.resize(model.objects.size());
  result.digests.resize(model.objects.size(), 0);
  result.telemetry.objects.resize(model.objects.size());

  const auto num_lps = static_cast<std::uint32_t>(assembly.lps.size());
  std::vector<std::optional<HarvestedLp>> harvested(num_lps);
  const auto& payloads = engine.shard_payloads();
  OTW_REQUIRE_MSG(payloads.size() == num_shards,
                  "coordinator returned without every shard's payload");
  for (const std::vector<std::uint8_t>& payload : payloads) {
    WireReader reader(payload.data(), payload.size());
    decode_shard(reader, harvested, result);
    OTW_REQUIRE_MSG(reader.done(), "trailing bytes in a shard result payload");
  }

  // Same layout discipline as detail::collect: LP-indexed vectors in LP-id
  // order, LP trace tracks first (positional), wire tracks offset past them.
  for (LpId lp = 0; lp < num_lps; ++lp) {
    OTW_REQUIRE_MSG(harvested[lp].has_value(), "no shard reported this LP");
    HarvestedLp& h = *harvested[lp];
    result.stats.lps.push_back(h.stats);
    result.stats.final_gvt = h.gvt;
    if (h.trace.has_value()) {
      // LP trace timestamps are the owning shard's driver clock; shift them
      // onto the coordinator's run-relative timeline (same rebase the engine
      // applied to its wire tracks) so the merged Chrome trace and the
      // analysis cascade walk are clock-aligned across shards. Keyed on the
      // FINAL owner: that is the shard whose recorder drained this trace.
      const std::uint32_t shard = lp < engine_result.final_owners.size()
                                      ? engine_result.final_owners[lp]
                                      : platform::shard_of_lp(lp, num_shards);
      const std::int64_t shift =
          shard < engine_result.shard_trace_shift_ns.size()
              ? engine_result.shard_trace_shift_ns[shard]
              : 0;
      for (obs::TraceRecord& rec : h.trace->records) {
        const std::int64_t shifted =
            static_cast<std::int64_t>(rec.wall_ns) + shift;
        rec.wall_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
      }
      result.trace.lps.push_back(std::move(*h.trace));
    }
    if (h.phases.has_value()) {
      result.lp_phases.push_back(*h.phases);
    }
    if (!h.samples.empty()) {
      LpTrace trace;
      trace.lp = static_cast<std::uint32_t>(result.telemetry.lps.size());
      trace.samples = std::move(h.samples);
      result.telemetry.lps.push_back(std::move(trace));
    }
  }
  for (const obs::LpTraceLog& log : engine_result.worker_traces) {
    obs::LpTraceLog shifted = log;
    shifted.lp = num_lps + log.lp;
    result.trace.lps.push_back(std::move(shifted));
  }

  if (result.telemetry.lps.empty()) {
    bool any = false;
    for (const auto& trace : result.telemetry.objects) {
      any = any || !trace.samples.empty();
    }
    if (!any) {
      result.telemetry.objects.clear();
    }
  }
  finish_live_server(server, result);
  return result;
}

}  // namespace otw::tw::detail
