// Kernel side of the distributed engine: assembles the model, hands the LP
// runners to platform::DistributedEngine, and (de)serializes per-LP
// harvests. Workers encode a harvest of every LP they own once it is Done;
// the coordinator decodes them and lays out the result with build_result,
// exactly as the in-process engines do. Fork guarantees both sides share
// one ABI, so the trivially-copyable stats ship as raw bytes.
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

}  // namespace

void encode_harvest(WireWriter& w, const LpHarvest& h) {
  w.u32(h.lp);
  w.u64(h.gvt.ticks());
  write_pod(w, h.stats);
  w.u8(h.trace.has_value() ? 1 : 0);
  if (h.trace.has_value()) {
    w.u64(h.trace->dropped);
    write_pod_vector(w, h.trace->records);
  }
  w.u8(h.phases.has_value() ? 1 : 0);
  if (h.phases.has_value()) {
    write_pod(w, *h.phases);
  }
  write_pod_vector(w, h.samples);
  w.u32(static_cast<std::uint32_t>(h.objects.size()));
  for (const LpHarvest::Object& object : h.objects) {
    w.u32(object.id);
    w.u64(object.digest);
    write_pod(w, object.stats);
    write_pod_vector(w, object.samples);
  }
}

LpHarvest decode_harvest(WireReader& r) {
  LpHarvest h;
  h.lp = r.u32();
  h.gvt = VirtualTime(r.u64());
  h.stats = read_pod<LpStats>(r);
  if (r.u8() != 0) {
    obs::LpTraceLog log;
    log.lp = h.lp;
    log.dropped = r.u64();
    log.records = read_pod_vector<obs::TraceRecord>(r);
    h.trace = std::move(log);
  }
  if (r.u8() != 0) {
    h.phases = read_pod<obs::PhaseTotals>(r);
  }
  h.samples = read_pod_vector<LpSample>(r);
  h.objects.resize(r.u32());
  for (LpHarvest::Object& object : h.objects) {
    object.id = r.u32();
    object.digest = r.u64();
    object.stats = read_pod<ObjectStats>(r);
    object.samples = read_pod_vector<ObjectSample>(r);
  }
  return h;
}

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
            lp_work[lp] = cell.counter(obs::live::Counter::events_committed) +
                          cell.counter(obs::live::Counter::events_rolled_back);
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
        // Worker side: harvest every LP this shard owns at the end. `owners`
        // is the live LP -> shard map: with on-line migration a shard
        // harvests LPs its initial placement never gave it.
        [&assembly](std::uint32_t shard, const std::vector<std::uint32_t>& owners) {
          std::vector<std::uint8_t> blob;
          WireWriter writer(blob);
          for (LpId lp = 0; lp < assembly.lps.size(); ++lp) {
            if (owners[lp] == shard) {
              encode_harvest(writer, harvest(*assembly.lps[lp]));
            }
          }
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

  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  std::vector<LpHarvest> lps;
  for (const std::vector<std::uint8_t>& payload : engine.shard_payloads()) {
    WireReader reader(payload.data(), payload.size());
    while (!reader.done()) {
      lps.push_back(decode_harvest(reader));
    }
  }
  OTW_REQUIRE_MSG(lps.size() == assembly.lps.size(),
                  "shard results do not cover every LP");
  for (LpHarvest& h : lps) {
    if (!h.trace.has_value()) {
      continue;
    }
    // LP trace timestamps are the owning shard's driver clock; shift them
    // onto the coordinator's run-relative timeline (same rebase the engine
    // applied to its wire tracks) so the merged Chrome trace and the
    // analysis cascade walk are clock-aligned across shards. Keyed on the
    // FINAL owner: that is the shard whose recorder drained this trace.
    const std::int64_t shift = engine_result.shard_trace_shift_ns.at(
        engine_result.final_owners.at(h.lp));
    for (obs::TraceRecord& rec : h.trace->records) {
      const std::int64_t shifted = static_cast<std::int64_t>(rec.wall_ns) + shift;
      rec.wall_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
    }
  }
  RunResult result = build_result(model, std::move(lps), engine_result, wall_ns);
  finish_live_server(server, result);
  return result;
}

}  // namespace otw::tw::detail
