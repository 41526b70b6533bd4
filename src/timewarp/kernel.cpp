#include "otw/tw/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "kernel_internal.hpp"
#include "otw/obs/flight.hpp"
#include "otw/tw/partition.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/net.hpp"

namespace otw::tw {

namespace {

using WallClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(WallClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - start)
          .count());
}

/// The in-process engines' tail: harvest every LP and lay out the result.
RunResult harvest_in_process(const Model& model, detail::Assembly& assembly,
                             platform::EngineRunResult engine_result,
                             WallClock::time_point start) {
  const std::uint64_t wall_ns = elapsed_ns(start);
  if (assembly.live != nullptr && assembly.live->hists() != nullptr) {
    // In-process engines record straight into the registry bank; it
    // reports as the single shard 0.
    engine_result.hists = assembly.live->hists()->snapshot(0);
  }
  std::vector<detail::LpHarvest> lps;
  lps.reserve(assembly.lps.size());
  for (const auto& lp : assembly.lps) {
    lps.push_back(detail::harvest(*lp));
  }
  return detail::build_result(model, std::move(lps), engine_result, wall_ns);
}

RunResult run_simulated_now_impl(const Model& model, const KernelConfig& config,
                                 const platform::SimulatedNowConfig& now_config) {
  const auto start = WallClock::now();
  platform::SimulatedNowEngine engine(now_config);
  detail::Assembly assembly =
      detail::assemble(model, config, &engine.config().costs);
  auto live_server = detail::start_live_server(config, assembly);
  RunResult result =
      harvest_in_process(model, assembly, engine.run(assembly.runners), start);
  detail::finish_live_server(live_server, result);
  return result;
}

RunResult run_threaded_impl(const Model& model, const KernelConfig& config,
                            const platform::ThreadedConfig& threaded_config) {
  const auto start = WallClock::now();
  detail::Assembly assembly = detail::assemble(model, config);
  auto live_server = detail::start_live_server(config, assembly);
  platform::ThreadedConfig engine_config = threaded_config;
  if (config.observability.tracing &&
      engine_config.scheduler_trace_capacity == 0) {
    engine_config.scheduler_trace_capacity = config.observability.ring_capacity;
  }
  engine_config.live = assembly.live.get();
  platform::ThreadedEngine engine(engine_config);
  RunResult result =
      harvest_in_process(model, assembly, engine.run(assembly.runners), start);
  detail::finish_live_server(live_server, result);
  return result;
}

/// Ground-truth kernel adapted to the common result shape. Only what a
/// sequential execution can know is filled: digests, committed == processed
/// event counts, final virtual time and wall time.
RunResult run_sequential_impl(const Model& model, const KernelConfig& config) {
  const SequentialResult seq =
      run_sequential(model, config.end_time, config.engine.queue);
  RunResult result;
  result.digests = seq.digests;
  result.wall_time_ns = seq.wall_time_ns;
  result.execution_time_ns = seq.wall_time_ns;
  result.stats.final_gvt = seq.final_time;
  result.stats.objects.resize(model.objects.size());
  for (ObjectId id = 0; id < seq.events_per_object.size(); ++id) {
    result.stats.objects[id].events_processed = seq.events_per_object[id];
    result.stats.objects[id].events_committed = seq.events_per_object[id];
  }
  return result;
}

}  // namespace

namespace detail {

Assembly assemble(const Model& model, const KernelConfig& config,
                  const platform::CostModel* costs) {
  OTW_REQUIRE_MSG(!model.objects.empty(), "model has no objects");
  OTW_REQUIRE_MSG(config.num_lps >= model.required_lps(),
                  "config.num_lps is smaller than the model's LP placement");

  std::vector<LpId> object_to_lp;
  object_to_lp.reserve(model.objects.size());
  for (const auto& spec : model.objects) {
    object_to_lp.push_back(spec.lp);
  }

  Assembly assembly;
  for (LpId lp = 0; lp < config.num_lps; ++lp) {
    std::vector<std::pair<ObjectId, std::unique_ptr<SimulationObject>>> local;
    for (ObjectId id = 0; id < model.objects.size(); ++id) {
      if (model.objects[id].lp == lp) {
        OTW_REQUIRE(model.objects[id].factory != nullptr);
        local.emplace_back(id, model.objects[id].factory());
      }
    }
    assembly.lps.push_back(std::make_unique<LogicalProcess>(
        lp, config, object_to_lp, std::move(local), costs));
  }
  // One shared recycler for batch buffers: the receiving LP's message
  // destructor returns the vector the sending LP allocated. Each LP keeps a
  // shared_ptr so the pool outlives every in-flight message.
  auto batch_pool = std::make_shared<util::BufferPool<Event>>();
  for (const auto& lp : assembly.lps) {
    lp->set_batch_pool(batch_pool);
  }
  // Live plane: one registry cell bank for the whole assembly. In the
  // distributed engine this allocation happens pre-fork, so every shard
  // inherits a private copy and publishes into its own cells.
  if (config.observability.live_enabled() &&
      obs::live::LiveMetricsRegistry::compiled_in()) {
    assembly.live =
        std::make_shared<obs::live::LiveMetricsRegistry>(config.num_lps);
    if (config.observability.live.histograms) {
      // Bank layout is shard-count dependent; size it for the engine that
      // will run (in-process engines are a single "shard 0").
      assembly.live->enable_hists(
          config.engine.kind == EngineKind::Distributed
              ? std::max<std::uint32_t>(config.engine.num_shards, 1)
              : 1);
    }
    for (const auto& lp : assembly.lps) {
      lp->set_live(assembly.live.get());
    }
  }
  assembly.runners.reserve(assembly.lps.size());
  for (const auto& lp : assembly.lps) {
    assembly.runners.push_back(lp.get());
  }
  return assembly;
}

LpHarvest harvest(LogicalProcess& lp) {
  OTW_REQUIRE_MSG(lp.done(), "harvesting an LP that has not finished");
  LpHarvest h;
  h.lp = lp.id();
  h.gvt = lp.gvt();
  h.stats = lp.snapshot_lp_stats();
  obs::Recorder& recorder = lp.recorder();
  if (recorder.tracing()) {
    h.trace = recorder.drain_trace();
  }
  if (recorder.profiling()) {
    h.phases = recorder.phase_totals();
  }
  h.samples = lp.trace();
  for (const auto& runtime : lp.runtimes()) {
    h.objects.push_back(LpHarvest::Object{runtime->self(),
                                          runtime->state_digest(),
                                          runtime->snapshot_stats(),
                                          runtime->trace()});
  }
  return h;
}

RunResult build_result(const Model& model, std::vector<LpHarvest> lps,
                       const platform::EngineRunResult& engine,
                       std::uint64_t wall_ns) {
  RunResult result;
  result.execution_time_ns = engine.execution_time_ns;
  result.wall_time_ns = wall_ns;
  result.physical_messages = engine.physical_messages;
  result.wire_bytes = engine.wire_bytes;
  result.scheduler = engine.scheduler;
  result.dist = engine.dist;
  result.recoveries = engine.recoveries;
  result.hists = engine.hists;
  result.shard_clocks = engine.shard_clocks;

  const std::size_t num_objects = model.objects.size();
  result.stats.objects.resize(num_objects);
  result.digests.resize(num_objects, 0);
  result.telemetry.objects.resize(num_objects);
  bool any_object_samples = false;
  std::sort(lps.begin(), lps.end(),
            [](const LpHarvest& a, const LpHarvest& b) { return a.lp < b.lp; });
  for (LpId lp = 0; lp < lps.size(); ++lp) {
    LpHarvest& h = lps[lp];
    OTW_REQUIRE_MSG(h.lp == lp, "an LP was harvested twice or not at all");
    result.stats.lps.push_back(h.stats);
    result.stats.final_gvt = h.gvt;
    if (h.trace.has_value()) {
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
    for (LpHarvest::Object& object : h.objects) {
      OTW_REQUIRE_MSG(object.id < num_objects, "harvest names an unknown object");
      result.digests[object.id] = object.digest;
      result.stats.objects[object.id] = object.stats;
      any_object_samples = any_object_samples || !object.samples.empty();
      result.telemetry.objects[object.id] =
          ObjectTrace{object.id, std::move(object.samples)};
    }
  }
  // Scheduler worker tracks and shard wire tracks ride in the same RunTrace,
  // on track ids past the LP range.
  const auto num_lps = static_cast<std::uint32_t>(lps.size());
  for (const obs::LpTraceLog& log : engine.worker_traces) {
    obs::LpTraceLog shifted = log;
    shifted.lp = num_lps + log.lp;
    result.trace.lps.push_back(std::move(shifted));
  }
  if (result.telemetry.lps.empty() && !any_object_samples) {
    result.telemetry.objects.clear();
  }
  return result;
}

std::unique_ptr<obs::live::LiveServer> start_live_server(
    const KernelConfig& config, const Assembly& assembly) {
  if (!assembly.live) {
    return nullptr;
  }
  obs::live::LiveServerConfig server_config;
  server_config.port = config.observability.live_port;
  server_config.monitor_period_ms = config.observability.live.monitor_period_ms;
  server_config.watchdog = config.observability.live.watchdog;
  server_config.on_endpoint = config.observability.live.on_endpoint;
  // Flight recorder (in-process engines): fed from the snapshot pull and
  // the watchdog transition stream; dumps on every raised rule. Owned by
  // the closures so it lives exactly as long as the server.
  std::shared_ptr<obs::flight::FlightRecorder> flight;
  if (config.observability.flight.enabled) {
    obs::flight::FlightConfig flight_config;
    flight_config.enabled = true;
    flight_config.dir = config.observability.flight.dir;
    flight_config.snapshot_ring = config.observability.flight.snapshot_ring;
    flight_config.frame_ring = config.observability.flight.frame_ring;
    flight = std::make_shared<obs::flight::FlightRecorder>(flight_config,
                                                           /*num_shards=*/1);
    server_config.on_health = [flight](const obs::live::HealthEvent& event) {
      flight->on_health(event);
    };
  }
  std::shared_ptr<obs::live::LiveMetricsRegistry> registry = assembly.live;
  auto server = std::make_unique<obs::live::LiveServer>(
      std::move(server_config), [registry, flight] {
        obs::live::LiveSnapshot snap =
            registry->snapshot(/*shard=*/0, util::net::mono_ns());
        if (flight != nullptr) {
          flight->on_snapshot(snap);
        }
        return std::vector<obs::live::LiveSnapshot>{std::move(snap)};
      });
  server->start();
  return server;
}

void finish_live_server(std::unique_ptr<obs::live::LiveServer>& server,
                        RunResult& result) {
  if (!server) {
    return;
  }
  server->stop();
  result.health = server->health();
  server.reset();
}

void require_valid(const KernelConfig& config) {
  const std::vector<std::string> errors = config.validate();
  if (errors.empty()) {
    return;
  }
  std::string joined = "invalid KernelConfig:";
  for (const std::string& error : errors) {
    joined += "\n  - " + error;
  }
  OTW_REQUIRE_MSG(false, joined);
}

}  // namespace detail

std::vector<std::string> KernelConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](std::string message) {
    errors.push_back(std::move(message));
  };

  if (num_lps == 0) {
    fail("num_lps must be >= 1");
  }
  if (batch_size == 0) {
    fail("batch_size must be >= 1 (an LP could never process an event)");
  }
  if (gvt_period_events == 0) {
    fail("gvt_period_events must be >= 1 (GVT would never start)");
  }

  // --- state saving ---
  if (checkpoint.interval == 0) {
    fail("checkpoint.interval must be >= 1 (chi = 1 saves after every "
         "event; 0 would never save at all)");
  }
  if (checkpoint.full_snapshot_interval == 0) {
    fail("checkpoint.full_snapshot_interval must be >= 1 (incremental "
         "chains need a full snapshot to terminate against)");
  }
  if (checkpoint.dynamic) {
    const auto& chi = checkpoint.control;
    if (chi.control_period_events == 0) {
      fail("checkpoint.control.control_period_events must be >= 1 "
           "(the chi controller would never tick)");
    }
    if (chi.min_interval == 0) {
      fail("checkpoint.control.min_interval must be >= 1");
    }
    if (chi.min_interval > chi.max_interval) {
      fail("checkpoint.control: min_interval exceeds max_interval");
    }
  }
  const auto& cancel = runtime.cancellation;
  if (cancel.control_period_comparisons == 0) {
    fail("runtime.cancellation.control_period_comparisons must be >= 1");
  }
  if (cancel.a2l_threshold < cancel.l2a_threshold) {
    fail("runtime.cancellation: a2l_threshold below l2a_threshold (the "
         "hysteresis band is inverted; the mode would oscillate)");
  }
  if (cancel.a2l_threshold < 0.0 || cancel.a2l_threshold > 1.0 ||
      cancel.l2a_threshold < 0.0 || cancel.l2a_threshold > 1.0) {
    fail("runtime.cancellation thresholds must lie in [0, 1] (they are Hit "
         "Ratio bounds)");
  }

  // --- optimism ---
  if (optimism.mode != Optimism::Mode::Unbounded && optimism.window == 0) {
    fail("optimism.window must be >= 1 tick under a bounded mode (a zero "
         "window stalls every LP at GVT)");
  }
  if (optimism.mode == Optimism::Mode::Adaptive) {
    const auto& oc = optimism.control;
    if (oc.control_period_events == 0) {
      fail("optimism.control.control_period_events must be >= 1");
    }
    if (oc.min_window > oc.max_window) {
      fail("optimism.control: min_window exceeds max_window");
    }
    if (oc.grow_factor <= 1.0) {
      fail("optimism.control.grow_factor must be > 1 (the window could "
           "never widen)");
    }
    if (oc.shrink_factor <= 0.0 || oc.shrink_factor >= 1.0) {
      fail("optimism.control.shrink_factor must lie in (0, 1)");
    }
  }

  // --- memory pressure ---
  if (memory.budget_bytes > 0) {
    const auto& mc = memory.control;
    if (mc.control_period_events == 0) {
      fail("memory.control.control_period_events must be >= 1");
    }
    if (mc.high_watermark <= mc.low_watermark) {
      fail("memory.control: high_watermark must exceed low_watermark (the "
           "pressure hysteresis band is inverted)");
    }
    if (mc.high_watermark <= 0.0 || mc.high_watermark > 1.0 ||
        mc.low_watermark < 0.0 || mc.low_watermark >= 1.0) {
      fail("memory.control watermarks must lie in (0, 1] / [0, 1) "
           "respectively (they are budget fractions)");
    }
    if (mc.emergency_window == 0) {
      fail("memory.control.emergency_window must be >= 1 tick (held sends "
           "could never flush)");
    }
  }

  // --- telemetry ---
  if (telemetry.enabled && telemetry.sample_period_events == 0) {
    fail("telemetry.sample_period_events must be >= 1 when telemetry is on");
  }

  // --- live introspection plane ---
  if (observability.live_enabled()) {
    if (observability.live.monitor_period_ms == 0) {
      fail("observability.live.monitor_period_ms must be >= 1 (the watchdog "
           "would spin)");
    }
    if (observability.live.stats_period_ms == 0) {
      fail("observability.live.stats_period_ms must be >= 1 (shards would "
           "flood the coordinator with STATS frames)");
    }
    const auto& wd = observability.live.watchdog;
    if (wd.gvt_stall_feeds == 0 || wd.occupancy_feeds == 0) {
      fail("observability.live.watchdog feed counts must be >= 1 (a rule "
           "would raise on the first sample)");
    }
    if (wd.rollback_ratio <= 0.0) {
      fail("observability.live.watchdog.rollback_ratio must be > 0");
    }
    if (wd.rollback_min_events == 0) {
      fail("observability.live.watchdog.rollback_min_events must be >= 1 "
           "(an empty delta window would trigger the storm rule)");
    }
    if (wd.occupancy_fraction <= 0.0 || wd.occupancy_fraction > 1.0) {
      fail("observability.live.watchdog.occupancy_fraction must lie in "
           "(0, 1] (it is a budget fraction)");
    }
    if (wd.shard_silent_ns == 0) {
      fail("observability.live.watchdog.shard_silent_ns must be >= 1");
    }
  }

  // --- flight recorder ---
  if (observability.flight.enabled) {
    if (!observability.live_enabled()) {
      fail("observability.flight.enabled requires the live plane (its "
           "evidence rings are fed from live snapshots and the watchdog)");
    }
    if (observability.flight.dir.empty()) {
      fail("observability.flight.dir must be non-empty (dump destination)");
    }
    if (observability.flight.snapshot_ring == 0) {
      fail("observability.flight.snapshot_ring must be >= 1 (a dump without "
           "snapshots names no evidence)");
    }
  }

  // --- engine sizing ---
  switch (engine.queue) {
    case QueueKind::Multiset:
    case QueueKind::SkipList:
    case QueueKind::LadderQueue:
      break;
    default:
      fail("engine.queue is not a recognized QueueKind (valid: Multiset, "
           "SkipList, LadderQueue)");
  }
  if (engine.kind == EngineKind::Threaded && engine.num_workers > 512) {
    fail("engine.num_workers exceeds 512 (use 0 for one per hardware "
         "thread)");
  }
  if (engine.kind == EngineKind::Distributed) {
    if (engine.num_shards == 0) {
      fail("engine.num_shards must be >= 1");
    }
    if (engine.num_shards > kMaxShards) {
      fail("engine.num_shards exceeds kMaxShards (" +
           std::to_string(kMaxShards) + " worker processes)");
    }
    if (num_lps > 0 && engine.num_shards > num_lps) {
      fail("engine.num_shards exceeds num_lps (a worker process would own "
           "no LPs)");
    }
  }

  // --- on-line migration ---
  if (migration.enabled) {
    if (engine.kind != EngineKind::Distributed) {
      fail("migration.enabled requires EngineKind::Distributed (only the "
           "sharded engine has shards to move LPs between)");
    }
    if (engine.num_shards < 2) {
      fail("migration.enabled requires engine.num_shards >= 2");
    }
    if (migration.period_ms == 0) {
      fail("migration.period_ms must be >= 1 (the controller would spin)");
    }
    const auto& lb = migration.control;
    if (lb.imbalance_threshold <= 1.0) {
      fail("migration.control.imbalance_threshold must be > 1 (a hot/cold "
           "ratio of 1 is perfect balance)");
    }
    if (lb.dead_zone < 0.0) {
      fail("migration.control.dead_zone must be >= 0");
    }
    for (const auto& [lp, shard] : migration.forced) {
      if (lp >= num_lps) {
        fail("migration.forced names LP " + std::to_string(lp) +
             " outside num_lps");
      }
      if (shard >= engine.num_shards) {
        fail("migration.forced names shard " + std::to_string(shard) +
             " outside num_shards");
      }
    }
  }

  // --- fault tolerance ---
  if (fault.enabled) {
    if (engine.kind != EngineKind::Distributed) {
      fail("fault.enabled requires EngineKind::Distributed (only worker "
           "processes can die and be re-forked)");
    }
    if (engine.num_shards < 2) {
      fail("fault.enabled requires engine.num_shards >= 2 (with one shard "
           "there is no surviving side to recover toward)");
    }
    if (migration.enabled) {
      fail("fault.enabled and migration.enabled are mutually exclusive (a "
           "snapshot would have to version the owner map; keep placement "
           "fixed so a replacement inherits a known shard)");
    }
    if (fault.recovery_budget_ms == 0) {
      fail("fault.recovery_budget_ms must be >= 1 (the snapshot scheduler "
           "solves for a gap that fits this budget)");
    }
    if (fault.max_recoveries == 0) {
      fail("fault.max_recoveries must be >= 1 (0 means the first death is "
           "fatal — just leave fault tolerance off)");
    }
    if (fault.max_snapshot_bytes > 0 && fault.spill_dir.empty() &&
        fault.max_snapshot_bytes < 1024) {
      fail("fault.max_snapshot_bytes below 1 KiB with no spill_dir would "
           "refuse every epoch (raise the cap or configure spill_dir)");
    }
    const auto& sc = fault.control;
    if (sc.min_gap_ms == 0) {
      fail("fault.control.min_gap_ms must be >= 1 (back-to-back epochs "
           "would stop the world continuously)");
    }
    if (sc.min_gap_ms > sc.max_gap_ms) {
      fail("fault.control: min_gap_ms exceeds max_gap_ms");
    }
    if (sc.overhead_factor <= 0.0) {
      fail("fault.control.overhead_factor must be > 0 (it floors the gap "
           "at overhead_factor * average snapshot cost)");
    }
    if (sc.restore_factor <= 0.0) {
      fail("fault.control.restore_factor must be > 0 (restore time is "
           "estimated as restore_factor * serialize cost)");
    }
    if (fault.inject_kill_shard >= 0 &&
        static_cast<std::uint32_t>(fault.inject_kill_shard) >=
            engine.num_shards) {
      fail("fault.inject_kill_shard names a shard outside num_shards");
    }
  }
  return errors;
}

LpId Model::required_lps() const noexcept {
  LpId highest = 0;
  for (const auto& spec : objects) {
    highest = std::max(highest, spec.lp);
  }
  return highest + 1;
}

double RunResult::committed_events_per_sec() const noexcept {
  if (execution_time_ns == 0) {
    return 0.0;
  }
  return static_cast<double>(stats.total_committed()) /
         (static_cast<double>(execution_time_ns) / 1e9);
}

RunResult run(const Model& model, const KernelConfig& config,
              const EngineTuning& tuning) {
  detail::require_valid(config);
  switch (config.engine.kind) {
    case EngineKind::Sequential:
      return run_sequential_impl(model, config);
    case EngineKind::SimulatedNow:
      return run_simulated_now_impl(model, config, tuning.simulated_now);
    case EngineKind::Threaded: {
      platform::ThreadedConfig threaded = tuning.threaded;
      if (config.engine.num_workers > 0) {
        threaded.num_workers = config.engine.num_workers;
      }
      return run_threaded_impl(model, config, threaded);
    }
    case EngineKind::Distributed: {
      platform::DistributedConfig dist = tuning.distributed;
      dist.num_shards = config.engine.num_shards;
      if (dist.placement.empty()) {
        dist.placement = partition_lps(model, config.num_lps,
                                       config.engine.num_shards,
                                       config.engine.partition);
      }
      return detail::run_distributed_impl(model, config, dist);
    }
  }
  OTW_REQUIRE_MSG(false, "unknown engine kind");
}

}  // namespace otw::tw
