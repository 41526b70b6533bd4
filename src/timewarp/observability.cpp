#include "otw/tw/observability.hpp"

#include <string>

namespace otw::tw {

obs::MetricsSnapshot build_metrics(const RunResult& result) {
  using obs::Metric;
  obs::MetricsSnapshot snapshot;

  snapshot.add("otw_execution_time_ns", static_cast<double>(result.execution_time_ns),
               Metric::Type::Gauge);
  snapshot.add("otw_wall_time_ns", static_cast<double>(result.wall_time_ns),
               Metric::Type::Gauge);
  snapshot.add("otw_final_gvt_ticks",
               result.stats.final_gvt.is_infinity()
                   ? static_cast<double>(UINT64_MAX)
                   : static_cast<double>(result.stats.final_gvt.ticks()),
               Metric::Type::Gauge);
  snapshot.add("otw_physical_messages_total",
               static_cast<double>(result.physical_messages), Metric::Type::Counter);
  snapshot.add("otw_wire_bytes_total", static_cast<double>(result.wire_bytes),
               Metric::Type::Counter);
  snapshot.add("otw_committed_events_per_sec", result.committed_events_per_sec(),
               Metric::Type::Gauge);

  // Run totals of every object counter in the schema (otw/obs/counters.hpp).
  const ObjectStats totals = result.stats.object_totals();
#define OTW_RUN_TOTAL(name) \
  snapshot.add("otw_" #name "_total", static_cast<double>(totals.name));
  OTW_OBJECT_COUNTERS(OTW_RUN_TOTAL)
#undef OTW_RUN_TOTAL

  // Memory governance: live footprint at collection, sum of per-LP peaks
  // (upper bound on the true global peak), and pressure-controller activity.
  const LpStats lp_totals = result.stats.lp_totals();
  snapshot.add("otw_memory_live_bytes",
               static_cast<double>(lp_totals.memory.total()), Metric::Type::Gauge);
  snapshot.add("otw_memory_peak_bytes",
               static_cast<double>(lp_totals.memory_peak_bytes),
               Metric::Type::Gauge);
  snapshot.add("otw_memory_budget_bytes",
               static_cast<double>(lp_totals.memory_budget_bytes),
               Metric::Type::Gauge);
  snapshot.add("otw_memory_pool_slab_bytes",
               static_cast<double>(lp_totals.memory.pool_slab_bytes),
               Metric::Type::Gauge);
  snapshot.add("otw_memory_pressure_enters_total",
               static_cast<double>(lp_totals.pressure_enters));
  snapshot.add("otw_memory_sends_held_total",
               static_cast<double>(lp_totals.sends_held));

  // Per-LP series: every LP counter in the schema, plus the footprint.
  for (std::size_t lp = 0; lp < result.stats.lps.size(); ++lp) {
    const LpStats& s = result.stats.lps[lp];
    const std::string id = std::to_string(lp);
    auto add = [&](const char* name, double value, Metric::Type type) {
      snapshot.add(name, value, type).labels.emplace_back("lp", id);
    };
#define OTW_LP_SERIES(name) \
  add("otw_lp_" #name "_total", static_cast<double>(s.name), Metric::Type::Counter);
    OTW_LP_COUNTERS(OTW_LP_SERIES)
#undef OTW_LP_SERIES
    add("otw_lp_memory_live_bytes", static_cast<double>(s.memory.total()),
        Metric::Type::Gauge);
    add("otw_lp_memory_peak_bytes", static_cast<double>(s.memory_peak_bytes),
        Metric::Type::Gauge);
  }

  // Work-stealing scheduler counters (threaded engine runs only).
  if (result.scheduler.num_workers > 0) {
    snapshot.add("otw_scheduler_workers",
                 static_cast<double>(result.scheduler.num_workers),
                 Metric::Type::Gauge);
    snapshot.add("otw_scheduler_mailbox_overflows_total",
                 static_cast<double>(result.scheduler.mailbox_overflows),
                 Metric::Type::Counter);
    snapshot.add("otw_scheduler_timers_scheduled_total",
                 static_cast<double>(result.scheduler.timers_scheduled),
                 Metric::Type::Counter);
    for (std::size_t w = 0; w < result.scheduler.workers.size(); ++w) {
      const platform::WorkerStats& s = result.scheduler.workers[w];
      const std::string id = std::to_string(w);
      auto add = [&](const char* name, double value) {
        snapshot.add(name, value).labels.emplace_back("worker", id);
      };
      add("otw_worker_steps_total", static_cast<double>(s.steps));
      add("otw_worker_steals_total", static_cast<double>(s.steals));
      add("otw_worker_steal_fails_total", static_cast<double>(s.steal_fails));
      add("otw_worker_parks_total", static_cast<double>(s.parks));
      add("otw_worker_wakes_total", static_cast<double>(s.wakes));
      add("otw_worker_timer_fires_total", static_cast<double>(s.timer_fires));
    }
  }

  // Socket-transport counters (distributed engine runs only).
  if (result.dist.num_shards > 0) {
    const platform::DistStats& d = result.dist;
    snapshot.add("otw_dist_shards", static_cast<double>(d.num_shards),
                 Metric::Type::Gauge);
    snapshot.add("otw_dist_frames_sent_total",
                 static_cast<double>(d.frames_sent), Metric::Type::Counter);
    snapshot.add("otw_dist_frames_received_total",
                 static_cast<double>(d.frames_received), Metric::Type::Counter);
    snapshot.add("otw_dist_frames_relayed_total",
                 static_cast<double>(d.frames_relayed), Metric::Type::Counter);
    snapshot.add("otw_dist_bytes_sent_total",
                 static_cast<double>(d.bytes_sent), Metric::Type::Counter);
    snapshot.add("otw_dist_bytes_received_total",
                 static_cast<double>(d.bytes_received), Metric::Type::Counter);
    snapshot.add("otw_dist_gvt_token_frames_total",
                 static_cast<double>(d.gvt_token_frames), Metric::Type::Counter);
    snapshot.add("otw_dist_serialize_seconds_total",
                 static_cast<double>(d.serialize_ns) / 1e9,
                 Metric::Type::Counter);
    snapshot.add("otw_dist_deserialize_seconds_total",
                 static_cast<double>(d.deserialize_ns) / 1e9,
                 Metric::Type::Counter);
  }

  obs::add_phase_metrics(snapshot, result.lp_phases);
  return snapshot;
}

void write_chrome_trace(std::ostream& os, const RunResult& result) {
  obs::write_chrome_trace(os, result.trace);
}

void write_metrics_jsonl(std::ostream& os, const RunResult& result) {
  obs::write_metrics_jsonl(os, build_metrics(result));
}

void write_prometheus(std::ostream& os, const RunResult& result) {
  obs::write_prometheus(os, build_metrics(result));
}

}  // namespace otw::tw
