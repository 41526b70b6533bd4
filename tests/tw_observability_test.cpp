// Kernel-level observability: tracing/profiling must not perturb the
// simulation (same GVT, same committed state with recording on or off), the
// collected trace must carry the kernel events the paper's analysis needs
// (rollbacks, checkpoints, GVT, controller decisions), and the RunResult
// exporters must produce parseable output.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "otw/apps/phold.hpp"
#include "otw/obs/analysis.hpp"
#include "otw/tw/kernel.hpp"
#include "otw/tw/observability.hpp"

namespace otw::tw {
namespace {

apps::phold::PholdConfig rollback_heavy_phold() {
  apps::phold::PholdConfig cfg;
  cfg.num_objects = 12;
  cfg.num_lps = 4;
  cfg.population_per_object = 3;
  cfg.remote_probability = 0.7;
  cfg.mean_delay = 60;
  cfg.event_grain_ns = 300;
  cfg.seed = 97;
  cfg.phase_length = 4'000;  // make the cancellation controllers move
  return cfg;
}

KernelConfig observed_config() {
  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = VirtualTime{16'000};
  kc.batch_size = 32;
  kc.gvt_period_events = 64;
  kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
  kc.checkpoint.dynamic = true;
  kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
  kc.aggregation.window_us = 32.0;
  kc.optimism.mode = KernelConfig::Optimism::Mode::Adaptive;
  kc.optimism.window = 4'000;
  kc.telemetry.enabled = true;
  kc.telemetry.sample_period_events = 64;
  return kc;
}

platform::SimulatedNowConfig observed_now() {
  platform::SimulatedNowConfig now;
  now.costs = platform::CostModel::free();
  now.costs.wire_latency_ns = 20'000;
  now.costs.msg_send_overhead_ns = 2'000;
  return now;
}

TEST(Observability, OffByDefaultAndEmpty) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.lp_phases.empty());
}

TEST(Observability, TracingDoesNotChangeTheSimulation) {
  // The acceptance property behind "low-overhead": recording only observes.
  // On the modeled platform that is exact — same final GVT, same committed
  // event count, same final state digests, same modeled makespan.
  const Model model = apps::phold::build_model(rollback_heavy_phold());

  KernelConfig off = observed_config();
  const RunResult plain = run(model, off, {.simulated_now = observed_now()});

  KernelConfig on = observed_config();
  on.observability.tracing = true;
  on.observability.profiling = true;
  const RunResult traced = run(model, on, {.simulated_now = observed_now()});

  EXPECT_EQ(traced.stats.final_gvt, plain.stats.final_gvt);
  EXPECT_EQ(traced.stats.total_committed(), plain.stats.total_committed());
  EXPECT_EQ(traced.stats.total_rollbacks(), plain.stats.total_rollbacks());
  EXPECT_EQ(traced.digests, plain.digests);
  EXPECT_EQ(traced.execution_time_ns, plain.execution_time_ns);

  EXPECT_FALSE(traced.trace.empty());
  ASSERT_EQ(traced.lp_phases.size(), 4u);

  // Post-mortem analysis is pure accounting over the drained trace: running
  // it (even twice) leaves the results — digests and modeled makespan —
  // untouched, and a re-run with analysis in the loop is bit-identical.
  const obs::AnalysisReport first = obs::analyze(traced.trace);
  const obs::AnalysisReport second = obs::analyze(traced.trace);
  EXPECT_EQ(first.cascades.total_rollbacks, second.cascades.total_rollbacks);
  std::uint64_t dropped = 0;
  for (const obs::LpTraceLog& log : traced.trace.lps) {
    dropped += log.dropped;
  }
  if (dropped == 0) {
    // With a lossless ring the analyzer sees every rollback the kernel
    // counted.
    EXPECT_EQ(first.cascades.total_rollbacks, traced.stats.total_rollbacks());
  }
  EXPECT_EQ(traced.digests, plain.digests);
  EXPECT_EQ(traced.execution_time_ns, plain.execution_time_ns);

  const RunResult traced_again = run(model, on, {.simulated_now = observed_now()});
  static_cast<void>(obs::analyze(traced_again.trace));
  EXPECT_EQ(traced_again.digests, plain.digests);
  EXPECT_EQ(traced_again.execution_time_ns, plain.execution_time_ns);
}

TEST(Observability, TraceCarriesRollbacksCheckpointsGvtAndDecisions) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.observability.tracing = true;
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});

  std::set<obs::TraceKind> kinds;
  ASSERT_EQ(r.trace.lps.size(), 4u);
  for (const obs::LpTraceLog& log : r.trace.lps) {
    std::uint64_t prev_ts = 0;
    for (const obs::TraceRecord& rec : log.records) {
      kinds.insert(rec.kind);
      EXPECT_GE(rec.wall_ns, prev_ts) << "per-LP timestamps must be monotone";
      prev_ts = rec.wall_ns;
    }
  }
  for (const obs::TraceKind expected :
       {obs::TraceKind::EventProcessed, obs::TraceKind::EventsCommitted,
        obs::TraceKind::RollbackBegin, obs::TraceKind::RollbackEnd,
        obs::TraceKind::StateSave, obs::TraceKind::StateRestore,
        obs::TraceKind::CoastForward, obs::TraceKind::GvtEpoch,
        obs::TraceKind::CheckpointDecision, obs::TraceKind::AggregateFlush,
        obs::TraceKind::CancellationSwitch, obs::TraceKind::TelemetrySample}) {
    EXPECT_TRUE(kinds.count(expected))
        << "missing trace kind: " << obs::to_string(expected);
  }
}

TEST(Observability, ChromeTraceOfARealRunContainsTheKeyEvents) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.observability.tracing = true;
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});

  std::ostringstream os;
  write_chrome_trace(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name :
       {"rollback", "checkpoint", "gvt", "chi_decision", "cancellation_switch"}) {
    EXPECT_NE(json.find("\"" + std::string(name) + "\""), std::string::npos)
        << "trace lacks " << name << " events";
  }
  // Structural well-formedness is covered by obs_test's JSON parser; here we
  // only need the kernel actually fed the exporter.
}

TEST(Observability, PhaseTotalsCoverTheKernelsWork) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.observability.profiling = true;
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});

  ASSERT_EQ(r.lp_phases.size(), 4u);
  obs::PhaseTotals total;
  for (const obs::PhaseTotals& t : r.lp_phases) {
    total.merge(t);
  }
  using P = obs::Phase;
  EXPECT_GT(total.count[static_cast<std::size_t>(P::EventProcessing)], 0u);
  EXPECT_GT(total.count[static_cast<std::size_t>(P::Rollback)], 0u);
  EXPECT_GT(total.count[static_cast<std::size_t>(P::Gvt)], 0u);
  EXPECT_GT(total.count[static_cast<std::size_t>(P::Comm)], 0u);
  // Rollback entries must match the kernel's own counter.
  EXPECT_EQ(total.count[static_cast<std::size_t>(P::Rollback)],
            r.stats.total_rollbacks());
}

TEST(Observability, MetricsExportsParse) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.observability.tracing = true;
  kc.observability.profiling = true;
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});

  const obs::MetricsSnapshot snapshot = build_metrics(r);
  bool committed = false, phase = false;
  for (const obs::Metric& m : snapshot.metrics) {
    committed |= m.name == "otw_events_committed_total" &&
                 m.value == static_cast<double>(r.stats.total_committed());
    phase |= m.name == "otw_phase_ns" && m.value > 0;
  }
  EXPECT_TRUE(committed);
  EXPECT_TRUE(phase);

  std::ostringstream jsonl;
  write_metrics_jsonl(jsonl, r);
  EXPECT_NE(jsonl.str().find("\"otw_execution_time_ns\""), std::string::npos);

  std::ostringstream prom;
  write_prometheus(prom, r);
  EXPECT_NE(prom.str().find("# TYPE otw_phase_ns"), std::string::npos);
}

TEST(Observability, RingOverflowIsAccountedNotFatal) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.observability.tracing = true;
  kc.observability.ring_capacity = 64;  // force heavy overwrite
  const RunResult r = run(model, kc, {.simulated_now = observed_now()});

  std::uint64_t dropped = 0;
  for (const obs::LpTraceLog& log : r.trace.lps) {
    EXPECT_LE(log.records.size(), 64u);
    dropped += log.dropped;
  }
  EXPECT_GT(dropped, 0u) << "expected the tiny ring to overflow";

  // The exporter must still emit balanced, loadable JSON (orphan repair).
  std::ostringstream os;
  write_chrome_trace(os, r);
  EXPECT_NE(os.str().find("trace_overflow"), std::string::npos);
}

TEST(Observability, ThreadedEngineCollectsWallClockTraces) {
  auto app = rollback_heavy_phold();
  app.num_objects = 8;
  app.num_lps = 2;
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = observed_config();
  kc.num_lps = 2;
  kc.end_time = VirtualTime{8'000};
  kc.observability.tracing = true;
  kc.observability.profiling = true;
  const RunResult r = run(model, kc.with_engine(EngineKind::Threaded));

  EXPECT_FALSE(r.trace.empty());
  EXPECT_EQ(r.lp_phases.size(), 2u);
  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(r.digests, seq.digests);
}

TEST(Observability, DistributedEngineExportsWireInstrumentation) {
  const Model model = apps::phold::build_model(rollback_heavy_phold());
  KernelConfig kc = observed_config();
  kc.end_time = VirtualTime{8'000};
  kc.observability.tracing = true;
  kc.observability.profiling = true;
  const RunResult r = run(model, kc.with_engine(EngineKind::Distributed, 2));

  // Results harvested across process boundaries: digests, stats, telemetry,
  // traces and phases must all have made the trip.
  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(r.digests, seq.digests);
  EXPECT_EQ(r.stats.total_committed(), seq.events_processed);
  ASSERT_EQ(r.stats.lps.size(), 4u);
  EXPECT_EQ(r.lp_phases.size(), 4u);
  EXPECT_FALSE(r.telemetry.empty());

  // otw_dist_* metrics are present and consistent with the run.
  const obs::MetricsSnapshot snapshot = build_metrics(r);
  bool shards = false, frames = false, tokens = false;
  for (const obs::Metric& m : snapshot.metrics) {
    shards |= m.name == "otw_dist_shards" && m.value == 2.0;
    frames |= m.name == "otw_dist_frames_sent_total" && m.value > 0;
    tokens |= m.name == "otw_dist_gvt_token_frames_total" && m.value > 0;
  }
  EXPECT_TRUE(shards);
  EXPECT_TRUE(frames);
  EXPECT_TRUE(tokens);

  // Wire-frame trace records ride home on the shard tracks (lp offset past
  // the LP ids) and survive the Chrome-trace exporter.
  bool wire_track = false;
  for (const obs::LpTraceLog& log : r.trace.lps) {
    if (log.lp >= 4 && !log.records.empty()) {
      wire_track = true;
      EXPECT_NE(log.name.find("wire"), std::string::npos);
    }
  }
  EXPECT_TRUE(wire_track);
  std::ostringstream os;
  write_chrome_trace(os, r);
  EXPECT_NE(os.str().find("wire_frame"), std::string::npos);
}

}  // namespace
}  // namespace otw::tw
