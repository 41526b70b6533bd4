// Telemetry recording + the paper's phase-tracking motivation: controllers
// re-adapt when the workload's character changes mid-run.
#include <gtest/gtest.h>

#include <sstream>

#include "otw/apps/phold.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw {
namespace {

apps::phold::PholdConfig phased_phold() {
  apps::phold::PholdConfig cfg;
  cfg.num_objects = 12;
  cfg.num_lps = 4;
  cfg.population_per_object = 3;
  cfg.remote_probability = 0.7;
  cfg.mean_delay = 60;
  cfg.event_grain_ns = 300;
  cfg.seed = 51;
  cfg.phase_length = 4'000;  // alternate lazy/aggressive-friendly regimes
  return cfg;
}

KernelConfig telemetry_config() {
  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = VirtualTime{24'000};  // six phases
  kc.batch_size = 32;
  kc.gvt_period_events = 64;
  kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
  kc.checkpoint.dynamic = true;
  kc.telemetry.enabled = true;
  kc.telemetry.sample_period_events = 64;
  return kc;
}

platform::SimulatedNowConfig telemetry_now() {
  platform::SimulatedNowConfig now;
  now.costs = platform::CostModel::free();
  now.costs.wire_latency_ns = 20'000;
  now.costs.msg_send_overhead_ns = 2'000;
  return now;
}

TEST(Telemetry, DisabledByDefaultAndEmpty) {
  const Model model = apps::phold::build_model(phased_phold());
  KernelConfig kc = telemetry_config();
  kc.telemetry.enabled = false;
  const RunResult r = run(model, kc, {.simulated_now = telemetry_now()});
  EXPECT_TRUE(r.telemetry.empty());
}

TEST(Telemetry, RecordsMonotoneSamples) {
  const Model model = apps::phold::build_model(phased_phold());
  const RunResult r =
      run(model, telemetry_config(), {.simulated_now = telemetry_now()});
  ASSERT_FALSE(r.telemetry.empty());
  ASSERT_EQ(r.telemetry.objects.size(), 12u);

  std::size_t total_samples = 0;
  for (const ObjectTrace& trace : r.telemetry.objects) {
    std::uint64_t prev = 0;
    for (const ObjectSample& s : trace.samples) {
      EXPECT_GT(s.events_processed, prev);
      prev = s.events_processed;
      EXPECT_GE(s.checkpoint_interval, 1u);
    }
    total_samples += trace.samples.size();
  }
  EXPECT_GT(total_samples, 50u);

  ASSERT_FALSE(r.telemetry.lps.empty());
  for (const LpTrace& trace : r.telemetry.lps) {
    VirtualTime prev_gvt = VirtualTime::zero();
    for (const LpSample& s : trace.samples) {
      EXPECT_GE(s.gvt, prev_gvt);  // GVT never regresses
      prev_gvt = s.gvt;
    }
  }
}

TEST(Telemetry, PhasedWorkloadMakesControllersSwitchBothWays) {
  // The paper's core motivation: the optimal configuration changes over the
  // simulation's lifetime. In the phased PHOLD, objects must leave
  // Aggressive during order-independent phases and return during
  // order-dependent ones.
  const Model model = apps::phold::build_model(phased_phold());
  const RunResult r =
      run(model, telemetry_config(), {.simulated_now = telemetry_now()});

  std::uint64_t switches = 0;
  bool saw_lazy_sample = false, saw_aggressive_sample = false;
  for (const auto& obj : r.stats.objects) {
    switches += obj.cancellation_switches;
  }
  for (const ObjectTrace& trace : r.telemetry.objects) {
    for (const ObjectSample& s : trace.samples) {
      saw_lazy_sample |= s.mode == core::CancellationMode::Lazy;
      saw_aggressive_sample |= s.mode == core::CancellationMode::Aggressive;
    }
  }
  EXPECT_GE(switches, 4u) << "controllers never re-adapted";
  EXPECT_TRUE(saw_lazy_sample);
  EXPECT_TRUE(saw_aggressive_sample);

  // And, as always, adaptation must not change committed results.
  const SequentialResult seq = run_sequential(model, VirtualTime{24'000});
  EXPECT_EQ(r.digests, seq.digests);
}

TEST(Telemetry, CsvContainsBothTraceKinds) {
  const Model model = apps::phold::build_model(phased_phold());
  const RunResult r =
      run(model, telemetry_config(), {.simulated_now = telemetry_now()});
  std::ostringstream os;
  r.telemetry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,id,events"), std::string::npos);
  EXPECT_NE(csv.find("\nobject,"), std::string::npos);
  EXPECT_NE(csv.find("\nlp,"), std::string::npos);
}

// Splits one CSV line into fields, keeping empties.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

TEST(Telemetry, CsvRoundTripsThroughTheDocumentedSchema) {
  // Parse the CSV back and check every row against the 12-column schema
  // documented in telemetry.hpp — and that the parsed samples reproduce the
  // in-memory telemetry exactly.
  const Model model = apps::phold::build_model(phased_phold());
  const RunResult r =
      run(model, telemetry_config(), {.simulated_now = telemetry_now()});
  std::ostringstream os;
  r.telemetry.write_csv(os);

  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line,
            "kind,id,events,time,chi,hit_ratio,mode,rollbacks,window_us,"
            "optimism,mem_bytes,pressure");

  std::size_t object_rows = 0, lp_rows = 0;
  while (std::getline(is, line)) {
    const std::vector<std::string> f = split_csv(line);
    ASSERT_EQ(f.size(), 12u) << "row: " << line;
    if (f[0] == "object") {
      const auto id = static_cast<std::uint32_t>(std::stoul(f[1]));
      ASSERT_LT(id, r.telemetry.objects.size());
      const ObjectTrace& trace = r.telemetry.objects[id];
      ++object_rows;
      const ObjectSample* match = nullptr;
      for (const ObjectSample& s : trace.samples) {
        if (std::to_string(s.events_processed) == f[2] &&
            std::to_string(s.lvt.ticks()) == f[3] &&
            std::to_string(s.rollbacks) == f[7]) {
          match = &s;
          break;
        }
      }
      ASSERT_NE(match, nullptr) << "no in-memory sample matches row: " << line;
      EXPECT_EQ(std::stoul(f[4]), match->checkpoint_interval);
      EXPECT_EQ(f[6], core::to_string(match->mode));
      EXPECT_EQ(std::stoull(f[10]), match->memory_bytes);
      EXPECT_TRUE(f[8].empty() && f[9].empty() && f[11].empty()) << line;
    } else {
      ASSERT_EQ(f[0], "lp") << line;
      ++lp_rows;
      const auto id = static_cast<std::uint32_t>(std::stoul(f[1]));
      bool found = false;
      for (const LpTrace& trace : r.telemetry.lps) {
        if (trace.lp != id) continue;
        for (const LpSample& s : trace.samples) {
          found = found || (std::to_string(s.events_processed) == f[2] &&
                            std::to_string(s.optimism_window) == f[9]);
        }
      }
      EXPECT_TRUE(found) << "no in-memory sample matches row: " << line;
      EXPECT_TRUE(f[4].empty() && f[5].empty() && f[6].empty() && f[7].empty())
          << line;
      // No budget configured: every LP samples as "normal" with a live
      // footprint figure.
      EXPECT_FALSE(f[10].empty()) << line;
      EXPECT_EQ(f[11], "normal") << line;
    }
  }

  std::size_t expected_object_rows = 0, expected_lp_rows = 0;
  for (const ObjectTrace& t : r.telemetry.objects) {
    expected_object_rows += t.samples.size();
  }
  for (const LpTrace& t : r.telemetry.lps) {
    expected_lp_rows += t.samples.size();
  }
  EXPECT_EQ(object_rows, expected_object_rows);
  EXPECT_EQ(lp_rows, expected_lp_rows);
  EXPECT_GT(object_rows, 0u);
  EXPECT_GT(lp_rows, 0u);
}

TEST(Telemetry, PhasedModelStillMatchesAcrossKernels) {
  auto app = phased_phold();
  app.num_objects = 8;
  app.num_lps = 2;
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = telemetry_config();
  kc.num_lps = 2;
  kc.end_time = VirtualTime{10'000};
  kc.telemetry.enabled = false;
  const SequentialResult seq = run_sequential(model, kc.end_time);
  const RunResult now = run(model, kc, {.simulated_now = telemetry_now()});
  EXPECT_EQ(now.digests, seq.digests);
  const RunResult threads = run(model, kc.with_engine(EngineKind::Threaded));
  EXPECT_EQ(threads.digests, seq.digests);
}

}  // namespace
}  // namespace otw::tw
