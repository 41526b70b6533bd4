// Real-concurrency stress: the threaded engine interleaves LPs by OS
// preemption, so every run explores a different schedule. The committed
// results must match the sequential kernel anyway — across configurations
// and repeated runs.
#include <gtest/gtest.h>

#include "otw/apps/phold.hpp"
#include "otw/apps/raid.hpp"
#include "otw/apps/smmp.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw {
namespace {

TEST(ThreadedStress, PholdRepeatedRunsMatchSequential) {
  apps::phold::PholdConfig app;
  app.num_objects = 12;
  app.num_lps = 4;
  app.population_per_object = 3;
  app.remote_probability = 0.6;
  app.seed = 41;
  const Model model = apps::phold::build_model(app);
  const VirtualTime end{2'000};
  const SequentialResult seq = run_sequential(model, end);

  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = end;
  kc.batch_size = 8;
  kc.gvt_period_events = 64;
  kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
  kc.checkpoint.dynamic = true;

  for (int trial = 0; trial < 3; ++trial) {
    const RunResult r = run(model, kc.with_engine(EngineKind::Threaded));
    EXPECT_EQ(r.digests, seq.digests) << "trial " << trial;
    EXPECT_EQ(r.stats.total_committed(), seq.events_processed) << "trial " << trial;
  }
}

TEST(ThreadedStress, SmmpWithAggregationMatchesSequential) {
  apps::smmp::SmmpConfig app;
  app.num_processors = 4;
  app.num_lps = 2;
  app.memory_banks = 8;
  app.requests_per_processor = 60;
  app.seed = 42;
  const Model model = apps::smmp::build_model(app);
  const SequentialResult seq = run_sequential(model);

  KernelConfig kc;
  kc.num_lps = 2;
  kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
  kc.aggregation.window_us = 50.0;
  const RunResult r = run(model, kc.with_engine(EngineKind::Threaded));
  EXPECT_EQ(r.digests, seq.digests);
}

TEST(ThreadedStress, RaidLazyCancellationMatchesSequential) {
  apps::raid::RaidConfig app;
  app.num_sources = 4;
  app.num_forks = 2;
  app.num_disks = 4;
  app.num_lps = 2;
  app.requests_per_source = 40;
  app.seed = 43;
  const Model model = apps::raid::build_model(app);
  const SequentialResult seq = run_sequential(model);

  KernelConfig kc;
  kc.num_lps = 2;
  kc.runtime.cancellation = core::CancellationControlConfig::lazy();
  kc.checkpoint.interval = 4;
  const RunResult r = run(model, kc.with_engine(EngineKind::Threaded));
  EXPECT_EQ(r.digests, seq.digests);
}

TEST(ThreadedStress, BoundedOptimismUnderThreads) {
  apps::phold::PholdConfig app;
  app.num_objects = 8;
  app.num_lps = 2;
  app.population_per_object = 2;
  app.seed = 44;
  const Model model = apps::phold::build_model(app);
  const VirtualTime end{1'500};
  const SequentialResult seq = run_sequential(model, end);

  KernelConfig kc;
  kc.num_lps = 2;
  kc.end_time = end;
  kc.optimism.mode = KernelConfig::Optimism::Mode::Adaptive;
  kc.optimism.window = 200;
  const RunResult r = run(model, kc.with_engine(EngineKind::Threaded));
  EXPECT_EQ(r.digests, seq.digests);
}

}  // namespace
}  // namespace otw::tw
