// Pins SimulatedNow's pricing. Each configuration is a small PHOLD run that
// reaches a set of the sites the kernel and the engine charge to the modeled
// clock: event overhead, copy and incremental saves, rollback and restore,
// lazy and passive comparisons, checkpoint/optimism/pressure control
// invocations, idle polls, and sends and receives. The test asserts that
// every site was reached and that the modeled makespan, committed count and
// rollback count are exactly the recorded ones, so a change to the cost
// plumbing that drops, doubles or moves one charge fails here.
//
// phase_length lies past end_time, so every PHOLD successor comes from the
// integer-hashed, order-independent phase: no delay depends on libm.
#include <gtest/gtest.h>

#include "otw/apps/phold.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw {
namespace {

constexpr VirtualTime kEnd{4'000};

apps::phold::PholdConfig pinned_phold() {
  apps::phold::PholdConfig cfg;
  cfg.num_objects = 16;
  cfg.num_lps = 4;
  cfg.population_per_object = 2;
  cfg.mean_delay = 60;
  cfg.event_grain_ns = 5'000;
  cfg.seed = 41;
  cfg.phase_length = 1'000'000;  // past kEnd: integer delays only
  return cfg;
}

KernelConfig base_config() {
  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = kEnd;
  kc.batch_size = 16;
  kc.gvt_period_events = 128;
  kc.gvt_min_interval_ns = 1'000'000;
  return kc;
}

struct Pin {
  std::uint64_t execution_time_ns;
  std::uint64_t committed;
  std::uint64_t rollbacks;
};

void expect_pinned(const RunResult& r, const Pin& pin) {
  EXPECT_EQ(r.execution_time_ns, pin.execution_time_ns);
  EXPECT_EQ(r.stats.total_committed(), pin.committed);
  EXPECT_EQ(r.stats.total_rollbacks(), pin.rollbacks);
}

TEST(Pricing, SimulatedNowMakespanIsPinned) {
  const Model model = apps::phold::build_model(pinned_phold());
  const SequentialResult seq = run_sequential(model, kEnd);
  // The default cost model prices every site with a non-zero cost.
  const EngineTuning tuning{};

  // Copy saves under the dynamic checkpoint controller; dynamic cancellation
  // compares passively while aggressive and lazily once it switches.
  KernelConfig copy = base_config();
  copy.checkpoint.dynamic = true;
  copy.checkpoint.control.control_period_events = 16;
  const RunResult a = run(model, copy, tuning);
  const ObjectStats ao = a.stats.object_totals();
  EXPECT_EQ(a.digests, seq.digests);
  EXPECT_GT(ao.states_saved, 0u);
  EXPECT_GT(ao.state_restores, 0u);
  EXPECT_GT(ao.checkpoint_control_ticks, 0u);
  EXPECT_GT(ao.lazy_hits + ao.lazy_misses, 0u);
  EXPECT_GT(ao.passive_hits + ao.passive_misses, 0u);
  EXPECT_GT(a.stats.lp_totals().idle_polls, 0u);
  EXPECT_GT(a.physical_messages, 0u);
  expect_pinned(a, {162'358'980, 2'068, 750});

  // Incremental saves under an adaptive optimism window and a binding
  // memory budget (both controllers are invoked on their control periods).
  KernelConfig incr = base_config();
  incr.checkpoint.state_saving = StateSaving::Incremental;
  incr.checkpoint.full_snapshot_interval = 4;
  incr.optimism.mode = KernelConfig::Optimism::Mode::Adaptive;
  incr.optimism.window = 400;
  incr.optimism.control.control_period_events = 32;
  incr.memory.budget_bytes = 64 * 1024;
  incr.memory.control.control_period_events = 32;
  incr.telemetry.enabled = true;
  incr.telemetry.sample_period_events = 16;
  const RunResult b = run(model, incr, tuning);
  const ObjectStats bo = b.stats.object_totals();
  EXPECT_EQ(b.digests, seq.digests);
  EXPECT_GT(bo.states_saved, 0u);
  EXPECT_GT(bo.state_restores, 0u);
  EXPECT_GT(b.stats.lp_totals().pressure_enters, 0u);
  bool window_moved = false;
  for (const LpTrace& lp : b.telemetry.lps) {
    for (const LpSample& s : lp.samples) {
      window_moved = window_moved || s.optimism_window != incr.optimism.window;
    }
  }
  EXPECT_TRUE(window_moved) << "the optimism controller never adapted";
  expect_pinned(b, {324'956'644, 2'068, 299});
}

}  // namespace
}  // namespace otw::tw
