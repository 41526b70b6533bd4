// End-to-end kernel tests on small PHOLD workloads: termination, statistics
// invariants, aggregation effects, GVT behaviour.
#include "otw/tw/kernel.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "otw/apps/phold.hpp"
#include "otw/tw/lp.hpp"
#include "otw/tw/messages.hpp"
#include "otw/tw/wire.hpp"

namespace otw::tw {
namespace {

apps::phold::PholdConfig small_phold(std::uint32_t objects = 12, LpId lps = 4) {
  apps::phold::PholdConfig cfg;
  cfg.num_objects = objects;
  cfg.num_lps = lps;
  cfg.population_per_object = 3;
  cfg.remote_probability = 0.5;
  cfg.mean_delay = 100;
  cfg.event_grain_ns = 500;
  cfg.seed = 11;
  return cfg;
}

KernelConfig kernel_config(LpId lps, VirtualTime end) {
  KernelConfig kc;
  kc.num_lps = lps;
  kc.end_time = end;
  kc.gvt_period_events = 64;
  return kc;
}

platform::SimulatedNowConfig fast_now() {
  platform::SimulatedNowConfig cfg;
  cfg.costs = platform::CostModel::free();
  cfg.costs.wire_latency_ns = 2'000;
  cfg.costs.msg_send_overhead_ns = 1'000;
  return cfg;
}

TEST(Kernel, PholdTerminatesAndMatchesSequential) {
  const auto app = small_phold();
  const Model model = apps::phold::build_model(app);
  const KernelConfig kc = kernel_config(app.num_lps, VirtualTime{3'000});

  const SequentialResult seq = run_sequential(model, kc.end_time);
  ASSERT_GT(seq.events_processed, 100u);

  const RunResult tw = run(model, kc, {.simulated_now = fast_now()});
  EXPECT_TRUE(tw.stats.final_gvt.is_infinity());
  EXPECT_EQ(tw.stats.total_committed(), seq.events_processed);
  EXPECT_EQ(tw.digests, seq.digests);
}

TEST(Kernel, RollbacksHappenAndAreInvisible) {
  // Large batches + latency make LPs run ahead: stragglers are guaranteed.
  const auto app = small_phold(12, 4);
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = kernel_config(app.num_lps, VirtualTime{6'000});
  kc.batch_size = 32;

  const RunResult tw = run(model, kc, {.simulated_now = fast_now()});
  const ObjectStats totals = tw.stats.object_totals();
  EXPECT_GT(totals.rollbacks, 0u) << "config failed to provoke rollbacks";
  EXPECT_GT(totals.events_rolled_back, 0u);

  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(tw.digests, seq.digests);
  EXPECT_EQ(tw.stats.total_committed(), seq.events_processed);
}

TEST(Kernel, StatisticsInvariants) {
  const auto app = small_phold();
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = kernel_config(app.num_lps, VirtualTime{5'000});
  kc.batch_size = 16;
  const RunResult tw = run(model, kc, {.simulated_now = fast_now()});
  const ObjectStats obj = tw.stats.object_totals();
  const LpStats lp = tw.stats.lp_totals();

  // Every anti-message sent is eventually received and annihilated.
  EXPECT_EQ(obj.anti_messages_sent, obj.anti_messages_received);
  // Processing = committed + undone + coast-forward re-execution.
  EXPECT_EQ(obj.events_processed,
            obj.events_committed + obj.events_rolled_back +
                obj.coast_forward_events);
  // Rollbacks were triggered by stragglers or by anti-messages on processed
  // events; both are bounded by total rollbacks.
  EXPECT_GE(obj.rollbacks, obj.stragglers);
  // All remote events were shipped in aggregates (policy None: 1 per batch).
  EXPECT_EQ(lp.events_sent_remote, lp.messages_aggregated);
  EXPECT_GT(lp.gvt_epochs, 0u);
}

TEST(Kernel, AggregationReducesPhysicalMessages) {
  const auto app = small_phold(16, 4);
  const Model model = apps::phold::build_model(app);
  KernelConfig none = kernel_config(app.num_lps, VirtualTime{4'000});
  none.aggregation.policy = comm::AggregationPolicy::None;

  KernelConfig faw = none;
  faw.aggregation.policy = comm::AggregationPolicy::Fixed;
  faw.aggregation.window_us = 200.0;

  const RunResult r_none = run(model, none, {.simulated_now = fast_now()});
  const RunResult r_faw = run(model, faw, {.simulated_now = fast_now()});

  EXPECT_LT(r_faw.physical_messages, r_none.physical_messages);
  // Aggregation must not change committed results.
  EXPECT_EQ(r_faw.digests, r_none.digests);
  EXPECT_GT(r_faw.stats.lp_totals().aggregate_size.mean(), 1.0);
}

TEST(Kernel, SingleLpDegeneratesToSequentialBehaviour) {
  auto app = small_phold(8, 1);
  app.remote_probability = 0.0;
  const Model model = apps::phold::build_model(app);
  const KernelConfig kc = kernel_config(1, VirtualTime{4'000});
  const RunResult tw = run(model, kc, {.simulated_now = fast_now()});
  EXPECT_EQ(tw.stats.total_rollbacks(), 0u);
  EXPECT_EQ(tw.physical_messages, 0u);

  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(tw.digests, seq.digests);
}

TEST(Kernel, ThreadedEngineMatchesSequential) {
  const auto app = small_phold(8, 2);
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = kernel_config(2, VirtualTime{2'500});
  const RunResult tw = run(model, kc.with_engine(EngineKind::Threaded));
  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(tw.digests, seq.digests);
  EXPECT_EQ(tw.stats.total_committed(), seq.events_processed);
}

TEST(Kernel, ThreadedOneWorkerRunsWholeBatches) {
  // Eight LPs share one worker, so other LPs always wait on its queue. A
  // step still runs up to batch_size events: with 8 per batch, the worker
  // needs far fewer steps than events (one step per event would mean the
  // batch was cut short whenever another LP was queued).
  const auto app = small_phold(32, 8);
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = kernel_config(8, VirtualTime{4'000});
  kc.batch_size = 8;
  const RunResult tw = run(model, kc.with_engine(EngineKind::Threaded, 1));
  const SequentialResult seq = run_sequential(model, kc.end_time);
  EXPECT_EQ(tw.digests, seq.digests);
  ASSERT_EQ(tw.scheduler.workers.size(), 1u);
  const std::uint64_t processed = tw.stats.object_totals().events_processed;
  EXPECT_GT(processed, 1'000u);
  EXPECT_LE(tw.scheduler.workers[0].steps, processed / 4);
}

/// The rest of the GVT ring with no delay: every token the LP forwards is
/// back in its own inbox before its next poll, as when the other LPs run the
/// whole ring while this LP's worker is preempted. Other messages are
/// dropped.
class InstantRingContext final : public platform::LpContext {
 public:
  InstantRingContext(LpId self, LpId num_lps) : self_(self), num_lps_(num_lps) {}

  [[nodiscard]] LpId self() const noexcept override { return self_; }
  [[nodiscard]] LpId num_lps() const noexcept override { return num_lps_; }
  [[nodiscard]] std::uint64_t now_ns() const noexcept override { return 0; }
  void charge(std::uint64_t /*ns*/) noexcept override {}
  void send(LpId /*dst*/, std::unique_ptr<platform::EngineMessage> msg) override {
    if (msg->wire_tag() == kTagGvtToken) {
      ++forwarded;
      inbox.push_back(std::move(msg));
    }
  }
  std::unique_ptr<platform::EngineMessage> poll() override {
    // The poll cap ends a drain that would otherwise never stop.
    if (inbox.empty() || polls == kMaxPolls) {
      return nullptr;
    }
    ++polls;
    auto msg = std::move(inbox.front());
    inbox.pop_front();
    return msg;
  }

  static constexpr int kMaxPolls = 64;
  std::deque<std::unique_ptr<platform::EngineMessage>> inbox;
  int polls = 0;
  int forwarded = 0;

 private:
  LpId self_;
  LpId num_lps_;
};

TEST(Kernel, DrainStopsAtAReturningGvtToken) {
  // A step that forwarded every returning round would never reach its
  // channel pump, so white events parked there would hold the epoch open
  // and the token would circle forever.
  const Model model = apps::phold::build_model(small_phold(6, 3));
  std::vector<LpId> object_to_lp;
  std::vector<std::pair<ObjectId, std::unique_ptr<SimulationObject>>> local;
  for (ObjectId id = 0; id < model.objects.size(); ++id) {
    object_to_lp.push_back(model.objects[id].lp);
    if (model.objects[id].lp == 1) {
      local.emplace_back(id, model.objects[id].factory());
    }
  }
  LogicalProcess lp(1, kernel_config(3, VirtualTime{1'000}), object_to_lp,
                    std::move(local));
  InstantRingContext ctx(1, 3);
  ctx.inbox.push_back(std::make_unique<GvtTokenMessage>());
  EXPECT_EQ(lp.step(ctx), platform::StepStatus::Active);
  EXPECT_EQ(ctx.forwarded, 2);       // the first visit and the return
  EXPECT_EQ(ctx.inbox.size(), 1u);   // the next return waits one step
  EXPECT_EQ(lp.step(ctx), platform::StepStatus::Active);
  EXPECT_EQ(ctx.forwarded, 4);
}

TEST(Kernel, SimulatedRunsAreDeterministic) {
  const auto app = small_phold();
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = kernel_config(app.num_lps, VirtualTime{3'000});
  kc.batch_size = 16;
  const RunResult a = run(model, kc, {.simulated_now = fast_now()});
  const RunResult b = run(model, kc, {.simulated_now = fast_now()});
  EXPECT_EQ(a.execution_time_ns, b.execution_time_ns);
  EXPECT_EQ(a.physical_messages, b.physical_messages);
  EXPECT_EQ(a.stats.total_rollbacks(), b.stats.total_rollbacks());
  EXPECT_EQ(a.digests, b.digests);
}

TEST(Kernel, GvtPeriodTradesTokenTrafficForMemory) {
  const auto app = small_phold();
  const Model model = apps::phold::build_model(app);
  KernelConfig frequent = kernel_config(app.num_lps, VirtualTime{3'000});
  frequent.gvt_period_events = 16;
  KernelConfig rare = frequent;
  rare.gvt_period_events = 2'048;
  const RunResult r_freq = run(model, frequent, {.simulated_now = fast_now()});
  const RunResult r_rare = run(model, rare, {.simulated_now = fast_now()});
  EXPECT_GT(r_freq.stats.lp_totals().gvt_epochs,
            r_rare.stats.lp_totals().gvt_epochs);
  EXPECT_EQ(r_freq.digests, r_rare.digests);
}

TEST(Kernel, RejectsBadModels) {
  const Model empty;
  EXPECT_THROW(run_sequential(empty), ContractViolation);
  Model misplaced;
  misplaced.add(3, [] {
    return std::unique_ptr<SimulationObject>(nullptr);
  });
  KernelConfig kc;
  kc.num_lps = 2;  // object placed on LP 3
  EXPECT_THROW(run(misplaced, kc), ContractViolation);
}

TEST(Kernel, ExecutionTimeScalesWithCostModel) {
  const auto app = small_phold(8, 2);
  const Model model = apps::phold::build_model(app);
  const KernelConfig kc = kernel_config(2, VirtualTime{2'000});

  platform::SimulatedNowConfig cheap = fast_now();
  platform::SimulatedNowConfig expensive = fast_now();
  expensive.costs.msg_send_overhead_ns = 200'000;
  expensive.costs.wire_latency_ns = 200'000;

  const RunResult r_cheap = run(model, kc, {.simulated_now = cheap});
  const RunResult r_exp = run(model, kc, {.simulated_now = expensive});
  EXPECT_GT(r_exp.execution_time_ns, r_cheap.execution_time_ns);
  EXPECT_EQ(r_cheap.digests, r_exp.digests);
}

}  // namespace
}  // namespace otw::tw
