#include "otw/platform/simulated_now.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "otw/util/assert.hpp"

namespace otw::platform {
namespace {

/// Trivial message carrying one integer.
class IntMessage final : public EngineMessage {
 public:
  explicit IntMessage(int value, std::uint64_t bytes = 8)
      : value_(value), bytes_(bytes) {}
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept override {
    return bytes_;
  }
  [[nodiscard]] int value() const noexcept { return value_; }

 private:
  int value_;
  std::uint64_t bytes_;
};

/// Scriptable LP for engine tests.
class ScriptLp final : public LpRunner {
 public:
  using Step = std::function<StepStatus(LpContext&)>;
  explicit ScriptLp(Step step) : step_(std::move(step)) {}
  StepStatus step(LpContext& ctx) override { return step_(ctx); }

 private:
  Step step_;
};

SimulatedNowConfig free_config() {
  SimulatedNowConfig cfg;
  cfg.costs = CostModel::free();
  return cfg;
}

TEST(SimulatedNow, SingleLpRunsToDone) {
  int steps = 0;
  ScriptLp lp([&](LpContext& ctx) {
    ctx.charge(100);
    return ++steps == 5 ? StepStatus::Done : StepStatus::Active;
  });
  SimulatedNowEngine engine(free_config());
  const auto result = engine.run({&lp});
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(result.steps, 5u);
  EXPECT_EQ(result.execution_time_ns, 500u);
}

TEST(SimulatedNow, AlwaysStepsSmallestClock) {
  // LP0 charges 10 per step, LP1 charges 100: LP0 must run ~10x as often.
  std::vector<int> order;
  int count0 = 0, count1 = 0;
  ScriptLp lp0([&](LpContext& ctx) {
    order.push_back(0);
    ctx.charge(10);
    return ++count0 == 50 ? StepStatus::Done : StepStatus::Active;
  });
  ScriptLp lp1([&](LpContext& ctx) {
    order.push_back(1);
    ctx.charge(100);
    return ++count1 == 5 ? StepStatus::Done : StepStatus::Active;
  });
  SimulatedNowEngine engine(free_config());
  engine.run({&lp0, &lp1});
  // In the first 11 scheduling decisions LP1 appears at most twice.
  int ones = 0;
  for (int i = 0; i < 11; ++i) ones += order[i];
  EXPECT_LE(ones, 2);
}

TEST(SimulatedNow, MessageDeliveryRespectsLatency) {
  SimulatedNowConfig cfg = free_config();
  cfg.costs.wire_latency_ns = 1'000;
  std::uint64_t received_at = 0;
  bool sent = false;

  ScriptLp sender([&](LpContext& ctx) {
    if (!sent) {
      sent = true;
      ctx.send(1, std::make_unique<IntMessage>(42));
    }
    return StepStatus::Done;
  });
  ScriptLp receiver([&](LpContext& ctx) {
    auto msg = ctx.poll();
    if (msg == nullptr) {
      return StepStatus::Idle;  // parks until the message lands
    }
    received_at = ctx.now_ns();
    EXPECT_EQ(static_cast<IntMessage&>(*msg).value(), 42);
    return StepStatus::Done;
  });

  SimulatedNowEngine engine(cfg);
  const auto result = engine.run({&sender, &receiver});
  EXPECT_GE(received_at, 1'000u);
  EXPECT_EQ(result.physical_messages, 1u);
  EXPECT_EQ(result.wire_bytes, 8u);
}

TEST(SimulatedNow, SendChargesPerByteCost) {
  SimulatedNowConfig cfg = free_config();
  cfg.costs.msg_send_overhead_ns = 500;
  cfg.costs.msg_per_byte_ns = 10;
  std::uint64_t clock_after_send = 0;

  ScriptLp sender([&](LpContext& ctx) {
    ctx.send(1, std::make_unique<IntMessage>(1, /*bytes=*/100));
    clock_after_send = ctx.now_ns();
    return StepStatus::Done;
  });
  ScriptLp receiver([&](LpContext& ctx) {
    return ctx.poll() ? StepStatus::Done : StepStatus::Idle;
  });

  SimulatedNowEngine engine(cfg);
  engine.run({&sender, &receiver});
  EXPECT_EQ(clock_after_send, 500u + 100u * 10u);
}

TEST(SimulatedNow, FifoPerChannel) {
  // Messages sent in order must be polled in order.
  int to_send = 5;
  std::vector<int> received;
  ScriptLp sender([&](LpContext& ctx) {
    if (to_send > 0) {
      ctx.send(1, std::make_unique<IntMessage>(5 - to_send));
      --to_send;
      return StepStatus::Active;
    }
    return StepStatus::Done;
  });
  ScriptLp receiver([&](LpContext& ctx) {
    while (auto msg = ctx.poll()) {
      received.push_back(static_cast<IntMessage&>(*msg).value());
    }
    return received.size() == 5 ? StepStatus::Done : StepStatus::Idle;
  });
  SimulatedNowEngine engine(free_config());
  engine.run({&sender, &receiver});
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatedNow, SelfSendArrivesWithoutWireLatency) {
  SimulatedNowConfig cfg = free_config();
  cfg.costs.wire_latency_ns = 1'000'000;
  bool sent = false;
  bool got = false;
  ScriptLp lp([&](LpContext& ctx) {
    if (!sent) {
      sent = true;
      ctx.send(0, std::make_unique<IntMessage>(7));
      return StepStatus::Active;
    }
    got = ctx.poll() != nullptr;
    return StepStatus::Done;
  });
  SimulatedNowEngine engine(cfg);
  engine.run({&lp});
  EXPECT_TRUE(got);
}

TEST(SimulatedNow, DeadlockIsDetected) {
  ScriptLp lp0([](LpContext&) { return StepStatus::Idle; });
  ScriptLp lp1([](LpContext&) { return StepStatus::Idle; });
  SimulatedNowEngine engine(free_config());
  EXPECT_THROW(engine.run({&lp0, &lp1}), std::runtime_error);
}

TEST(SimulatedNow, MaxStepsOverrunThrows) {
  SimulatedNowConfig cfg = free_config();
  cfg.max_steps = 10;
  ScriptLp lp([](LpContext& ctx) {
    ctx.charge(1);
    return StepStatus::Active;  // never finishes
  });
  SimulatedNowEngine engine(cfg);
  EXPECT_THROW(engine.run({&lp}), std::runtime_error);
}

TEST(SimulatedNow, IdleLpFastForwardsToArrival) {
  SimulatedNowConfig cfg = free_config();
  cfg.costs.wire_latency_ns = 50'000;
  std::uint64_t woke_at = 0;
  ScriptLp sender([&](LpContext& ctx) {
    ctx.charge(1'000);
    ctx.send(1, std::make_unique<IntMessage>(1));
    return StepStatus::Done;
  });
  int receiver_steps = 0;
  ScriptLp receiver([&](LpContext& ctx) {
    ++receiver_steps;
    if (ctx.poll()) {
      woke_at = ctx.now_ns();
      return StepStatus::Done;
    }
    return StepStatus::Idle;
  });
  SimulatedNowEngine engine(cfg);
  engine.run({&sender, &receiver});
  EXPECT_GE(woke_at, 51'000u);
  // Parked, not polled in a busy loop.
  EXPECT_LE(receiver_steps, 3);
}

TEST(SimulatedNow, DeterministicAcrossRuns) {
  auto run_once = [] {
    int a_count = 0, b_count = 0;
    std::vector<std::uint64_t> trace;
    ScriptLp a([&](LpContext& ctx) {
      ctx.charge(7);
      ctx.send(1, std::make_unique<IntMessage>(a_count));
      trace.push_back(ctx.now_ns());
      return ++a_count == 20 ? StepStatus::Done : StepStatus::Active;
    });
    ScriptLp b([&](LpContext& ctx) {
      while (ctx.poll()) {
        ++b_count;
      }
      trace.push_back(ctx.now_ns());
      return b_count == 20 ? StepStatus::Done : StepStatus::Idle;
    });
    SimulatedNowConfig cfg = free_config();
    cfg.costs.wire_latency_ns = 13;
    SimulatedNowEngine engine(cfg);
    engine.run({&a, &b});
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatedNow, RejectsEmptyAndNullLps) {
  SimulatedNowEngine engine(free_config());
  EXPECT_THROW(engine.run({}), ContractViolation);
  std::vector<LpRunner*> lps{nullptr};
  EXPECT_THROW(engine.run(lps), ContractViolation);
}

}  // namespace
}  // namespace otw::platform
