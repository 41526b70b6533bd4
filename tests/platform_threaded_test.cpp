#include "otw/platform/threaded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>

#include "otw/util/assert.hpp"

namespace otw::platform {
namespace {

class IntMessage final : public EngineMessage {
 public:
  explicit IntMessage(int value) : value_(value) {}
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept override { return 8; }
  [[nodiscard]] int value() const noexcept { return value_; }

 private:
  int value_;
};

class ScriptLp final : public LpRunner {
 public:
  using Step = std::function<StepStatus(LpContext&)>;
  explicit ScriptLp(Step step) : step_(std::move(step)) {}
  StepStatus step(LpContext& ctx) override { return step_(ctx); }

 private:
  Step step_;
};

TEST(Threaded, RunsAllLpsToCompletion) {
  std::atomic<int> total{0};
  auto make = [&total](int n) {
    return [&total, n, count = 0](LpContext&) mutable {
      total.fetch_add(1);
      return ++count == n ? StepStatus::Done : StepStatus::Active;
    };
  };
  ScriptLp a(make(10)), b(make(20)), c(make(30));
  ThreadedEngine engine(ThreadedConfig{});
  const auto result = engine.run({&a, &b, &c});
  EXPECT_EQ(total.load(), 60);
  EXPECT_EQ(result.steps, 60u);
}

TEST(Threaded, DeliversMessagesAcrossThreads) {
  constexpr int kCount = 200;
  std::atomic<int> received{0};
  ScriptLp sender([n = 0](LpContext& ctx) mutable {
    ctx.send(1, std::make_unique<IntMessage>(n));
    return ++n == kCount ? StepStatus::Done : StepStatus::Active;
  });
  int next_expected = 0;
  ScriptLp receiver([&](LpContext& ctx) {
    while (auto msg = ctx.poll()) {
      // FIFO per channel even across real threads.
      EXPECT_EQ(static_cast<IntMessage&>(*msg).value(), next_expected);
      ++next_expected;
      received.fetch_add(1);
    }
    return received.load() == kCount ? StepStatus::Done : StepStatus::Idle;
  });
  ThreadedEngine engine(ThreadedConfig{});
  const auto result = engine.run({&sender, &receiver});
  EXPECT_EQ(received.load(), kCount);
  EXPECT_EQ(result.physical_messages, static_cast<std::uint64_t>(kCount));
}

TEST(Threaded, PropagatesLpExceptions) {
  ScriptLp bad([](LpContext&) -> StepStatus {
    throw std::runtime_error("boom");
  });
  ScriptLp good([count = 0](LpContext&) mutable {
    return ++count == 3 ? StepStatus::Done : StepStatus::Active;
  });
  ThreadedEngine engine(ThreadedConfig{});
  EXPECT_THROW(engine.run({&bad, &good}), std::runtime_error);
}

TEST(Threaded, SpinOnChargeConsumesWallTime) {
  ThreadedConfig cfg;
  cfg.spin_on_charge = true;
  ScriptLp lp([count = 0](LpContext& ctx) mutable {
    ctx.charge(2'000'000);  // 2 ms
    return ++count == 3 ? StepStatus::Done : StepStatus::Active;
  });
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&lp});
  EXPECT_GE(result.execution_time_ns, 6'000'000u);
}

TEST(Threaded, RejectsEmptyLps) {
  ThreadedEngine engine(ThreadedConfig{});
  EXPECT_THROW(engine.run({}), ContractViolation);
}

}  // namespace
}  // namespace otw::platform
