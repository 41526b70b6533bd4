// Work-stealing scheduler substrate and engine-level scheduling semantics:
// MPSC mailbox edge cases (ring overflow backpressure, per-source FIFO under
// preemption), steal-queue exactly-once handoff, timer-wheel wakeups — and
// the regression test for the old one-thread-per-LP engine's latent bug of
// ignoring LpContext::request_wakeup (it only ever re-stepped Idle LPs on a
// fixed poll; with polling gone, a missed wakeup hangs forever).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "otw/platform/mpsc_mailbox.hpp"
#include "otw/platform/steal_queue.hpp"
#include "otw/platform/threaded.hpp"
#include "otw/platform/timer_wheel.hpp"
#include "otw/util/assert.hpp"

namespace otw::platform {
namespace {

// --- MpscMailbox -----------------------------------------------------------

TEST(MpscMailbox, FifoSingleProducer) {
  MpscMailbox<int> box(8);
  for (int i = 0; i < 5; ++i) {
    box.push(i);
  }
  for (int i = 0; i < 5; ++i) {
    const auto v = box.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(box.pop().has_value());
}

TEST(MpscMailbox, OverflowKeepsOrderAndCountsBackpressure) {
  // Ring of 2: almost everything takes the overflow path, and the hand-back
  // from overflow to consumer must still be FIFO.
  MpscMailbox<int> box(2);
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) {
    box.push(i);
  }
  EXPECT_GT(box.overflow_pushes(), 0u);
  for (int i = 0; i < kCount; ++i) {
    const auto v = box.pop();
    ASSERT_TRUE(v.has_value()) << "at " << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(box.pop().has_value());
}

TEST(MpscMailbox, DrainingOverflowReturnsToRingFastPath) {
  MpscMailbox<int> box(2);
  for (int i = 0; i < 10; ++i) {
    box.push(i);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(box.pop().value(), i);
  }
  const std::uint64_t overflowed = box.overflow_pushes();
  // Empty again: pushes fit the ring, the overflow counter stays put.
  box.push(100);
  ASSERT_EQ(box.pop().value(), 100);
  EXPECT_EQ(box.overflow_pushes(), overflowed);
}

TEST(MpscMailbox, PerProducerFifoUnderConcurrency) {
  // 4 producers × 5000 values through a 4-slot ring: constant backpressure,
  // constant contention. The consumer must see each producer's sequence in
  // order (values are tagged producer*kPer + seq).
  constexpr int kProducers = 4;
  constexpr int kPer = 5'000;
  MpscMailbox<int> box(4);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPer; ++i) {
        box.push(p * kPer + i);
      }
    });
  }
  std::vector<int> next(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPer) {
    const auto v = box.pop();
    if (!v.has_value()) {
      std::this_thread::yield();
      continue;
    }
    const int p = *v / kPer;
    const int seq = *v % kPer;
    ASSERT_EQ(seq, next[p]) << "producer " << p << " overtook itself";
    ++next[p];
    ++received;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_FALSE(box.pop().has_value());
}

// Payload whose move-assignment (used only by the ring-cell write between a
// producer's ticket CAS and its sequence publish) can be stalled on demand,
// deterministically opening the claimed-but-unpublished window.
struct GatedPayload {
  static constexpr int kStall = -1;
  static inline std::atomic<bool> gate_open{true};
  static inline std::atomic<bool> stalled{false};

  int v = 0;

  GatedPayload() = default;
  explicit GatedPayload(int value) : v(value) {}
  GatedPayload(GatedPayload&& other) noexcept : v(other.v) {}
  GatedPayload& operator=(GatedPayload&& other) noexcept {
    v = other.v;
    if (v == kStall) {
      stalled.store(true, std::memory_order_release);
      while (!gate_open.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    return *this;
  }
};

TEST(MpscMailbox, OverflowNeverOvertakesUnpublishedRingClaim) {
  // Regression: producer A claims ring cell 0 and stalls before publishing;
  // producer B then publishes a ring entry and overflows another. pop() must
  // NOT hand out B's overflow entry while B's earlier ring entry is trapped
  // behind A's unpublished cell — that would break per-producer FIFO (an
  // anti-message could overtake its positive message).
  GatedPayload::gate_open.store(false);
  GatedPayload::stalled.store(false);
  MpscMailbox<GatedPayload> box(2);

  std::thread a([&box] { box.push(GatedPayload(GatedPayload::kStall)); });
  while (!GatedPayload::stalled.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  box.push(GatedPayload(1));  // ring, published, behind A's claim
  box.push(GatedPayload(2));  // ring full -> overflow

  // The ring head looks empty (unpublished claim) but must not be bypassed.
  EXPECT_FALSE(box.pop().has_value());

  GatedPayload::gate_open.store(true, std::memory_order_release);
  a.join();
  ASSERT_EQ(box.pop().value().v, GatedPayload::kStall);
  ASSERT_EQ(box.pop().value().v, 1);
  ASSERT_EQ(box.pop().value().v, 2);
  EXPECT_FALSE(box.pop().has_value());
}

TEST(MpscMailbox, MovesUniquePtrPayloads) {
  MpscMailbox<std::unique_ptr<int>> box(2);
  box.push(std::make_unique<int>(7));
  box.push(std::make_unique<int>(8));
  box.push(std::make_unique<int>(9));  // overflow path
  EXPECT_EQ(**box.pop(), 7);
  EXPECT_EQ(**box.pop(), 8);
  EXPECT_EQ(**box.pop(), 9);
}

// --- StealQueue ------------------------------------------------------------

TEST(StealQueue, FifoOrder) {
  StealQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), StealQueue::kEmpty);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.push(i));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.pop(), i);
  }
  EXPECT_EQ(q.pop(), StealQueue::kEmpty);
}

TEST(StealQueue, RejectsPushWhenFull) {
  StealQueue q(2);
  EXPECT_TRUE(q.push(0));
  EXPECT_TRUE(q.push(1));
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop(), 0u);
  EXPECT_TRUE(q.push(2));
}

TEST(StealQueue, ConcurrentThievesTakeEachItemExactlyOnce) {
  constexpr std::uint32_t kItems = 4'096;
  constexpr int kThieves = 4;
  StealQueue q(kItems);
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(q.push(i));
  }
  std::vector<std::atomic<int>> taken(kItems);
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&q, &taken] {
      for (;;) {
        const std::uint32_t v = q.pop();
        if (v == StealQueue::kEmpty) {
          return;
        }
        taken[v].fetch_add(1);
      }
    });
  }
  for (auto& t : thieves) {
    t.join();
  }
  for (std::uint32_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(taken[i].load(), 1) << "item " << i;
  }
}

// --- TimerWheel ------------------------------------------------------------

TEST(TimerWheel, FiresOnlyExpiredEntries) {
  TimerWheel wheel(100, 16);
  wheel.schedule(0, 1'000);
  wheel.schedule(1, 2'000);
  wheel.schedule(2, 50'000);
  EXPECT_EQ(wheel.next_deadline(), 1'000u);

  std::vector<std::uint32_t> fired;
  wheel.advance(2'500, fired);
  std::sort(fired.begin(), fired.end());
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(wheel.next_deadline(), 50'000u);
  EXPECT_EQ(wheel.pending(), 1u);

  fired.clear();
  wheel.advance(49'999, fired);
  EXPECT_TRUE(fired.empty());
  wheel.advance(50'000, fired);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(wheel.next_deadline(), TimerWheel::kNever);
}

TEST(TimerWheel, SurvivesDeadlinesBeyondOneRevolution) {
  // tick 10 × 4 slots = one revolution per 40ns; deadlines hash onto the
  // same slots many revolutions out and must not fire early.
  TimerWheel wheel(10, 4);
  wheel.schedule(7, 10'000);
  std::vector<std::uint32_t> fired;
  wheel.advance(9'999, fired);
  EXPECT_TRUE(fired.empty());
  wheel.advance(10'000, fired);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{7}));
}

// --- ThreadedEngine scheduling semantics -----------------------------------

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

/// REGRESSION (old engine bug): the one-thread-per-LP engine ignored
/// request_wakeup entirely and relied on its idle poll loop to happen to
/// re-step Idle LPs. With a realistic (large) poll interval this test times
/// out on the old engine; the work-stealing scheduler's timer wheel fires
/// the wakeup at the requested deadline with no traffic at all.
TEST(ThreadedWakeup, IdleLpIsResteppedAtItsRequestedDeadline) {
  ThreadedConfig cfg;
  std::atomic<int> steps{0};
  ScriptLp lp([&steps](LpContext& ctx) {
    if (steps.fetch_add(1) == 0) {
      ctx.request_wakeup(ctx.now_ns() + 2'000'000);  // +2 ms
      return StepStatus::Idle;
    }
    return StepStatus::Done;
  });
  ThreadedEngine engine(cfg);
  const auto start = std::chrono::steady_clock::now();
  const auto result = engine.run({&lp});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(steps.load(), 2);
  EXPECT_EQ(result.scheduler.timers_scheduled, 1u);
  // Well under the old engine's 0.5s poll, with slack for a loaded machine.
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
}

TEST(ThreadedWakeup, RepeatedWakeupsDriveAnOtherwiseSilentLp) {
  // No messages ever flow; progress depends entirely on the timer wheel.
  ThreadedConfig cfg;
  cfg.timer_tick_ns = 1'024;
  std::atomic<int> wakes{0};
  ScriptLp lp([&wakes](LpContext& ctx) {
    if (wakes.fetch_add(1) < 10) {
      ctx.request_wakeup(ctx.now_ns() + 200'000);  // +0.2 ms
      return StepStatus::Idle;
    }
    return StepStatus::Done;
  });
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&lp});
  EXPECT_EQ(wakes.load(), 11);
  EXPECT_EQ(result.scheduler.timers_scheduled, 10u);
}

TEST(ThreadedScheduler, SelfSendsArriveInOrder) {
  ThreadedConfig cfg;
  cfg.mailbox_capacity = 2;  // force the overflow path for self-sends too
  int sent = 0;
  int received = 0;
  bool ok = true;
  ScriptLp lp([&](LpContext& ctx) {
    // Burst of 5 into a 2-slot ring: messages 3..5 take the overflow path,
    // yet must still come out behind 1..2.
    for (int burst = 0; burst < 5 && sent < 50; ++burst, ++sent) {
      ctx.send(0, std::make_unique<IntMessage>(sent));
    }
    while (auto msg = ctx.poll()) {
      ok = ok && static_cast<IntMessage&>(*msg).value() == received;
      ++received;
    }
    return received == 50 ? StepStatus::Done : StepStatus::Active;
  });
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&lp});
  EXPECT_TRUE(ok);
  EXPECT_EQ(received, 50);
  EXPECT_GT(result.scheduler.mailbox_overflows, 0u);
}

TEST(ThreadedScheduler, NonOvertakingPerChannelUnderForcedPreemption) {
  // 4 senders hammer one receiver through 2-slot mailboxes on 2 workers:
  // constant stealing, parking and ring overflow. Per (src,dst) FIFO must
  // survive all of it.
  constexpr int kSenders = 4;
  constexpr int kPer = 500;
  ThreadedConfig cfg;
  cfg.num_workers = 2;
  cfg.mailbox_capacity = 2;

  std::vector<std::unique_ptr<ScriptLp>> lps;
  for (int s = 0; s < kSenders; ++s) {
    lps.push_back(std::make_unique<ScriptLp>([s, n = 0](LpContext& ctx) mutable {
      ctx.send(kSenders, std::make_unique<IntMessage>(s * kPer + n));
      return ++n == kPer ? StepStatus::Done : StepStatus::Active;
    }));
  }
  std::vector<int> next(kSenders, 0);
  int received = 0;
  bool ok = true;
  lps.push_back(std::make_unique<ScriptLp>([&](LpContext& ctx) {
    while (auto msg = ctx.poll()) {
      const int v = static_cast<IntMessage&>(*msg).value();
      ok = ok && v % kPer == next[v / kPer];
      ++next[v / kPer];
      ++received;
    }
    return received == kSenders * kPer ? StepStatus::Done : StepStatus::Idle;
  }));

  std::vector<LpRunner*> runners;
  runners.reserve(lps.size());
  for (auto& lp : lps) {
    runners.push_back(lp.get());
  }
  ThreadedEngine engine(cfg);
  const auto result = engine.run(runners);
  EXPECT_TRUE(ok) << "a sender's messages overtook each other";
  EXPECT_EQ(received, kSenders * kPer);
  EXPECT_EQ(result.scheduler.num_workers, 2u);
}

TEST(ThreadedScheduler, SingleWorkerInterleavesActiveLps) {
  // With 1 worker a LIFO run queue would let the first Active LP starve the
  // rest; FIFO order guarantees everyone finishes.
  ThreadedConfig cfg;
  cfg.num_workers = 1;
  std::atomic<int> done{0};
  auto make = [&done](int n) {
    return [&done, n, count = 0](LpContext&) mutable {
      if (++count == n) {
        done.fetch_add(1);
        return StepStatus::Done;
      }
      return StepStatus::Active;
    };
  };
  ScriptLp a(make(500)), b(make(500)), c(make(500)), d(make(500));
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&a, &b, &c, &d});
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(result.steps, 2'000u);
  ASSERT_EQ(result.scheduler.workers.size(), 1u);
  EXPECT_EQ(result.scheduler.workers[0].steps, 2'000u);
}

TEST(ThreadedScheduler, MoreWorkersThanLpsCompletes) {
  ThreadedConfig cfg;
  cfg.num_workers = 8;
  std::atomic<int> total{0};
  // Idle/wakeup cadence keeps the run alive ~5ms so the six surplus workers
  // actually reach the parking lot instead of the run ending under them.
  auto step = [&total, count = 0](LpContext& ctx) mutable {
    total.fetch_add(1);
    if (++count == 5) {
      return StepStatus::Done;
    }
    ctx.request_wakeup(ctx.now_ns() + 1'000'000);  // +1 ms
    return StepStatus::Idle;
  };
  ScriptLp a(step), b(step);
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&a, &b});
  EXPECT_EQ(total.load(), 10);
  EXPECT_EQ(result.scheduler.num_workers, 8u);
  EXPECT_GT(result.scheduler.total_parks(), 0u);
}

TEST(ThreadedScheduler, CapturesWorkerTraceRings) {
  ThreadedConfig cfg;
  cfg.num_workers = 2;
  cfg.scheduler_trace_capacity = 256;
  ScriptLp ping([n = 0](LpContext& ctx) mutable {
    ctx.send(1, std::make_unique<IntMessage>(n));
    return ++n == 20 ? StepStatus::Done : StepStatus::Active;
  });
  int got = 0;
  ScriptLp pong([&got](LpContext& ctx) {
    while (ctx.poll()) {
      ++got;
    }
    return got == 20 ? StepStatus::Done : StepStatus::Idle;
  });
  ThreadedEngine engine(cfg);
  const auto result = engine.run({&ping, &pong});
  ASSERT_EQ(result.worker_traces.size(), 2u);
  EXPECT_EQ(result.worker_traces[0].name, "worker 0");
  EXPECT_EQ(result.worker_traces[1].name, "worker 1");
}

}  // namespace
}  // namespace otw::platform
