// Unit tests of the per-object Time Warp machinery (rollback, coast-forward,
// aggressive/lazy cancellation, checkpointing) against a fake LP.
#include "otw/tw/object_runtime.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace otw::tw {
namespace {

class FakeLp final : public LpServices {
 public:
  void route(Event&& event) override { routed.push_back(std::move(event)); }
  [[nodiscard]] std::uint64_t wall_now_ns() const noexcept override {
    return clock;
  }
  void wall_charge(std::uint64_t ns) noexcept override { clock += ns; }
  [[nodiscard]] VirtualTime end_time() const noexcept override { return end; }

  [[nodiscard]] std::size_t anti_count() const {
    std::size_t n = 0;
    for (const Event& e : routed) n += e.negative;
    return n;
  }
  [[nodiscard]] std::size_t positive_count() const {
    return routed.size() - anti_count();
  }

  std::vector<Event> routed;
  std::uint64_t clock = 0;
  VirtualTime end = VirtualTime::infinity();
};

struct EchoState {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};
static_assert(std::has_unique_object_representations_v<EchoState>);

/// Adds incoming values into its state and echoes one message per event to
/// object 99. order_dependent controls the echo payload: the running sum
/// (differs after reordering: lazy misses) or twice the input (identical on
/// re-execution: lazy hits).
class EchoObject final : public SimulationObject {
 public:
  explicit EchoObject(bool order_dependent) : order_dependent_(order_dependent) {}

  std::unique_ptr<ObjectState> initial_state() const override {
    return std::make_unique<PodState<EchoState>>();
  }

  void process_event(ObjectContext& ctx, const Event& event) override {
    auto& s = ctx.state_as<EchoState>();
    const auto v = event.payload.as<std::uint64_t>();
    s.sum += v;
    ++s.count;
    const std::uint64_t out = order_dependent_ ? s.sum : v * 2;
    ctx.send_pod(99, 10, out);
  }

 private:
  bool order_dependent_;
};

class ZeroDelaySender final : public SimulationObject {
 public:
  std::unique_ptr<ObjectState> initial_state() const override {
    return std::make_unique<PodState<EchoState>>();
  }
  void process_event(ObjectContext& ctx, const Event&) override {
    ctx.send_pod(99, 0, std::uint64_t{1});
  }
};

Event incoming(std::uint64_t t, std::uint64_t seq, std::uint64_t instance,
               std::uint64_t value, ObjectId sender = 50) {
  Event e;
  e.recv_time = VirtualTime{t};
  e.send_time = VirtualTime{t > 0 ? t - 1 : 0};
  e.sender = sender;
  e.receiver = 0;
  e.seq = seq;
  e.instance = instance;
  e.payload = Payload::from(value);
  return e;
}

ObjectRuntimeConfig config_with(core::CancellationControlConfig cancel,
                                std::uint32_t interval = 1) {
  ObjectRuntimeConfig cfg;
  cfg.cancellation = cancel;
  cfg.checkpoint_interval = interval;
  return cfg;
}

struct Harness {
  explicit Harness(ObjectRuntimeConfig cfg, bool order_dependent = true)
      : runtime(0, std::make_unique<EchoObject>(order_dependent), lp, cfg) {
    runtime.initialize();
  }
  FakeLp lp;
  ObjectRuntime runtime;

  void drain() {
    while (runtime.process_next()) {
    }
  }
  [[nodiscard]] const EchoState& state() {
    return static_cast<PodState<EchoState>&>(runtime.state()).value();
  }
};

TEST(ObjectRuntime, ProcessesEventsInTimestampOrder) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.runtime.receive(incoming(30, 2, 2, 300));
  h.runtime.receive(incoming(10, 0, 0, 100));
  h.runtime.receive(incoming(20, 1, 1, 200));
  h.drain();
  EXPECT_EQ(h.runtime.stats().events_processed, 3u);
  EXPECT_EQ(h.state().sum, 600u);
  // Echo outputs carry the running sums in order.
  ASSERT_EQ(h.lp.routed.size(), 3u);
  EXPECT_EQ(h.lp.routed[0].payload.as<std::uint64_t>(), 100u);
  EXPECT_EQ(h.lp.routed[1].payload.as<std::uint64_t>(), 300u);
  EXPECT_EQ(h.lp.routed[2].payload.as<std::uint64_t>(), 600u);
}

TEST(ObjectRuntime, RespectsEndTime) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.lp.end = VirtualTime{15};
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(20, 1, 1, 2));
  h.drain();
  EXPECT_EQ(h.runtime.stats().events_processed, 1u);
  EXPECT_EQ(h.runtime.next_event_time(), VirtualTime{20});
}

TEST(ObjectRuntime, StragglerRollsBackAndRecomputes) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(30, 1, 1, 4));
  h.drain();
  EXPECT_EQ(h.state().sum, 5u);
  // Straggler at 20.
  h.runtime.receive(incoming(20, 0, 10, 2, /*sender=*/51));
  EXPECT_EQ(h.runtime.stats().rollbacks, 1u);
  EXPECT_EQ(h.runtime.stats().stragglers, 1u);
  EXPECT_EQ(h.runtime.stats().events_rolled_back, 1u);  // the event at 30
  h.drain();
  EXPECT_EQ(h.state().sum, 7u);
  EXPECT_EQ(h.state().count, 3u);
  // Committed-equivalent result: identical to in-order processing.
  Harness fresh(config_with(core::CancellationControlConfig::aggressive()));
  fresh.runtime.receive(incoming(10, 0, 0, 1));
  fresh.runtime.receive(incoming(20, 0, 10, 2, 51));
  fresh.runtime.receive(incoming(30, 1, 1, 4));
  fresh.drain();
  EXPECT_EQ(h.runtime.state_digest(), fresh.runtime.state_digest());
}

TEST(ObjectRuntime, CoastForwardWithSparseCheckpoints) {
  // Checkpoint every 4 events: a rollback to the middle must restore an
  // older state and re-execute the gap silently.
  Harness h(config_with(core::CancellationControlConfig::aggressive(), 4));
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.runtime.receive(incoming(10 * (i + 1), i, i, i + 1));
  }
  h.drain();
  const std::size_t outputs_before = h.lp.routed.size();
  EXPECT_EQ(outputs_before, 8u);
  // Straggler at 55: checkpoint at 40 restores, events 10..40 stay intact,
  // coast-forward replays nothing beyond the checkpoint (40 is the restore
  // point), and 50 is re-executed... restore=40, straggler=55: coast 50.
  h.runtime.receive(incoming(55, 0, 100, 100, 51));
  EXPECT_EQ(h.runtime.stats().rollbacks, 1u);
  EXPECT_EQ(h.runtime.stats().coast_forward_events, 1u);  // the event at 50
  EXPECT_EQ(h.runtime.stats().events_rolled_back, 3u);    // 60, 70, 80
  h.drain();
  // No duplicate sends from coast-forward.
  Harness fresh(config_with(core::CancellationControlConfig::aggressive(), 4));
  for (std::uint64_t i = 0; i < 8; ++i) {
    fresh.runtime.receive(incoming(10 * (i + 1), i, i, i + 1));
  }
  fresh.runtime.receive(incoming(55, 0, 100, 100, 51));
  fresh.drain();
  EXPECT_EQ(h.runtime.state_digest(), fresh.runtime.state_digest());
}

TEST(ObjectRuntime, AggressiveCancellationSendsAntiMessages) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(30, 1, 1, 4));
  h.drain();
  const Event premature = h.lp.routed.back();  // output of the event at 30
  h.runtime.receive(incoming(20, 0, 10, 2, 51));
  // The anti-message for the invalidated output is routed immediately.
  ASSERT_EQ(h.lp.anti_count(), 1u);
  const Event& anti = h.lp.routed.back();
  EXPECT_TRUE(anti.negative);
  EXPECT_TRUE(anti.matches_instance(premature));
  h.drain();
  EXPECT_EQ(h.runtime.stats().anti_messages_sent, 1u);
  // Re-execution sends fresh positives for 20 and 30.
  EXPECT_EQ(h.lp.positive_count(), 2u + 2u);
}

TEST(ObjectRuntime, LazyHitSuppressesResend) {
  // Order-independent echo: the regenerated message is identical.
  Harness h(config_with(core::CancellationControlConfig::lazy()),
            /*order_dependent=*/false);
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(30, 1, 1, 4));
  h.drain();
  h.runtime.receive(incoming(20, 0, 10, 2, 51));
  h.drain();
  EXPECT_EQ(h.runtime.stats().lazy_hits, 1u);
  EXPECT_EQ(h.runtime.stats().lazy_misses, 0u);
  EXPECT_EQ(h.lp.anti_count(), 0u);
  // 10, 30 originals + the new 20; the 30 re-send was suppressed.
  EXPECT_EQ(h.lp.positive_count(), 3u);
  EXPECT_EQ(h.runtime.lazy_pending_size(), 0u);
}

TEST(ObjectRuntime, LazyMissCancelsAndResends) {
  // Order-dependent echo: the regenerated message differs.
  Harness h(config_with(core::CancellationControlConfig::lazy()),
            /*order_dependent=*/true);
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(30, 1, 1, 4));
  h.drain();
  const Event premature = h.lp.routed.back();
  h.runtime.receive(incoming(20, 0, 10, 2, 51));
  h.drain();
  h.runtime.idle_flush();  // the LP loop does this when the object goes idle
  EXPECT_EQ(h.runtime.stats().lazy_hits, 0u);
  EXPECT_EQ(h.runtime.stats().lazy_misses, 1u);
  EXPECT_EQ(h.lp.anti_count(), 1u);
  // The anti matches the premature instance.
  bool found = false;
  for (const Event& e : h.lp.routed) {
    found |= e.negative && e.matches_instance(premature);
  }
  EXPECT_TRUE(found);
  // 10, 30 originals + re-sent 20 and 30.
  EXPECT_EQ(h.lp.positive_count(), 4u);
}

TEST(ObjectRuntime, AntiMessageAnnihilatesUnprocessed) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  const Event pos = incoming(40, 0, 0, 9);
  h.runtime.receive(pos);
  h.runtime.receive(pos.make_anti());
  EXPECT_EQ(h.runtime.stats().rollbacks, 0u);
  EXPECT_FALSE(h.runtime.process_next());
  EXPECT_EQ(h.runtime.stats().events_processed, 0u);
}

TEST(ObjectRuntime, AntiMessageOnProcessedRollsBack) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.runtime.receive(incoming(10, 0, 0, 1));
  const Event pos = incoming(20, 1, 1, 2);
  h.runtime.receive(pos);
  h.runtime.receive(incoming(30, 2, 2, 4));
  h.drain();
  EXPECT_EQ(h.state().sum, 7u);
  h.runtime.receive(pos.make_anti());
  EXPECT_EQ(h.runtime.stats().rollbacks, 1u);
  h.drain();
  // The annihilated event's effect is gone.
  EXPECT_EQ(h.state().sum, 5u);
  EXPECT_EQ(h.state().count, 2u);
}

TEST(ObjectRuntime, AntiWithoutItsPositiveIsAContractViolation) {
  // Every transport is FIFO per (source, destination) pair and an LP moves
  // only while no frame is in flight, so an anti-message always finds its
  // positive; one that does not is a protocol fault.
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  const Event ghost = incoming(10, 0, 0, 1);
  EXPECT_THROW(h.runtime.receive(ghost.make_anti()), ContractViolation);
  EXPECT_EQ(h.runtime.stats().rollbacks, 0u);
}

TEST(ObjectRuntime, AnnihilationCancelsTheEventsOwnOutputsWithoutComparison) {
  Harness h(config_with(core::CancellationControlConfig::lazy()),
            /*order_dependent=*/true);
  h.runtime.receive(incoming(10, 0, 0, 1));
  const Event pos = incoming(20, 1, 1, 2);
  h.runtime.receive(pos);
  h.drain();
  // Annihilate the processed event at 20: its output is cancelled outright —
  // nothing will ever regenerate it, so no comparison is recorded (cascaded
  // cancellation must not poison the Hit Ratio).
  h.runtime.receive(pos.make_anti());
  EXPECT_EQ(h.runtime.lazy_pending_size(), 0u);
  EXPECT_EQ(h.lp.anti_count(), 1u);
  EXPECT_EQ(h.runtime.stats().lazy_misses, 0u);
  EXPECT_EQ(h.runtime.stats().lazy_hits, 0u);
  h.drain();
  h.runtime.idle_flush();
  EXPECT_EQ(h.runtime.stats().lazy_misses, 0u);
}

TEST(ObjectRuntime, AnnihilationPurgesEarlierPendingEntries) {
  Harness h(config_with(core::CancellationControlConfig::lazy()),
            /*order_dependent=*/true);
  h.runtime.receive(incoming(10, 0, 0, 1));
  const Event pos = incoming(20, 1, 1, 2);
  h.runtime.receive(pos);
  h.drain();
  // A straggler at 15 parks the output of the event at 20 as lazy-pending.
  h.runtime.receive(incoming(15, 0, 10, 3, 51));
  ASSERT_EQ(h.runtime.lazy_pending_size(), 1u);
  // Now the event at 20 is annihilated before re-executing: its pending
  // entry is purged (anti-message out, no hit/miss recorded).
  h.runtime.receive(pos.make_anti());
  EXPECT_EQ(h.runtime.lazy_pending_size(), 0u);
  EXPECT_EQ(h.lp.anti_count(), 1u);
  EXPECT_EQ(h.runtime.stats().lazy_misses, 0u);
  h.drain();
  h.runtime.idle_flush();
  EXPECT_EQ(h.runtime.stats().lazy_misses, 0u);
  // Committed result: only events 10 and 15 survive.
  Harness fresh(config_with(core::CancellationControlConfig::lazy()), true);
  fresh.runtime.receive(incoming(10, 0, 0, 1));
  fresh.runtime.receive(incoming(15, 0, 10, 3, 51));
  fresh.drain();
  EXPECT_EQ(h.runtime.state_digest(), fresh.runtime.state_digest());
}

TEST(ObjectRuntime, FossilCollectionCommitsAndGuardsGvt) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.runtime.receive(incoming(10 * (i + 1), i, i, 1));
  }
  h.drain();
  h.runtime.fossil_collect(VirtualTime{25});
  // The event at 20 is the kept checkpoint's base and is retained (it
  // commits at the next collection); only the event at 10 is reclaimed now.
  EXPECT_EQ(h.runtime.stats().events_committed, 1u);
  h.runtime.fossil_collect(VirtualTime{45});
  EXPECT_EQ(h.runtime.stats().events_committed, 3u);
  // A straggler below GVT means the GVT algorithm lied: loud failure.
  EXPECT_THROW(h.runtime.receive(incoming(5, 9, 99, 1, 51)), ContractViolation);
}

TEST(ObjectRuntime, CheckpointIntervalControlsStateSaves) {
  Harness h(config_with(core::CancellationControlConfig::aggressive(), 4));
  for (std::uint64_t i = 0; i < 12; ++i) {
    h.runtime.receive(incoming(10 * (i + 1), i, i, 1));
  }
  h.drain();
  EXPECT_EQ(h.runtime.stats().states_saved, 1u + 3u);  // initial + every 4th
}

TEST(ObjectRuntime, DynamicCheckpointingTicks) {
  ObjectRuntimeConfig cfg =
      config_with(core::CancellationControlConfig::aggressive());
  cfg.dynamic_checkpointing = true;
  cfg.checkpoint_control.control_period_events = 8;
  Harness h(cfg);
  for (std::uint64_t i = 0; i < 32; ++i) {
    h.runtime.receive(incoming(10 * (i + 1), i, i, 1));
  }
  h.drain();
  EXPECT_EQ(h.runtime.stats().checkpoint_control_ticks, 4u);
  EXPECT_GT(h.runtime.checkpoint_interval(), 1u);  // zero rollbacks: grows
}

TEST(ObjectRuntime, ZeroDelaySendIsRejected) {
  FakeLp lp;
  ObjectRuntime runtime(0, std::make_unique<ZeroDelaySender>(), lp,
                        config_with(core::CancellationControlConfig::aggressive()));
  runtime.initialize();
  runtime.receive(incoming(10, 0, 0, 1));
  EXPECT_THROW(runtime.process_next(), ContractViolation);
}

TEST(ObjectRuntime, SeqNumbersRepeatAfterRollbackButInstancesDoNot) {
  Harness h(config_with(core::CancellationControlConfig::aggressive()));
  h.runtime.receive(incoming(10, 0, 0, 1));
  h.runtime.receive(incoming(30, 1, 1, 4));
  h.drain();
  const Event original = h.lp.routed.back();  // output of 30
  h.runtime.receive(incoming(20, 0, 10, 2, 51));
  h.drain();
  // Find the re-sent output of the event at 30 (send_time 30, positive).
  const Event* resent = nullptr;
  for (const Event& e : h.lp.routed) {
    if (!e.negative && e.send_time == VirtualTime{30} &&
        e.instance != original.instance) {
      resent = &e;
    }
  }
  ASSERT_NE(resent, nullptr);
  EXPECT_EQ(resent->seq, original.seq);       // deterministic ordering key
  EXPECT_NE(resent->instance, original.instance);  // fresh physical identity
}

}  // namespace
}  // namespace otw::tw
