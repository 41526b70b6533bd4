// Wire codec roundtrips: every registered physical message type must decode
// back to an equivalent object from its own encode_wire() bytes, through the
// same WireRegistry the distributed engine dispatches on.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "otw/apps/phold.hpp"
#include "otw/platform/engine.hpp"
#include "otw/platform/wire.hpp"
#include "otw/tw/lp.hpp"
#include "otw/tw/messages.hpp"
#include "otw/tw/wire.hpp"
#include "otw/util/assert.hpp"

namespace otw::tw {
namespace {

using platform::WireReader;
using platform::WireWriter;

Event sample_event(std::uint64_t salt) {
  Event e;
  e.recv_time = VirtualTime{1'000 + salt};
  e.send_time = VirtualTime{900 + salt};
  e.sender = static_cast<ObjectId>(3 + salt);
  e.receiver = static_cast<ObjectId>(7 + salt);
  e.seq = 0xABCDEF00u + salt;
  e.instance = 0x1122334455667788u + salt;
  e.negative = (salt % 2) == 1;
  e.color = static_cast<std::uint8_t>(salt % 2);
  if (salt % 3 != 0) {
    const std::uint64_t body[2] = {salt, ~salt};
    e.payload = Payload::from_bytes(body, sizeof body);
  }
  return e;
}

void expect_event_eq(const Event& a, const Event& b) {
  EXPECT_EQ(a.recv_time, b.recv_time);
  EXPECT_EQ(a.send_time, b.send_time);
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.receiver, b.receiver);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.instance, b.instance);
  EXPECT_EQ(a.negative, b.negative);
  EXPECT_EQ(a.color, b.color);
  ASSERT_EQ(a.payload.size(), b.payload.size());
  EXPECT_EQ(std::memcmp(a.payload.data(), b.payload.data(), a.payload.size()), 0);
}

TEST(WireCodec, EventRoundtripsIncludingPayloadAndColor) {
  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    std::vector<std::uint8_t> buf;
    WireWriter writer(buf);
    const Event original = sample_event(salt);
    encode_event(writer, original);
    EXPECT_EQ(buf.size(), event_encoded_bytes(original));

    WireReader reader(buf.data(), buf.size());
    expect_event_eq(decode_event(reader), original);
    EXPECT_TRUE(reader.done());
  }
}

TEST(WireCodec, EventBatchRoundtripsThroughRegistry) {
  register_wire_messages();
  std::vector<Event> events;
  for (std::uint64_t salt = 0; salt < 5; ++salt) {
    events.push_back(sample_event(salt));
  }
  const EventBatchMessage msg{std::vector<Event>(events)};
  ASSERT_EQ(msg.wire_tag(), kTagEventBatch);
  EXPECT_FALSE(msg.wire_control());

  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  msg.encode_wire(writer);
  WireReader reader(buf.data(), buf.size());
  const auto decoded =
      platform::WireRegistry::instance().decode(kTagEventBatch, reader);
  EXPECT_TRUE(reader.done());
  auto* batch = dynamic_cast<EventBatchMessage*>(decoded.get());
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->events().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_event_eq(batch->events()[i], events[i]);
  }
}

TEST(WireCodec, GvtTokenRoundtripsWithNegativeCount) {
  register_wire_messages();
  GvtTokenMessage token;
  token.white_color = 1;
  token.round = 42;
  token.count = -17;  // in-flight deficit must survive two's-complement
  token.min_lvt = VirtualTime{12'345};
  token.min_red_send = VirtualTime::infinity();
  ASSERT_EQ(token.wire_tag(), kTagGvtToken);
  EXPECT_TRUE(token.wire_control());

  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  token.encode_wire(writer);
  WireReader reader(buf.data(), buf.size());
  const auto decoded =
      platform::WireRegistry::instance().decode(kTagGvtToken, reader);
  auto* out = dynamic_cast<GvtTokenMessage*>(decoded.get());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->white_color, token.white_color);
  EXPECT_EQ(out->round, token.round);
  EXPECT_EQ(out->count, token.count);
  EXPECT_EQ(out->min_lvt, token.min_lvt);
  EXPECT_EQ(out->min_red_send, token.min_red_send);
}

TEST(WireCodec, GvtAnnounceRoundtripsIncludingInfinity) {
  register_wire_messages();
  for (const VirtualTime gvt : {VirtualTime{777}, VirtualTime::infinity()}) {
    const GvtAnnounceMessage msg(gvt);
    ASSERT_EQ(msg.wire_tag(), kTagGvtAnnounce);
    EXPECT_TRUE(msg.wire_control());
    std::vector<std::uint8_t> buf;
    WireWriter writer(buf);
    msg.encode_wire(writer);
    WireReader reader(buf.data(), buf.size());
    const auto decoded =
        platform::WireRegistry::instance().decode(kTagGvtAnnounce, reader);
    auto* out = dynamic_cast<GvtAnnounceMessage*>(decoded.get());
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->gvt(), gvt);
  }
}

TEST(WireCodec, RegistryRejectsUnknownTagsAndReRegistration) {
  register_wire_messages();
  register_wire_messages();  // idempotent by tag+name

  std::vector<std::uint8_t> empty;
  WireReader reader(empty.data(), empty.size());
  EXPECT_THROW(
      (void)platform::WireRegistry::instance().decode(/*tag=*/0x7777, reader),
      ContractViolation);
  EXPECT_FALSE(platform::WireRegistry::instance().knows(0x7777));
  EXPECT_TRUE(platform::WireRegistry::instance().knows(kTagEventBatch));
  EXPECT_STREQ(platform::WireRegistry::instance().name_of(kTagEventBatch),
               "tw.EventBatch");
}

TEST(WireCodec, TruncatedFrameIsACleanError) {
  register_wire_messages();
  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  const EventBatchMessage msg(std::vector<Event>{sample_event(1)});
  msg.encode_wire(writer);
  buf.pop_back();  // cut the final payload byte
  WireReader reader(buf.data(), buf.size());
  EXPECT_THROW((void)platform::WireRegistry::instance().decode(kTagEventBatch,
                                                               reader),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// MIGRATE frame: the serialized-LP payload produced by migrate_out and
// consumed by migrate_in (DESIGN.md section 8b). The differential
// MigrationParity suite proves semantic parity end-to-end; these tests pin
// the framing itself — exact consumption on decode, clean rejection of a
// truncated frame — without forking shard processes.

/// Minimal loopback engine: messages go straight into per-LP queues, the
/// clock is charge()-driven. Enough LpContext for two LogicalProcesses to
/// run real GVT rounds against each other in-process.
class LoopbackMail {
 public:
  explicit LoopbackMail(std::size_t n) : queues_(n) {}
  std::vector<std::deque<std::unique_ptr<platform::EngineMessage>>> queues_;
};

class LoopbackCtx final : public platform::LpContext {
 public:
  LoopbackCtx(LpId self, LoopbackMail& mail) : self_(self), mail_(mail) {}

  [[nodiscard]] LpId self() const noexcept override { return self_; }
  [[nodiscard]] LpId num_lps() const noexcept override {
    return static_cast<LpId>(mail_.queues_.size());
  }
  [[nodiscard]] std::uint64_t now_ns() const noexcept override { return clock_; }
  void charge(std::uint64_t ns) noexcept override { clock_ += ns; }
  void send(LpId dst, std::unique_ptr<platform::EngineMessage> msg) override {
    mail_.queues_[dst].push_back(std::move(msg));
  }
  std::unique_ptr<platform::EngineMessage> poll() override {
    auto& q = mail_.queues_[self_];
    if (q.empty()) {
      return nullptr;
    }
    auto msg = std::move(q.front());
    q.pop_front();
    return msg;
  }

 private:
  LpId self_;
  LoopbackMail& mail_;
  std::uint64_t clock_ = 0;
};

struct MigrateFixture {
  apps::phold::PholdConfig app;
  KernelConfig kc;
  std::vector<LpId> object_to_lp;
  Model model;

  MigrateFixture() {
    app.num_objects = 6;
    app.num_lps = 2;
    app.population_per_object = 2;
    app.remote_probability = 0.7;
    app.mean_delay = 50;
    app.event_grain_ns = 200;
    app.seed = 7;
    kc.num_lps = 2;
    kc.end_time = VirtualTime{1'000'000};
    kc.gvt_period_events = 32;
    model = apps::phold::build_model(app);
    for (const auto& spec : model.objects) {
      object_to_lp.push_back(spec.lp);
    }
  }

  [[nodiscard]] std::unique_ptr<LogicalProcess> make_lp(LpId lp) const {
    std::vector<std::pair<ObjectId, std::unique_ptr<SimulationObject>>> local;
    for (ObjectId id = 0; id < model.objects.size(); ++id) {
      if (model.objects[id].lp == lp) {
        local.emplace_back(id, model.objects[id].factory());
      }
    }
    return std::make_unique<LogicalProcess>(lp, kc, object_to_lp,
                                            std::move(local));
  }
};

/// Runs both LPs round-robin until GVT has advanced past zero (migration
/// declines a cut at GVT 0), then serializes LP 0 and restores it into a
/// fresh incarnation. The decode must consume the payload exactly.
TEST(WireCodec, MigrateFrameRoundtripsExactly) {
  const MigrateFixture fx;
  LoopbackMail mail(2);
  LoopbackCtx ctx0(0, mail);
  LoopbackCtx ctx1(1, mail);
  const auto lp0 = fx.make_lp(0);
  const auto lp1 = fx.make_lp(1);

  for (int i = 0; i < 10'000 && lp0->gvt() == VirtualTime{0}; ++i) {
    lp0->step(ctx0);
    lp1->step(ctx1);
  }
  ASSERT_GT(lp0->gvt(), VirtualTime{0}) << "GVT never advanced";
  ASSERT_GT(lp0->lp_stats().steps, 0u);

  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  const VirtualTime cut = lp0->gvt();
  ASSERT_TRUE(lp0->migrate_out(ctx0, writer));
  ASSERT_FALSE(buf.empty());

  const auto restored = fx.make_lp(0);
  WireReader reader(buf.data(), buf.size());
  restored->migrate_in(ctx0, reader);
  EXPECT_TRUE(reader.done()) << "MIGRATE payload not fully consumed: "
                             << reader.remaining() << " bytes left";
  EXPECT_EQ(restored->gvt(), cut);
  EXPECT_EQ(restored->runtimes().size(), 3u);  // objects 0, 2, 4
  // LP-level counters travel verbatim (the source keeps its copy).
  EXPECT_EQ(restored->lp_stats().steps, lp0->lp_stats().steps);
  EXPECT_EQ(restored->lp_stats().events_sent_remote,
            lp0->lp_stats().events_sent_remote);
  EXPECT_FALSE(restored->done());
}

/// Every truncation point must surface as a clean ContractViolation from the
/// bounds-checked reader (or a failed frame-shape REQUIRE) — never a crash
/// or a silently half-restored LP.
TEST(WireCodec, TruncatedMigrateFrameIsACleanError) {
  const MigrateFixture fx;
  LoopbackMail mail(2);
  LoopbackCtx ctx0(0, mail);
  LoopbackCtx ctx1(1, mail);
  const auto lp0 = fx.make_lp(0);
  const auto lp1 = fx.make_lp(1);
  for (int i = 0; i < 10'000 && lp0->gvt() == VirtualTime{0}; ++i) {
    lp0->step(ctx0);
    lp1->step(ctx1);
  }
  ASSERT_GT(lp0->gvt(), VirtualTime{0});

  std::vector<std::uint8_t> buf;
  WireWriter writer(buf);
  ASSERT_TRUE(lp0->migrate_out(ctx0, writer));

  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, buf.size() / 2, buf.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(buf.size()));
    const auto victim = fx.make_lp(0);
    WireReader reader(buf.data(), len);
    EXPECT_THROW(victim->migrate_in(ctx0, reader), ContractViolation);
  }
}

TEST(WireCodec, FrameHeaderRoundtrips) {
  platform::FrameHeader header;
  header.payload_len = 1'234;
  header.tag = kTagEventBatch;
  header.flags = 0x0001;
  header.src_lp = 5;
  header.dst_lp = 11;
  header.send_ns = 0x0123'4567'89AB'CDEFull;  // full 64-bit timestamp width
  std::uint8_t raw[platform::kFrameHeaderBytes];
  platform::encode_frame_header(header, raw);
  const platform::FrameHeader out = platform::decode_frame_header(raw);
  EXPECT_EQ(out.payload_len, header.payload_len);
  EXPECT_EQ(out.tag, header.tag);
  EXPECT_EQ(out.flags, header.flags);
  EXPECT_EQ(out.src_lp, header.src_lp);
  EXPECT_EQ(out.dst_lp, header.dst_lp);
  EXPECT_EQ(out.send_ns, header.send_ns);
  // A default header stamps no send time (control paths fill it in).
  platform::FrameHeader blank;
  EXPECT_EQ(blank.send_ns, 0u);
}

}  // namespace
}  // namespace otw::tw
