// Unit tests for the live introspection plane (otw::obs::live): registry
// store/snapshot semantics, the snapshot wire codec, the watchdog's rule
// evaluation on synthetic snapshot sequences, ClusterView merging, and the
// health JSONL / exposition output formats. All pure in-process — the
// scrape endpoint and the STATS streaming path are covered by the kernel
// integration tests (tw_live_test.cpp).
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "otw/obs/live.hpp"

namespace live = otw::obs::live;
using live::Counter;
using live::EngineGauge;
using live::Gauge;
using live::HealthRule;
using live::LiveSnapshot;
using live::Watchdog;
using live::WatchdogConfig;

namespace {

/// Builds a synthetic single-LP snapshot with the fields the watchdog reads.
LiveSnapshot make_snapshot(std::uint32_t shard, std::uint64_t wall_ns,
                           std::uint64_t gvt, std::uint64_t processed,
                           std::uint64_t committed, std::uint64_t rolled_back) {
  LiveSnapshot snap;
  snap.shard = shard;
  snap.wall_ns = wall_ns;
  snap.gvt_ticks = gvt;
  snap.lps.resize(1);
  snap.lps[0].lp = 0;
  snap.lps[0].counters[static_cast<std::size_t>(Counter::events_processed)] =
      processed;
  snap.lps[0].counters[static_cast<std::size_t>(Counter::events_committed)] =
      committed;
  snap.lps[0].counters[static_cast<std::size_t>(Counter::events_rolled_back)] =
      rolled_back;
  return snap;
}

TEST(LiveRegistry, StoresAndSnapshotsPerLpSlots) {
  if (!live::LiveMetricsRegistry::compiled_in()) {
    GTEST_SKIP() << "live plane compiled out";
  }
  live::LiveMetricsRegistry reg(3);
  reg.store_counter(0, Counter::events_committed, 41);
  reg.store_counter(0, Counter::events_committed, 42);  // absolute, last wins
  reg.store_counter(2, Counter::rollbacks, 7);
  reg.store_gauge(1, Gauge::MemoryBytes, 1024);
  reg.store_gvt(99);
  reg.engine_add(EngineGauge::MailboxOccupancy, +3);
  reg.engine_add(EngineGauge::MailboxOccupancy, -1);

  const LiveSnapshot snap = reg.snapshot(5, 1234);
  EXPECT_EQ(snap.shard, 5u);
  EXPECT_EQ(snap.wall_ns, 1234u);
  EXPECT_EQ(snap.gvt_ticks, 99u);
  ASSERT_EQ(snap.lps.size(), 3u);
  EXPECT_EQ(snap.lps[0].counter(Counter::events_committed), 42u);
  EXPECT_EQ(snap.lps[2].counter(Counter::rollbacks), 7u);
  EXPECT_EQ(snap.lps[1].gauge(Gauge::MemoryBytes), 1024u);
  EXPECT_EQ(snap.engine_gauge(EngineGauge::MailboxOccupancy), 2u);
  EXPECT_EQ(snap.total(Counter::events_committed), 42u);
}

TEST(LiveRegistry, FreshRegistryReportsInfiniteGvt) {
  if (!live::LiveMetricsRegistry::compiled_in()) {
    GTEST_SKIP() << "live plane compiled out";
  }
  live::LiveMetricsRegistry reg(1);
  EXPECT_EQ(reg.snapshot(0, 0).gvt_ticks, live::kTicksInfinity);
}

TEST(LiveCodec, RoundTripsEverySlot) {
  LiveSnapshot snap = make_snapshot(3, 777, 100, 50, 40, 10);
  snap.lps[0].gauges[static_cast<std::size_t>(Gauge::LastRollbackDepth)] = 123;
  snap.lps[0].gauges[static_cast<std::size_t>(Gauge::PressureState)] = 2;
  snap.engine[static_cast<std::size_t>(EngineGauge::WorkersParked)] = 4;
  snap.lps.push_back(snap.lps[0]);
  snap.lps[1].lp = 9;

  std::vector<std::uint8_t> bytes;
  live::encode_snapshot(snap, bytes);
  LiveSnapshot decoded;
  ASSERT_TRUE(live::decode_snapshot(bytes.data(), bytes.size(), decoded));
  EXPECT_EQ(decoded.shard, snap.shard);
  EXPECT_EQ(decoded.wall_ns, snap.wall_ns);
  EXPECT_EQ(decoded.gvt_ticks, snap.gvt_ticks);
  EXPECT_EQ(decoded.engine, snap.engine);
  ASSERT_EQ(decoded.lps.size(), snap.lps.size());
  for (std::size_t i = 0; i < snap.lps.size(); ++i) {
    EXPECT_EQ(decoded.lps[i].lp, snap.lps[i].lp);
    EXPECT_EQ(decoded.lps[i].counters, snap.lps[i].counters);
    EXPECT_EQ(decoded.lps[i].gauges, snap.lps[i].gauges);
  }
}

TEST(LiveCodec, RejectsMalformedPayloads) {
  std::vector<std::uint8_t> bytes;
  live::encode_snapshot(make_snapshot(0, 1, 2, 3, 4, 5), bytes);
  LiveSnapshot out;

  // Truncations at every boundary.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                          bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(live::decode_snapshot(bytes.data(), cut, out))
        << "cut at " << cut;
  }
  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(live::decode_snapshot(padded.data(), padded.size(), out));
  // Bad magic / version.
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(live::decode_snapshot(bad_magic.data(), bad_magic.size(), out));
  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_FALSE(
      live::decode_snapshot(bad_version.data(), bad_version.size(), out));
  // Absurd LP count (would otherwise attempt a huge resize).
  std::vector<std::uint8_t> huge = bytes;
  // n_lps sits right after magic+version+shard+wall+gvt+n_engine+engine
  // slots; patch it to UINT32_MAX.
  const std::size_t n_lps_at = 4 + 4 + 4 + 8 + 8 + 4 + 8 * live::kNumEngineGauges;
  huge[n_lps_at] = 0xFF;
  huge[n_lps_at + 1] = 0xFF;
  huge[n_lps_at + 2] = 0xFF;
  huge[n_lps_at + 3] = 0xFF;
  EXPECT_FALSE(live::decode_snapshot(huge.data(), huge.size(), out));
}

TEST(LiveWatchdog, RaisesAndClearsGvtStall) {
  WatchdogConfig config;
  config.gvt_stall_feeds = 3;
  Watchdog dog(config);

  std::uint64_t processed = 100;
  // GVT stuck at 50 while events keep getting processed.
  for (int i = 0; i < 3; ++i) {
    const auto events = dog.feed(
        {make_snapshot(0, 1000 + static_cast<std::uint64_t>(i), 50,
                       processed += 10, 10, 0)},
        1000 + static_cast<std::uint64_t>(i));
    EXPECT_TRUE(events.empty()) << "raised too early on feed " << i;
  }
  auto events = dog.feed({make_snapshot(0, 1003, 50, processed += 10, 10, 0)},
                         1003);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, HealthRule::GvtStall);
  EXPECT_TRUE(events[0].raised);
  EXPECT_EQ(events[0].shard, 0u);
  EXPECT_EQ(dog.active().size(), 1u);

  // GVT moves: the alarm clears with exactly one transition.
  events = dog.feed({make_snapshot(0, 1004, 60, processed += 10, 10, 0)}, 1004);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, HealthRule::GvtStall);
  EXPECT_FALSE(events[0].raised);
  EXPECT_TRUE(dog.active().empty());
  EXPECT_EQ(dog.history().size(), 2u);
}

TEST(LiveWatchdog, GvtStallRequiresProgressToCount) {
  WatchdogConfig config;
  config.gvt_stall_feeds = 2;
  Watchdog dog(config);
  // GVT frozen but no events processed either: a finished/idle shard is not
  // a stalled one.
  for (int i = 0; i < 10; ++i) {
    const auto events =
        dog.feed({make_snapshot(0, static_cast<std::uint64_t>(i), 50, 100,
                                100, 0)},
                 static_cast<std::uint64_t>(i));
    EXPECT_TRUE(events.empty());
  }
  EXPECT_TRUE(dog.active().empty());
}

TEST(LiveWatchdog, DetectsRollbackStorm) {
  WatchdogConfig config;
  config.rollback_ratio = 2.0;
  config.rollback_min_events = 100;
  Watchdog dog(config);

  EXPECT_TRUE(dog.feed({make_snapshot(0, 1, 10, 0, 0, 0)}, 1).empty());
  // Delta: committed 30, rolled back 90 -> ratio 3 > 2 with 120 >= 100 events.
  auto events = dog.feed({make_snapshot(0, 2, 20, 200, 30, 90)}, 2);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, HealthRule::RollbackStorm);
  EXPECT_TRUE(events[0].raised);

  // Next window healthy: committed 200 more, no rollbacks -> clears.
  events = dog.feed({make_snapshot(0, 3, 30, 500, 230, 90)}, 3);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].raised);
}

TEST(LiveWatchdog, RollbackStormIgnoresTinyWindows) {
  WatchdogConfig config;
  config.rollback_ratio = 2.0;
  config.rollback_min_events = 256;
  Watchdog dog(config);
  EXPECT_TRUE(dog.feed({make_snapshot(0, 1, 10, 0, 0, 0)}, 1).empty());
  // 100% wasted work but only 12 events: below the significance floor.
  EXPECT_TRUE(dog.feed({make_snapshot(0, 2, 10, 12, 0, 12)}, 2).empty());
  EXPECT_TRUE(dog.active().empty());
}

TEST(LiveWatchdog, DetectsSilentShard) {
  WatchdogConfig config;
  config.shard_silent_ns = 1'000;
  Watchdog dog(config);
  // Fresh snapshot: fine.
  EXPECT_TRUE(dog.feed({make_snapshot(0, 5'000, 10, 1, 1, 0)}, 5'100).empty());
  // Same snapshot, monitor clock far ahead: silent.
  auto events = dog.feed({make_snapshot(0, 5'000, 10, 1, 1, 0)}, 7'000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, HealthRule::ShardSilent);
  EXPECT_TRUE(events[0].raised);
  // A new snapshot arrives: clears.
  events = dog.feed({make_snapshot(0, 7'500, 10, 1, 1, 0)}, 7'600);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].raised);
}

TEST(LiveWatchdog, DetectsOccupancyPinned) {
  WatchdogConfig config;
  config.occupancy_fraction = 0.9;
  config.occupancy_feeds = 2;
  Watchdog dog(config);

  auto with_memory = [](std::uint64_t bytes, std::uint64_t budget) {
    LiveSnapshot snap = make_snapshot(0, 1, 10, 1, 1, 0);
    snap.lps[0].gauges[static_cast<std::size_t>(Gauge::MemoryBytes)] = bytes;
    snap.lps[0].gauges[static_cast<std::size_t>(Gauge::MemoryBudgetBytes)] =
        budget;
    return snap;
  };

  EXPECT_TRUE(dog.feed({with_memory(950, 1000)}, 1).empty());  // feed 1 of 2
  auto events = dog.feed({with_memory(960, 1000)}, 2);         // feed 2 of 2
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, HealthRule::OccupancyPinned);
  EXPECT_TRUE(events[0].raised);
  // Dropping below the fraction clears it immediately.
  events = dog.feed({with_memory(100, 1000)}, 3);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].raised);
  // No budget configured -> rule never fires however large the footprint.
  Watchdog unbounded(config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        unbounded.feed({with_memory(1 << 30, 0)}, static_cast<std::uint64_t>(i))
            .empty());
  }
}

TEST(LiveClusterView, KeepsLatestSnapshotPerShard) {
  live::ClusterView view(2);
  EXPECT_TRUE(view.shards().empty());

  view.update(make_snapshot(1, 10, 5, 1, 1, 0), 100);
  auto shards = view.shards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].shard, 1u);
  EXPECT_EQ(shards[0].wall_ns, 100u);  // arrival stamp, not producer stamp

  view.update(make_snapshot(0, 20, 6, 2, 2, 0), 200);
  view.update(make_snapshot(1, 30, 7, 3, 3, 0), 300);
  shards = view.shards();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 0u);
  EXPECT_EQ(shards[1].shard, 1u);
  EXPECT_EQ(shards[1].gvt_ticks, 7u);  // replaced, not accumulated
}

TEST(LiveExposition, HealthJsonlIsOneObjectPerLine) {
  live::HealthEvent raise;
  raise.rule = HealthRule::RollbackStorm;
  raise.raised = true;
  raise.shard = 2;
  raise.wall_ns = 42;
  raise.detail = "delta rolled_back=90 committed=30";
  live::HealthEvent clear = raise;
  clear.raised = false;

  std::ostringstream os;
  live::write_health_jsonl(os, {raise, clear});
  const std::string text = os.str();
  EXPECT_NE(text.find("{\"rule\":\"RollbackStorm\",\"state\":\"raised\","
                      "\"shard\":2,\"wall_ns\":42"),
            std::string::npos);
  EXPECT_NE(text.find("\"state\":\"cleared\""), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(LiveExposition, BuildsShardLabelledMetrics) {
  const std::vector<LiveSnapshot> shards = {
      make_snapshot(0, 1, 100, 50, 40, 10),
      make_snapshot(1, 2, 80, 30, 30, 0),
  };
  const otw::obs::MetricsSnapshot metrics = live::build_live_metrics(shards);

  double cluster_gvt = -1;
  double shard1_committed = -1;
  for (const auto& m : metrics.metrics) {
    if (m.name == "otw_live_gvt_ticks") {
      cluster_gvt = m.value;
    }
    if (m.name == "otw_live_events_committed_total" && !m.labels.empty() &&
        m.labels[0].second == "1") {
      shard1_committed = m.value;
    }
  }
  EXPECT_EQ(cluster_gvt, 80.0);  // cluster GVT = min over shards
  EXPECT_EQ(shard1_committed, 30.0);
}

TEST(LiveExposition, JsonDocumentCarriesShardsAndWatchdog) {
  std::ostringstream os;
  live::HealthEvent event;
  event.rule = HealthRule::GvtStall;
  event.raised = true;
  event.shard = 0;
  event.wall_ns = 9;
  live::write_live_json(os, {make_snapshot(0, 1, 100, 50, 40, 10)},
                        {{HealthRule::GvtStall, 0}}, {event}, 77);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"wall_ns\":77"), std::string::npos);
  EXPECT_NE(text.find("\"num_shards\":1"), std::string::npos);
  EXPECT_NE(text.find("\"events_committed\":40"), std::string::npos);
  EXPECT_NE(text.find("\"rule\":\"GvtStall\""), std::string::npos);
}

}  // namespace
