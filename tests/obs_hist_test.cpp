// Latency attribution plane unit tests: log2 bucket math, lock-free
// histogram snapshots, the per-shard Bank, the OTWL codec's histogram
// section, Prometheus histogram exposition, and the black-box
// flight recorder's dump/render cycle. Suites are named Hist*/Flight* on
// purpose: the tsan-stress lane picks them up (nothing here forks).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "otw/obs/flight.hpp"
#include "otw/obs/hist.hpp"
#include "otw/obs/json.hpp"
#include "otw/obs/live.hpp"

namespace otw::obs {
namespace {

using hist::Bank;
using hist::Entry;
using hist::Seam;
using hist::Snapshot;

TEST(HistBuckets, Log2LayoutCoversZeroThroughClamp) {
  EXPECT_EQ(hist::bucket_index(0), 0u);
  EXPECT_EQ(hist::bucket_index(1), 1u);
  EXPECT_EQ(hist::bucket_index(2), 2u);
  EXPECT_EQ(hist::bucket_index(3), 2u);
  EXPECT_EQ(hist::bucket_index(4), 3u);
  EXPECT_EQ(hist::bucket_index(1023), 10u);
  EXPECT_EQ(hist::bucket_index(1024), 11u);
  // Values past the last bucket's range clamp into it.
  EXPECT_EQ(hist::bucket_index(UINT64_MAX), hist::kNumBuckets - 1);

  EXPECT_EQ(hist::bucket_upper_bound(0), 0u);
  EXPECT_EQ(hist::bucket_upper_bound(1), 1u);
  EXPECT_EQ(hist::bucket_upper_bound(2), 3u);
  EXPECT_EQ(hist::bucket_upper_bound(10), 1023u);
  // Every value lands in a bucket whose bound is >= the value (buckets are
  // [2^(i-1), 2^i), bound 2^i - 1) — the quantile-upper-bound contract.
  for (std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 65'535ull, 1'000'000ull}) {
    EXPECT_GE(hist::bucket_upper_bound(hist::bucket_index(v)), v) << v;
  }
}

TEST(HistSnapshot, QuantileUpperBoundsAreMonotoneAndHonest) {
  Snapshot s;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    s.add(v);
  }
  EXPECT_EQ(s.count, 1000u);
  // p50 of 1..1000 is 500, which lives in bucket [256, 512) -> bound 511.
  EXPECT_EQ(s.quantile_upper_bound(0.50), 511u);
  EXPECT_EQ(s.quantile_upper_bound(0.99), 1023u);
  EXPECT_LE(s.quantile_upper_bound(0.50), s.quantile_upper_bound(0.95));
  EXPECT_LE(s.quantile_upper_bound(0.95), s.quantile_upper_bound(0.99));
  // An empty histogram reports 0 everywhere.
  Snapshot empty;
  EXPECT_EQ(empty.quantile_upper_bound(0.99), 0u);
}

TEST(HistSnapshot, MergeAddsCellwise) {
  Snapshot a;
  Snapshot b;
  a.add(10);
  a.add(100);
  b.add(100);
  b.add(100'000);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 10u + 100u + 100u + 100'000u);
  EXPECT_EQ(a.buckets[hist::bucket_index(100)], 2u);
  EXPECT_EQ(a.buckets[hist::bucket_index(100'000)], 1u);
}

TEST(HistBank, RecordsScalarsAndLinksAndDropsOutOfRange) {
  if (!live::LiveMetricsRegistry::compiled_in()) {
    GTEST_SKIP() << "live plane compiled out";
  }
  Bank bank(/*num_shards=*/2);
  bank.record(Seam::GvtRound, 1'000);
  bank.record(Seam::GvtRound, 2'000);
  bank.record_link(Seam::LinkLatency, 0, 1, 500);
  bank.record_link(Seam::RelayResidency, 1, 0, 700);
  // Out-of-range shard ids must be dropped, not crash or misfile.
  bank.record_link(Seam::LinkLatency, 5, 0, 1);
  bank.record_link(Seam::LinkLatency, 0, 9, 1);

  const std::vector<Entry> entries = bank.snapshot(/*shard=*/7);
  ASSERT_EQ(entries.size(), 3u);
  for (const Entry& e : entries) {
    EXPECT_EQ(e.shard, 7u);
  }
  EXPECT_EQ(entries[0].seam, Seam::GvtRound);
  EXPECT_EQ(entries[0].hist.count, 2u);
  EXPECT_EQ(entries[0].hist.sum, 3'000u);
  EXPECT_EQ(entries[1].seam, Seam::LinkLatency);
  EXPECT_EQ(entries[1].src, 0u);
  EXPECT_EQ(entries[1].dst, 1u);
  EXPECT_EQ(entries[1].hist.count, 1u);
  EXPECT_EQ(entries[2].seam, Seam::RelayResidency);
  EXPECT_EQ(entries[2].src, 1u);
  EXPECT_EQ(entries[2].dst, 0u);
}

TEST(HistBank, SeamNamesCarryUnits) {
  EXPECT_STREQ(hist::seam_name(Seam::LinkLatency), "link_latency_ns");
  EXPECT_STREQ(hist::seam_name(Seam::RelayResidency), "relay_residency_ns");
  EXPECT_STREQ(hist::seam_name(Seam::RollbackDepth), "rollback_depth_events");
  EXPECT_TRUE(hist::seam_is_link(Seam::LinkLatency));
  EXPECT_TRUE(hist::seam_is_link(Seam::RelayResidency));
  EXPECT_FALSE(hist::seam_is_link(Seam::GvtRound));
}

live::LiveSnapshot snapshot_with_hists() {
  live::LiveSnapshot snap;
  snap.shard = 3;
  snap.wall_ns = 123'456;
  snap.gvt_ticks = 42;
  snap.lps.resize(2);
  snap.lps[0].lp = 0;
  snap.lps[1].lp = 1;
  Snapshot h;
  h.add(100);
  h.add(10'000);
  snap.hists.push_back(Entry{Seam::LinkLatency, 3, 0, 1, h});
  snap.hists.push_back(Entry{Seam::GvtRound, 3, 0, 0, h});
  return snap;
}

TEST(HistCodec, V2RoundTripsHistogramSection) {
  const live::LiveSnapshot snap = snapshot_with_hists();
  std::vector<std::uint8_t> wire;
  live::encode_snapshot(snap, wire);

  live::LiveSnapshot out;
  ASSERT_TRUE(live::decode_snapshot(wire.data(), wire.size(), out));
  ASSERT_EQ(out.hists.size(), 2u);
  EXPECT_EQ(out.hists[0].seam, Seam::LinkLatency);
  EXPECT_EQ(out.hists[0].src, 0u);
  EXPECT_EQ(out.hists[0].dst, 1u);
  EXPECT_EQ(out.hists[0].shard, 3u);  // restamped from the envelope
  EXPECT_EQ(out.hists[0].hist.count, 2u);
  EXPECT_EQ(out.hists[0].hist.sum, 10'100u);
  EXPECT_EQ(out.hists[0].hist.buckets, snap.hists[0].hist.buckets);
  EXPECT_EQ(out.hists[1].seam, Seam::GvtRound);
}

TEST(HistCodec, RejectsOutOfRangeSeam) {
  const live::LiveSnapshot snap = snapshot_with_hists();
  std::vector<std::uint8_t> wire;
  live::encode_snapshot(snap, wire);
  // The first hist entry's seam word starts right after n_hists; corrupt it
  // by locating the LinkLatency seam value and bumping it out of range.
  // Layout: ... | u32 n_hists | u32 seam | ...  — n_hists is 4 bytes before
  // the seam of entry 0, and the hist section is at a fixed tail offset:
  const std::size_t entry_bytes = 4 * 4 + 2 * 8 + hist::kNumBuckets * 8;
  const std::size_t seam_off = wire.size() - 2 * entry_bytes;
  ASSERT_EQ(wire[seam_off], static_cast<std::uint8_t>(Seam::LinkLatency));
  wire[seam_off] = 200;  // >= kNumSeams
  live::LiveSnapshot out;
  EXPECT_FALSE(live::decode_snapshot(wire.data(), wire.size(), out));
}

TEST(HistExposition, PrometheusHistogramFamiliesAreWellFormed) {
  const live::LiveSnapshot snap = snapshot_with_hists();
  const MetricsSnapshot metrics = live::build_live_metrics({snap});
  ASSERT_EQ(metrics.histograms.size(), 2u);
  EXPECT_EQ(metrics.histograms[0].name, "otw_hist_link_latency_ns");
  EXPECT_EQ(metrics.histograms[0].count, 2u);

  std::ostringstream os;
  write_prometheus(os, metrics);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE otw_hist_link_latency_ns histogram"),
            std::string::npos)
      << text;
  // Cumulative le buckets, the +Inf bucket, _sum and _count — everything
  // histogram_quantile() needs, with shard+link labels.
  EXPECT_NE(text.find("otw_hist_link_latency_ns_bucket{shard=\"3\",src=\"0\","
                      "dst=\"1\",le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("otw_hist_link_latency_ns_sum"), std::string::npos);
  EXPECT_NE(text.find("otw_hist_link_latency_ns_count"), std::string::npos);
  EXPECT_NE(text.find("otw_hist_gvt_round_ns_bucket"), std::string::npos);
}

TEST(FlightRecorder, WatchdogRaiseDumpsAParseableDocument) {
  flight::FlightConfig config;
  config.enabled = true;
  config.dir = ::testing::TempDir();
  config.snapshot_ring = 4;
  flight::FlightRecorder recorder(config, /*num_shards=*/2);

  // Feed more snapshots than the ring holds: the dump keeps the newest 4.
  for (int i = 0; i < 6; ++i) {
    live::LiveSnapshot snap = snapshot_with_hists();
    snap.shard = 1;
    snap.wall_ns = 1'000 + static_cast<std::uint64_t>(i);
    recorder.on_snapshot(snap);
  }
  flight::FrameEvent frame;
  frame.src_shard = 1;
  frame.dst_shard = 0;
  frame.tag = 7;
  frame.frame_len = 64;
  frame.send_ns = 5'000;
  frame.coord_now_ns = 5'900;
  recorder.on_frame(frame);

  live::HealthEvent event;
  event.rule = live::HealthRule::GvtStall;
  event.raised = true;
  event.shard = 1;
  event.wall_ns = 9'000;
  event.detail = "gvt unchanged for 8 feeds";
  recorder.on_health(event);  // raise => dump of shard 1

  const std::vector<std::string> paths = recorder.dumped_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("flight-1.json"), std::string::npos);

  std::ifstream is(paths[0]);
  ASSERT_TRUE(is.good());
  std::ostringstream buffer;
  buffer << is.rdbuf();
  json::Value doc;
  ASSERT_TRUE(json::parse(buffer.str(), doc)) << buffer.str();
  EXPECT_EQ(doc.get_string("schema"), "otw-flight-v1");
  EXPECT_EQ(doc.get_number("shard"), 1.0);
  EXPECT_NE(doc.get_string("reason").find("GvtStall"), std::string::npos);

  // The dump names the watchdog state: active rules and the last event.
  const json::Value* watchdog = doc.find("watchdog");
  ASSERT_NE(watchdog, nullptr);
  const json::Value* active = watchdog->find("active");
  ASSERT_NE(active, nullptr);
  ASSERT_EQ(active->array.size(), 1u);
  EXPECT_EQ(active->array[0].get_string("rule"), "GvtStall");
  const json::Value* last = watchdog->find("last_event");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->get_string("detail"), "gvt unchanged for 8 feeds");

  const json::Value* snapshots = doc.find("snapshots");
  ASSERT_NE(snapshots, nullptr);
  ASSERT_EQ(snapshots->array.size(), 4u);  // ring bounded the history
  EXPECT_EQ(snapshots->array.back().get_number("wall_ns"), 1'005.0);
  const json::Value* hists = snapshots->array.back().find("hists");
  ASSERT_NE(hists, nullptr);
  ASSERT_FALSE(hists->array.empty());
  EXPECT_EQ(hists->array[0].get_string("seam"), "link_latency_ns");

  const json::Value* frames = doc.find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_EQ(frames->array.size(), 1u);
  EXPECT_EQ(frames->array[0].get_number("send_ns"), 5'000.0);

  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
}

TEST(FlightRecorder, DumpAllCoversEveryShardAndDisabledIsInert) {
  flight::FlightConfig config;
  config.enabled = true;
  config.dir = ::testing::TempDir();
  flight::FlightRecorder recorder(config, /*num_shards=*/3);
  recorder.dump_all("worker 2 exited abnormally");
  const std::vector<std::string> paths = recorder.dumped_paths();
  ASSERT_EQ(paths.size(), 3u);
  for (const std::string& path : paths) {
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    json::Value doc;
    ASSERT_TRUE(json::parse(buffer.str(), doc));
    EXPECT_EQ(doc.get_string("reason"), "worker 2 exited abnormally");
    std::remove(path.c_str());
  }

  flight::FlightConfig off;
  off.enabled = false;
  flight::FlightRecorder disabled(off, 2);
  EXPECT_EQ(disabled.dump(0, "nope"), "");
  EXPECT_TRUE(disabled.dumped_paths().empty());
}

}  // namespace
}  // namespace otw::obs
