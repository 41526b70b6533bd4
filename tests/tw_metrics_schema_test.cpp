// The counter schema (otw/obs/counters.hpp) end to end: every counter it
// lists is summed by merge(), exported by tw::build_metrics, and carried by
// the live plane's exposition and JSON snapshot under its schema name. Also
// the per-LP harvest record every engine builds its RunResult from: it
// survives the worker encoding unchanged, and build_result lays harvests
// out in LP-id order whatever order they arrive in.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernel_internal.hpp"
#include "otw/obs/live.hpp"
#include "otw/tw/observability.hpp"
#include "otw/util/assert.hpp"

namespace otw::tw {
namespace {

template <typename Stats>
struct Field {
  std::string name;
  std::uint64_t Stats::*member;
};

#define OTW_OBJECT_FIELD(name) Field<ObjectStats>{#name, &ObjectStats::name},
#define OTW_LP_FIELD(name) Field<LpStats>{#name, &LpStats::name},
const std::vector<Field<ObjectStats>> kObjectCounters = {
    OTW_OBJECT_COUNTERS(OTW_OBJECT_FIELD)};
const std::vector<Field<LpStats>> kLpCounters = {OTW_LP_COUNTERS(OTW_LP_FIELD)};
#undef OTW_OBJECT_FIELD
#undef OTW_LP_FIELD

/// A distinct value for counter `i` of a record tagged `tag`.
std::uint64_t value_of(std::size_t i, std::uint64_t tag) {
  return tag * 1000 + i + 1;
}

template <typename Stats>
Stats distinct(const std::vector<Field<Stats>>& fields, std::uint64_t tag) {
  Stats s;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    s.*fields[i].member = value_of(i, tag);
  }
  return s;
}

/// Value of the metric `name` whose labels are exactly `labels`; -1 if absent.
double metric_value(
    const obs::MetricsSnapshot& snapshot, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels = {}) {
  for (const obs::Metric& m : snapshot.metrics) {
    if (m.name == name && m.labels == labels) {
      return m.value;
    }
  }
  return -1.0;
}

TEST(MetricsSchema, MergeSumsEveryCounter) {
  ObjectStats objects = distinct(kObjectCounters, 1);
  objects.merge(distinct(kObjectCounters, 2));
  for (std::size_t i = 0; i < kObjectCounters.size(); ++i) {
    EXPECT_EQ(objects.*kObjectCounters[i].member,
              value_of(i, 1) + value_of(i, 2))
        << kObjectCounters[i].name;
  }
  LpStats lps = distinct(kLpCounters, 3);
  lps.merge(distinct(kLpCounters, 4));
  for (std::size_t i = 0; i < kLpCounters.size(); ++i) {
    EXPECT_EQ(lps.*kLpCounters[i].member, value_of(i, 3) + value_of(i, 4))
        << kLpCounters[i].name;
  }
}

TEST(MetricsSchema, BuildMetricsExportsEveryCounter) {
  RunResult result;
  result.stats.objects = {distinct(kObjectCounters, 1),
                          distinct(kObjectCounters, 2)};
  result.stats.lps = {distinct(kLpCounters, 3), distinct(kLpCounters, 4)};
  const obs::MetricsSnapshot snapshot = build_metrics(result);

  for (std::size_t i = 0; i < kObjectCounters.size(); ++i) {
    const std::string name = "otw_" + kObjectCounters[i].name + "_total";
    EXPECT_EQ(metric_value(snapshot, name),
              static_cast<double>(value_of(i, 1) + value_of(i, 2)))
        << name;
  }
  for (std::size_t lp = 0; lp < 2; ++lp) {
    for (std::size_t i = 0; i < kLpCounters.size(); ++i) {
      const std::string name = "otw_lp_" + kLpCounters[i].name + "_total";
      EXPECT_EQ(metric_value(snapshot, name, {{"lp", std::to_string(lp)}}),
                static_cast<double>(value_of(i, 3 + lp)))
          << name << "{lp=" << lp << "}";
    }
  }
}

TEST(MetricsSchema, LivePlaneCarriesEveryCounter) {
  // Slot order is the object list, then the LP list.
  std::vector<std::string> names;
  for (const auto& f : kObjectCounters) {
    names.push_back(f.name);
  }
  for (const auto& f : kLpCounters) {
    names.push_back(f.name);
  }
  ASSERT_EQ(names.size(), obs::live::kNumCounters);

  obs::live::LiveSnapshot snap;
  snap.shard = 2;
  snap.lps.resize(2);
  for (std::size_t lp = 0; lp < 2; ++lp) {
    snap.lps[lp].lp = static_cast<std::uint32_t>(lp);
    for (std::size_t c = 0; c < names.size(); ++c) {
      EXPECT_EQ(names[c], obs::live::kCounterNames[c]);
      snap.lps[lp].counters[c] = value_of(c, 5 + lp);
    }
  }
  const obs::MetricsSnapshot metrics = obs::live::build_live_metrics({snap});
  std::ostringstream json;
  obs::live::write_live_json(json, {snap}, {}, {}, 0);
  for (std::size_t c = 0; c < names.size(); ++c) {
    const std::uint64_t total = value_of(c, 5) + value_of(c, 6);
    const std::string name = "otw_live_" + names[c] + "_total";
    EXPECT_EQ(metric_value(metrics, name, {{"shard", "2"}}),
              static_cast<double>(total))
        << name;
    const std::string key = "\"" + names[c] + "\":" + std::to_string(total);
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }
}

detail::LpHarvest sample_harvest(LpId lp) {
  detail::LpHarvest h;
  h.lp = lp;
  h.gvt = VirtualTime(4000 + lp);
  h.stats = distinct(kLpCounters, 7 + lp);
  h.stats.aggregate_size.add(3.0);
  h.stats.memory.state_bytes = 640;
  h.stats.memory_peak_bytes = 4096;
  h.stats.memory_budget_bytes = 8192;
  obs::LpTraceLog log;
  log.lp = lp;
  log.dropped = 2;
  log.records.push_back(obs::TraceRecord{11, 12, 13, 14, 15, {}});
  h.trace = log;
  obs::PhaseTotals phases;
  phases.ns[1] = 99;
  phases.count[1] = 3;
  h.phases = phases;
  LpSample sample;
  sample.events_processed = 256;
  sample.memory_bytes = 512;
  h.samples = {sample};
  ObjectSample object_sample;
  object_sample.rollbacks = 6;
  h.objects.push_back(detail::LpHarvest::Object{
      2 * lp, 0xABCD0000u + lp, distinct(kObjectCounters, 9), {object_sample}});
  h.objects.push_back(detail::LpHarvest::Object{
      2 * lp + 1, 0xEF000000u + lp, distinct(kObjectCounters, 10), {}});
  return h;
}

TEST(Harvest, RoundTripsThroughTheWorkerEncoding) {
  detail::LpHarvest bare = sample_harvest(1);
  bare.trace.reset();
  bare.phases.reset();
  for (const detail::LpHarvest& h : {sample_harvest(3), bare}) {
    std::vector<std::uint8_t> bytes;
    platform::WireWriter writer(bytes);
    detail::encode_harvest(writer, h);
    platform::WireReader reader(bytes.data(), bytes.size());
    const detail::LpHarvest back = detail::decode_harvest(reader);
    EXPECT_TRUE(reader.done());

    EXPECT_EQ(back.lp, h.lp);
    EXPECT_EQ(back.gvt, h.gvt);
    for (const auto& f : kLpCounters) {
      EXPECT_EQ(back.stats.*f.member, h.stats.*f.member) << f.name;
    }
    EXPECT_EQ(back.stats.aggregate_size.count(), 1u);
    EXPECT_EQ(back.stats.memory.state_bytes, 640u);
    EXPECT_EQ(back.stats.memory_peak_bytes, 4096u);
    EXPECT_EQ(back.stats.memory_budget_bytes, 8192u);
    ASSERT_EQ(back.trace.has_value(), h.trace.has_value());
    if (h.trace.has_value()) {
      EXPECT_EQ(back.trace->lp, h.lp);
      EXPECT_EQ(back.trace->dropped, 2u);
      ASSERT_EQ(back.trace->records.size(), 1u);
      EXPECT_EQ(back.trace->records[0].arg1, 14u);
      EXPECT_EQ(back.trace->records[0].actor, 15u);
    }
    ASSERT_EQ(back.phases.has_value(), h.phases.has_value());
    if (h.phases.has_value()) {
      EXPECT_EQ(back.phases->ns, h.phases->ns);
      EXPECT_EQ(back.phases->count, h.phases->count);
    }
    ASSERT_EQ(back.samples.size(), 1u);
    EXPECT_EQ(back.samples[0].events_processed, 256u);
    EXPECT_EQ(back.samples[0].memory_bytes, 512u);
    ASSERT_EQ(back.objects.size(), h.objects.size());
    for (std::size_t k = 0; k < h.objects.size(); ++k) {
      EXPECT_EQ(back.objects[k].id, h.objects[k].id);
      EXPECT_EQ(back.objects[k].digest, h.objects[k].digest);
      for (const auto& f : kObjectCounters) {
        EXPECT_EQ(back.objects[k].stats.*f.member, h.objects[k].stats.*f.member)
            << f.name;
      }
      ASSERT_EQ(back.objects[k].samples.size(), h.objects[k].samples.size());
    }
    EXPECT_EQ(back.objects[0].samples[0].rollbacks, 6u);
  }
}

TEST(Harvest, BuildResultLaysOutLpOrder) {
  Model model;
  for (LpId lp = 0; lp < 2; ++lp) {
    model.add(lp, nullptr);
    model.add(lp, nullptr);
  }
  platform::EngineRunResult engine;
  engine.execution_time_ns = 500;
  obs::LpTraceLog wire;
  wire.lp = 0;
  wire.name = "shard 0 wire";
  engine.worker_traces.push_back(wire);

  const RunResult result = detail::build_result(
      model, {sample_harvest(1), sample_harvest(0)}, engine, 7);
  EXPECT_EQ(result.execution_time_ns, 500u);
  EXPECT_EQ(result.wall_time_ns, 7u);
  ASSERT_EQ(result.stats.lps.size(), 2u);
  EXPECT_EQ(result.stats.lps[0].gvt_epochs, value_of(0, 7));
  EXPECT_EQ(result.stats.lps[1].gvt_epochs, value_of(0, 8));
  EXPECT_EQ(result.stats.final_gvt, VirtualTime(4001));
  EXPECT_EQ(result.digests,
            (std::vector<std::uint64_t>{0xABCD0000u, 0xEF000000u, 0xABCD0001u,
                                        0xEF000001u}));
  ASSERT_EQ(result.trace.lps.size(), 3u);
  EXPECT_EQ(result.trace.lps[0].lp, 0u);
  EXPECT_EQ(result.trace.lps[1].lp, 1u);
  EXPECT_EQ(result.trace.lps[2].lp, 2u);  // wire track after the LP tracks
  EXPECT_EQ(result.trace.lps[2].name, "shard 0 wire");
  EXPECT_EQ(result.lp_phases.size(), 2u);
  ASSERT_EQ(result.telemetry.lps.size(), 2u);
  ASSERT_EQ(result.telemetry.objects.size(), 4u);
  EXPECT_EQ(result.telemetry.objects[2].samples.size(), 1u);

  EXPECT_THROW(detail::build_result(model, {sample_harvest(0), sample_harvest(0)},
                                    engine, 0),
               ContractViolation);
}

}  // namespace
}  // namespace otw::tw
