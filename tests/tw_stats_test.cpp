#include "otw/tw/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace otw::tw {
namespace {

ObjectStats sample_object_stats() {
  ObjectStats s;
  s.events_processed = 100;
  s.events_committed = 80;
  s.events_rolled_back = 15;
  s.coast_forward_events = 5;
  s.rollbacks = 7;
  s.messages_sent = 60;
  s.anti_messages_sent = 4;
  s.anti_messages_received = 4;
  s.lazy_hits = 3;
  s.lazy_misses = 1;
  return s;
}

TEST(ObjectStats, MergeAddsAllCounters) {
  ObjectStats a = sample_object_stats();
  const ObjectStats b = sample_object_stats();
  a.merge(b);
  EXPECT_EQ(a.events_processed, 200u);
  EXPECT_EQ(a.events_committed, 160u);
  EXPECT_EQ(a.rollbacks, 14u);
  EXPECT_EQ(a.lazy_hits, 6u);
}

TEST(LpStats, MergeAddsAllCounters) {
  LpStats a;
  a.gvt_epochs = 3;
  a.events_sent_remote = 10;
  a.aggregate_size.add(4.0);
  LpStats b;
  b.gvt_epochs = 2;
  b.events_sent_remote = 5;
  b.aggregate_size.add(8.0);
  a.merge(b);
  EXPECT_EQ(a.gvt_epochs, 5u);
  EXPECT_EQ(a.events_sent_remote, 15u);
  EXPECT_DOUBLE_EQ(a.aggregate_size.mean(), 6.0);
}

TEST(KernelStats, TotalsSumOverObjects) {
  KernelStats stats;
  stats.objects.push_back(sample_object_stats());
  stats.objects.push_back(sample_object_stats());
  EXPECT_EQ(stats.total_committed(), 160u);
  EXPECT_EQ(stats.total_rollbacks(), 14u);
  EXPECT_EQ(stats.object_totals().events_processed, 200u);
}

TEST(KernelStats, SummaryMentionsKeyNumbers) {
  KernelStats stats;
  stats.objects.push_back(sample_object_stats());
  stats.lps.emplace_back();
  stats.final_gvt = VirtualTime::infinity();
  const std::string text = stats.summary();
  EXPECT_NE(text.find("committed events:     80"), std::string::npos);
  EXPECT_NE(text.find("rollbacks:            7"), std::string::npos);
  EXPECT_NE(text.find("inf"), std::string::npos);
}

TEST(KernelStats, StreamOperatorMatchesSummary) {
  KernelStats stats;
  stats.objects.push_back(sample_object_stats());
  std::ostringstream os;
  os << stats;
  EXPECT_EQ(os.str(), stats.summary());
}

}  // namespace
}  // namespace otw::tw
