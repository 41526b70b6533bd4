// Live-plane integration tests.
//
//   LiveParity        - 8-seed differential: enabling the live plane (registry
//                       + scrape endpoint) must not change a single committed
//                       digest on the in-process engines. Runs under TSan via
//                       the tsan-stress lane (matches its "Live" filter), so
//                       the relaxed-atomic publish/scrape races are also
//                       exercised under the race detector.
//   LiveScrape        - scrape-under-load: a background HTTP client polls
//                       /metrics and /snapshot while a threaded run is in
//                       flight, and validates the Prometheus exposition and
//                       the JSON schema mid-run.
//   DistIntrospection - the acceptance case: a 4-shard distributed PHOLD run
//                       is scrapeable mid-flight, one scrape showing
//                       otw_live_* families for every shard plus watchdog
//                       status, with digests still matching sequential.
//                       Separate suite name on purpose: it forks, so the
//                       tsan-stress filter must not pick it up.
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "otw/apps/phold.hpp"
#include "otw/obs/hist.hpp"
#include "otw/obs/json.hpp"
#include "otw/obs/live.hpp"
#include "otw/tw/kernel.hpp"
#include "otw/util/net.hpp"

namespace otw::tw {
namespace {

/// Minimal blocking HTTP GET against the live endpoint; empty on any error
/// (the scraper loops, so one refused connect mid-shutdown is tolerable).
std::string try_http_get(std::uint16_t port, const std::string& path) {
  int fd = -1;
  try {
    fd = util::net::connect_loopback(port, "tw_live_test");
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    util::net::write_all(fd,
                         reinterpret_cast<const std::uint8_t*>(request.data()),
                         request.size(), "tw_live_test");
    std::string response;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        response.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    ::close(fd);
    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos || response.rfind("HTTP/1.1 200", 0) != 0) {
      return {};
    }
    return response.substr(split + 4);
  } catch (...) {
    if (fd >= 0) {
      ::close(fd);
    }
    return {};
  }
}

struct LiveSetup {
  apps::phold::PholdConfig app;
  KernelConfig kernel;
  platform::ThreadedConfig threads;
};

/// Small seeded phold topologies; varied enough to hit rollbacks, GVT
/// epochs, adaptive control and the memory-governance gauges.
LiveSetup derive_setup(std::uint64_t seed) {
  LiveSetup s;
  s.app.num_lps = static_cast<LpId>(2 + seed % 5);
  s.app.num_objects = static_cast<std::uint32_t>(s.app.num_lps * (1 + seed % 3));
  s.app.population_per_object = 2 + static_cast<std::uint32_t>(seed % 2);
  s.app.remote_probability = 0.3 + 0.08 * static_cast<double>(seed % 5);
  s.app.mean_delay = 60 + 10 * static_cast<std::uint32_t>(seed % 7);
  s.app.seed = seed * 977 + 13;

  s.kernel.num_lps = s.app.num_lps;
  s.kernel.end_time = VirtualTime{2'000 + 250 * (seed % 4)};
  s.kernel.batch_size = static_cast<std::uint32_t>(4u << (seed % 3));
  s.kernel.gvt_period_events = 32 + 16 * static_cast<std::uint32_t>(seed % 3);
  s.kernel.checkpoint.dynamic = (seed % 2) == 0;
  if (seed % 3 == 0) {
    s.kernel.runtime.cancellation = core::CancellationControlConfig::dynamic();
  }
  if (seed % 4 == 1) {
    s.kernel.optimism.mode = KernelConfig::Optimism::Mode::Adaptive;
    s.kernel.optimism.window = 256;
  }
  s.threads.num_workers = 1 + static_cast<std::uint32_t>(seed % 4);
  return s;
}

void expect_same_digests(const RunResult& a, const RunResult& b,
                         const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.digests.size(), b.digests.size());
  for (std::size_t i = 0; i < a.digests.size(); ++i) {
    EXPECT_EQ(a.digests[i], b.digests[i]) << "object " << i;
  }
  EXPECT_EQ(a.stats.total_committed(), b.stats.total_committed());
}

class LiveParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveParity, LivePlaneIsDigestNeutral) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("live parity seed = " + std::to_string(seed));
  const LiveSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);

  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  KernelConfig live_kc = s.kernel;
  live_kc.observability.live.enabled = true;  // ephemeral port
  live_kc.observability.live.stats_period_ms = 20;
  live_kc.observability.live.monitor_period_ms = 20;

  // Simulated-NOW: live off vs live on.
  const RunResult now_off = run(model, s.kernel);
  const RunResult now_on = run(model, live_kc);
  expect_same_digests(now_off, now_on, "simulated-NOW live on/off");
  ASSERT_EQ(now_off.digests.size(), seq.digests.size());
  for (std::size_t i = 0; i < seq.digests.size(); ++i) {
    EXPECT_EQ(now_on.digests[i], seq.digests[i]) << "object " << i;
  }

  // Threaded: live off vs live on (same worker pool).
  const RunResult thr_off = run(model, s.kernel.with_engine(EngineKind::Threaded),
                                {.threaded = s.threads});
  const RunResult thr_on = run(model, live_kc.with_engine(EngineKind::Threaded),
                               {.threaded = s.threads});
  expect_same_digests(thr_off, thr_on, "threaded live on/off");
  for (std::size_t i = 0; i < seq.digests.size(); ++i) {
    EXPECT_EQ(thr_on.digests[i], seq.digests[i]) << "object " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveParity,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(LiveScrape, ServesMetricsAndJsonMidRun) {
  apps::phold::PholdConfig app;
  app.num_objects = 24;
  app.num_lps = 6;
  app.population_per_object = 3;
  app.remote_probability = 0.5;
  app.mean_delay = 80;
  app.seed = 4242;
  const Model model = apps::phold::build_model(app);

  KernelConfig kc;
  kc.num_lps = app.num_lps;
  kc.end_time = VirtualTime{60'000};
  kc.checkpoint.dynamic = true;
  kc.observability.live.enabled = true;
  kc.observability.live.monitor_period_ms = 10;

  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> done{false};
  kc.observability.live.on_endpoint = [&port](std::uint16_t bound) {
    port.store(bound, std::memory_order_release);
  };

  std::string metrics_body;
  std::string json_body;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint16_t p = port.load(std::memory_order_acquire);
      if (p == 0) {
        std::this_thread::yield();
        continue;
      }
      std::string m = try_http_get(p, "/metrics");
      std::string j = try_http_get(p, "/snapshot");
      if (!m.empty() && !j.empty()) {
        metrics_body = std::move(m);
        json_body = std::move(j);
      }
      ::usleep(2'000);
    }
  });

  platform::ThreadedConfig tc;
  tc.num_workers = 2;
  const RunResult r =
      run(model, kc.with_engine(EngineKind::Threaded), {.threaded = tc});
  done.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_GT(r.stats.total_committed(), 0u);
  if (metrics_body.empty()) {
    GTEST_SKIP() << "run finished before a scrape landed (loaded machine)";
  }

  // Prometheus exposition shape.
  EXPECT_NE(metrics_body.find("# TYPE otw_live_shards gauge"),
            std::string::npos);
  EXPECT_NE(
      metrics_body.find("# TYPE otw_live_events_committed_total counter"),
      std::string::npos);
  EXPECT_NE(metrics_body.find("otw_live_events_processed_total{shard=\"0\"}"),
            std::string::npos);

  // JSON schema: parses, and carries the per-shard and watchdog sections.
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(json_body, doc)) << json_body;
  ASSERT_TRUE(doc.is_object());
  EXPECT_GE(doc.get_number("num_shards"), 1.0);
  const obs::json::Value* shards = doc.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_FALSE(shards->array.empty());
  EXPECT_EQ(shards->array[0].get_number("num_lps"),
            static_cast<double>(app.num_lps));
  EXPECT_NE(shards->array[0].find("events_committed"), nullptr);
  const obs::json::Value* watchdog = doc.find("watchdog");
  ASSERT_NE(watchdog, nullptr);
  EXPECT_NE(watchdog->find("active"), nullptr);
  EXPECT_NE(watchdog->find("events"), nullptr);
}

/// Acceptance: 4-shard distributed PHOLD, scrapeable mid-flight; one scrape
/// must return per-shard otw_live_* metrics for all 4 shards plus watchdog
/// status, and the run's digests must still match sequential. (Forks worker
/// processes — keep the suite name clear of the tsan-stress filter.)
TEST(DistIntrospection, FourShardPholdScrapeableMidFlight) {
  apps::phold::PholdConfig app;
  app.num_objects = 32;
  app.num_lps = 8;
  app.population_per_object = 3;
  app.remote_probability = 0.4;
  app.mean_delay = 90;
  app.seed = 777;
  const Model model = apps::phold::build_model(app);

  KernelConfig kc;
  kc.num_lps = app.num_lps;
  kc.end_time = VirtualTime{150'000};
  kc.engine.kind = EngineKind::Distributed;
  kc.engine.num_shards = 4;
  kc.observability.live.enabled = true;
  kc.observability.live.stats_period_ms = 10;
  kc.observability.live.monitor_period_ms = 10;

  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> done{false};
  kc.observability.live.on_endpoint = [&port](std::uint16_t bound) {
    port.store(bound, std::memory_order_release);
  };

  std::string best_metrics;  // latest scrape carrying all 4 shards
  std::string best_json;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint16_t p = port.load(std::memory_order_acquire);
      if (p == 0) {
        std::this_thread::yield();
        continue;
      }
      std::string m = try_http_get(p, "/metrics");
      bool all_shards = !m.empty();
      for (int shard = 0; shard < 4; ++shard) {
        all_shards =
            all_shards &&
            m.find("otw_live_events_processed_total{shard=\"" +
                   std::to_string(shard) + "\"}") != std::string::npos;
      }
      // Also wait for the attribution plane: a scrape carrying per-link
      // latency histograms (recorded once remote frames flow, shipped in
      // the v2 STATS payloads).
      all_shards = all_shards && m.find("otw_hist_link_latency_ns_bucket") !=
                                     std::string::npos;
      if (all_shards) {
        std::string j = try_http_get(p, "/snapshot");
        if (!j.empty()) {
          best_metrics = std::move(m);
          best_json = std::move(j);
        }
      }
      ::usleep(5'000);
    }
  });

  const RunResult r = run(model, kc);
  done.store(true, std::memory_order_release);
  scraper.join();

  const SequentialResult seq = run_sequential(model, kc.end_time);
  ASSERT_EQ(r.digests.size(), seq.digests.size());
  for (std::size_t i = 0; i < seq.digests.size(); ++i) {
    EXPECT_EQ(r.digests[i], seq.digests[i]) << "object " << i;
  }
  if (!obs::live::LiveMetricsRegistry::compiled_in()) {
    GTEST_SKIP() << "live plane compiled out";
  }
  EXPECT_EQ(r.dist.num_shards, 4u);
  EXPECT_GT(r.dist.stats_frames, 0u) << "no STATS frames reached the coordinator";

  if (best_metrics.empty()) {
    GTEST_SKIP() << "run finished before a 4-shard scrape landed";
  }
  // One scrape with every shard present, per-shard families + cluster GVT.
  for (int shard = 0; shard < 4; ++shard) {
    const std::string label = "{shard=\"" + std::to_string(shard) + "\"}";
    EXPECT_NE(best_metrics.find("otw_live_events_committed_total" + label),
              std::string::npos)
        << "shard " << shard;
    EXPECT_NE(best_metrics.find("otw_live_lps" + label), std::string::npos)
        << "shard " << shard;
  }
  EXPECT_NE(best_metrics.find("otw_live_shards 4"), std::string::npos);

  // Attribution histograms ride the same scrape as proper Prometheus
  // histogram families: TYPE header, shard+src+dst labelled cumulative
  // buckets, the +Inf bucket and _sum/_count — everything PromQL's
  // histogram_quantile() needs to compute a per-link p99.
  EXPECT_NE(best_metrics.find("# TYPE otw_hist_link_latency_ns histogram"),
            std::string::npos);
  const std::size_t bucket_at =
      best_metrics.find("otw_hist_link_latency_ns_bucket{shard=\"");
  ASSERT_NE(bucket_at, std::string::npos);
  const std::string bucket_line =
      best_metrics.substr(bucket_at, best_metrics.find('\n', bucket_at) - bucket_at);
  EXPECT_NE(bucket_line.find("src=\""), std::string::npos) << bucket_line;
  EXPECT_NE(bucket_line.find("dst=\""), std::string::npos) << bucket_line;
  EXPECT_NE(bucket_line.find("le=\""), std::string::npos) << bucket_line;
  EXPECT_NE(best_metrics.find("otw_hist_link_latency_ns_count"),
            std::string::npos);
  EXPECT_NE(best_metrics.find("le=\"+Inf\""), std::string::npos);

  // The final RunResult merges worker hists plus the coordinator's
  // relay-residency entries (stamped shard = num_shards), and the clock
  // handshake produced an offset estimate for every shard.
  bool saw_link = false;
  bool saw_relay = false;
  for (const obs::hist::Entry& e : r.hists) {
    saw_link = saw_link || e.seam == obs::hist::Seam::LinkLatency;
    saw_relay = saw_relay ||
                (e.seam == obs::hist::Seam::RelayResidency && e.shard == 4u);
  }
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_relay);
  ASSERT_EQ(r.shard_clocks.size(), 4u);
  for (const platform::ShardClock& clock : r.shard_clocks) {
    EXPECT_GT(clock.rtt_ns, 0u);
  }

  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(best_json, doc));
  EXPECT_EQ(doc.get_number("num_shards"), 4.0);
  const obs::json::Value* watchdog = doc.find("watchdog");
  ASSERT_NE(watchdog, nullptr) << "watchdog status missing from /snapshot";
  ASSERT_TRUE(watchdog->is_object());
  EXPECT_NE(watchdog->find("active"), nullptr);
}

/// Digest parity with the live plane on for the distributed engine across
/// seeds (2 shards, lighter than the acceptance case so it can sweep).
TEST(DistIntrospection, LivePlaneIsDigestNeutralAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("dist live parity seed = " + std::to_string(seed));
    const LiveSetup s = derive_setup(seed);
    if (s.kernel.num_lps < 2) {
      continue;
    }
    const Model model = apps::phold::build_model(s.app);
    const SequentialResult seq = run_sequential(model, s.kernel.end_time);
    ASSERT_GT(seq.events_processed, 0u);

    KernelConfig live_kc = s.kernel.with_engine(EngineKind::Distributed, 2);
    live_kc.observability.live.enabled = true;
    live_kc.observability.live.stats_period_ms = 10;
    const RunResult r = run(model, live_kc);
    ASSERT_EQ(r.digests.size(), seq.digests.size());
    for (std::size_t i = 0; i < seq.digests.size(); ++i) {
      EXPECT_EQ(r.digests[i], seq.digests[i]) << "object " << i;
    }
    EXPECT_EQ(r.stats.total_committed(), seq.events_processed);
  }
}

}  // namespace
}  // namespace otw::tw
