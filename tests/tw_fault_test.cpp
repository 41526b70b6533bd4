// Fault-tolerance integration tests (Distributed engine, peer mesh).
//
//   KillParity  - 8-seed differential: a worker is SIGKILLed right after a
//                 committed snapshot epoch (kc.fault.inject_kill_shard), the
//                 coordinator re-forks and restores it from the last cut,
//                 and the recovered run's digests must be bit-identical to
//                 the sequential ground truth.
//   ReportOnly  - Policy::ReportOnly keeps snapshots flowing but never arms
//                 the watchdog-kill path; an unharmed run completes with
//                 zero recoveries and exact digests.
//   Spill       - epochs spilled to disk are valid OTWSNAP1 containers whose
//                 manifest matches the run.
//
// Forks worker processes — keep these out of any TSan test filter.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "otw/apps/phold.hpp"
#include "otw/platform/snapshot_file.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw {
namespace {

apps::phold::PholdConfig small_phold(std::uint64_t seed) {
  apps::phold::PholdConfig app;
  app.num_objects = 8;
  app.num_lps = 4;
  app.population_per_object = 3;
  app.remote_probability = 0.4;
  app.seed = seed;
  return app;
}

KernelConfig fault_config(const apps::phold::PholdConfig& app,
                          VirtualTime end) {
  KernelConfig kc;
  kc.num_lps = app.num_lps;
  kc.end_time = end;
  kc.engine.kind = EngineKind::Distributed;
  kc.engine.num_shards = 2;
  // The budget sets the wall-clock snapshot cadence after an injected kill
  // (and throughout a run without one, ~30 ms gaps); the epochs before an
  // armed kill follow GVT progress instead.
  kc = kc.with_fault_tolerance(60);
  return kc;
}

TEST(DistFault, KillParity) {
  const VirtualTime end{60'000};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const apps::phold::PholdConfig app = small_phold(seed);
    const Model model = apps::phold::build_model(app);
    KernelConfig kc = fault_config(app, end);
    const auto victim = static_cast<std::int32_t>(seed % 2);
    kc.fault.inject_kill_shard = victim;
    kc.fault.inject_kill_after_epoch = 1 + static_cast<std::uint32_t>(seed % 3);
    ASSERT_TRUE(kc.validate().empty());

    const RunResult result = run(model, kc);
    const SequentialResult seq = run_sequential(model, end);
    EXPECT_EQ(result.digests, seq.digests) << "seed " << seed;
    ASSERT_GE(result.recoveries.size(), 1u) << "seed " << seed;
    const platform::RecoveryIncident& first = result.recoveries.front();
    EXPECT_EQ(first.lost_shard, static_cast<std::uint32_t>(victim));
    EXPECT_GE(first.epoch, 1u);
    EXPECT_GT(first.bytes, 0u);
    EXPECT_GT(first.restore_ns, 0u);
    EXPECT_GE(result.dist.snapshots_taken, 1u);
  }
}

TEST(DistFault, ReportOnlyRunsClean) {
  const VirtualTime end{40'000};
  const apps::phold::PholdConfig app = small_phold(21);
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = fault_config(app, end);
  kc.fault.policy = KernelConfig::Fault::Policy::ReportOnly;
  ASSERT_TRUE(kc.validate().empty());

  const RunResult result = run(model, kc);
  const SequentialResult seq = run_sequential(model, end);
  EXPECT_EQ(result.digests, seq.digests);
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_GE(result.dist.snapshots_taken, 1u);
  EXPECT_GT(result.dist.snapshot_bytes, 0u);
}

TEST(DistFault, SpilledEpochIsAReadableManifest) {
  const VirtualTime end{40'000};
  const apps::phold::PholdConfig app = small_phold(33);
  const Model model = apps::phold::build_model(app);
  KernelConfig kc = fault_config(app, end);
  // A directory of its own: concurrent test processes share TempDir(), and
  // the spill file names repeat from run to run.
  struct SpillDir {
    std::filesystem::path path;
    ~SpillDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } spill{std::filesystem::path(::testing::TempDir()) /
          ("otw_spill_" + std::to_string(::getpid()))};
  std::filesystem::create_directories(spill.path);
  kc.fault.spill_dir = spill.path.string();
  ASSERT_TRUE(kc.validate().empty());

  const RunResult result = run(model, kc);
  const SequentialResult seq = run_sequential(model, end);
  EXPECT_EQ(result.digests, seq.digests);
  ASSERT_GE(result.dist.snapshots_taken, 1u);

  // Epoch numbers count attempts (a declined cut burns one), so probe for
  // the first committed epoch's file instead of assuming it is epoch 1.
  std::string path;
  std::uint32_t epoch = 0;
  for (std::uint32_t e = 1; e <= 64 && path.empty(); ++e) {
    const std::string candidate = kc.fault.spill_dir + "/otw_snapshot_epoch" +
                                  std::to_string(e) + ".otwsnap";
    if (std::FILE* f = std::fopen(candidate.c_str(), "rb")) {
      std::fclose(f);
      path = candidate;
      epoch = e;
    }
  }
  ASSERT_FALSE(path.empty()) << "no spilled epoch found";
  const platform::SnapshotImage image = platform::read_snapshot_file(path);
  EXPECT_EQ(image.engine, platform::kSnapshotEngineDistributed);
  EXPECT_EQ(image.epoch, epoch);
  EXPECT_GT(image.gvt_ticks, 0u);
  EXPECT_EQ(image.num_lps, static_cast<std::uint32_t>(app.num_lps));
  ASSERT_EQ(image.shards.size(), 2u);
  std::uint32_t lps_in_blobs = 0;
  for (const platform::SnapshotShardBlob& shard : image.shards) {
    EXPECT_GT(shard.blob.size(), 0u);
    lps_in_blobs += shard.lp_count();
  }
  EXPECT_EQ(lps_in_blobs, static_cast<std::uint32_t>(app.num_lps));
}

}  // namespace
}  // namespace otw::tw
