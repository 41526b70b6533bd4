#include "otw/tw/checkpoint_store.hpp"

#include <gtest/gtest.h>

#include <array>

#include "otw/apps/phold.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw {
namespace {

struct Blob {
  std::array<std::uint8_t, 64> bytes{};
};
static_assert(std::has_unique_object_representations_v<Blob>);

Position pos(std::uint64_t recv, std::uint64_t instance = 0) {
  return Position{EventKey{VirtualTime{recv}, 0, recv}, instance};
}

PodState<Blob> state_with(std::initializer_list<std::pair<int, int>> edits) {
  PodState<Blob> s;
  for (auto [offset, value] : edits) {
    s.value().bytes[static_cast<std::size_t>(offset)] =
        static_cast<std::uint8_t>(value);
  }
  return s;
}

std::uint8_t byte_at(const ObjectState& s, int offset) {
  return static_cast<const PodState<Blob>&>(s).value().bytes[
      static_cast<std::size_t>(offset)];
}

// Identical behavioural contract for both stores.
class CheckpointStoreContract
    : public ::testing::TestWithParam<StateSaving> {
 protected:
  std::unique_ptr<CheckpointStore> make(std::uint32_t full_snapshot_interval = 4) {
    return make_checkpoint_store(GetParam(), full_snapshot_interval);
  }
};

TEST_P(CheckpointStoreContract, RestoresLatestBeforeTarget) {
  auto store = make();
  store->save(pos(10), state_with({{0, 1}}));
  store->save(pos(20), state_with({{0, 2}}));
  store->save(pos(30), state_with({{0, 3}}));
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(pos(25), into), pos(20));
  EXPECT_EQ(byte_at(into, 0), 2);
  EXPECT_EQ(store->entries(), 2u);  // the entry at 30 was dropped
}

TEST_P(CheckpointStoreContract, RestoreAtExactPositionGoesEarlier) {
  auto store = make();
  store->save(pos(10), state_with({{0, 1}}));
  store->save(pos(20), state_with({{0, 2}}));
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(pos(20), into), pos(10));
  EXPECT_EQ(byte_at(into, 0), 1);
}

TEST_P(CheckpointStoreContract, RestoreWithNothingLeftIsAContractViolation) {
  auto store = make();
  store->save(pos(10), state_with({}));
  PodState<Blob> into;
  EXPECT_THROW(store->restore_before(pos(5), into), ContractViolation);
}

TEST_P(CheckpointStoreContract, SavesRequireIncreasingPositions) {
  auto store = make();
  store->save(pos(10), state_with({}));
  EXPECT_THROW(store->save(pos(10), state_with({})), ContractViolation);
  EXPECT_THROW(store->save(pos(5), state_with({})), ContractViolation);
}

TEST_P(CheckpointStoreContract, RequiresFlatState) {
  struct Opaque final : ObjectState {
    std::unique_ptr<ObjectState> clone() const override {
      return std::make_unique<Opaque>();
    }
    std::size_t byte_size() const noexcept override { return 8; }
    std::uint64_t digest() const noexcept override { return 0; }
  };
  auto store = make();
  EXPECT_THROW(store->save(pos(1), Opaque{}), ContractViolation);
  store->save(pos(1), state_with({}));
  Opaque opaque;
  EXPECT_THROW(store->restore_before(pos(2), opaque), ContractViolation);
}

TEST_P(CheckpointStoreContract, RestoresIntoTheWorkingState) {
  auto store = make();
  store->save(pos(10), state_with({{0, 1}, {63, 9}}));
  store->save(pos(20), state_with({{0, 2}}));
  // The working state has run ahead: every byte of it is overwritten.
  PodState<Blob> working = state_with({{0, 7}, {5, 7}, {63, 7}});
  EXPECT_EQ(store->restore_before(pos(20), working), pos(10));
  EXPECT_EQ(working.digest(), state_with({{0, 1}, {63, 9}}).digest());
  // A state of another size is no working state of this store's object.
  PodState<std::array<std::uint8_t, 128>> other;
  EXPECT_THROW(store->restore_before(pos(20), other), ContractViolation);
  EXPECT_THROW(store->save(pos(30), other), ContractViolation);
}

TEST_P(CheckpointStoreContract, FossilKeepsRestoreFloor) {
  auto store = make();
  for (std::uint64_t t = 10; t <= 90; t += 10) {
    store->save(pos(t), state_with({{0, static_cast<int>(t)}}));
  }
  const Position keeper = store->fossil_collect(VirtualTime{55});
  EXPECT_EQ(keeper, pos(50));
  // Everything at/after the keeper must still be restorable.
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(pos(75), into), pos(70));
  EXPECT_EQ(byte_at(into, 0), 70);
}

TEST_P(CheckpointStoreContract, FossilWithNothingCollectable) {
  auto store = make();
  store->save(pos(10), state_with({{0, 1}}));
  store->save(pos(20), state_with({{0, 2}}));
  EXPECT_EQ(store->fossil_collect(VirtualTime{5}), pos(10));
  EXPECT_EQ(store->entries(), 2u);
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(pos(15), into), pos(10));
  EXPECT_EQ(byte_at(into, 0), 1);
}

TEST_P(CheckpointStoreContract, FossilAtInfinityKeepsOnlyLatest) {
  // Every save a full image, so the latest needs nothing older.
  auto store = make(/*full_snapshot_interval=*/1);
  store->save(Position::before_all(), state_with({}));
  store->save(pos(10), state_with({{0, 1}}));
  store->save(pos(20), state_with({{0, 2}}));
  EXPECT_EQ(store->fossil_collect(VirtualTime::infinity()), pos(20));
  EXPECT_EQ(store->entries(), 1u);
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(Position::after_all(), into), pos(20));
  EXPECT_EQ(byte_at(into, 0), 2);
}

TEST_P(CheckpointStoreContract, EntriesAndBytesCountLiveCheckpoints) {
  // Every save a full image: each live checkpoint holds one state's bytes.
  auto store = make(/*full_snapshot_interval=*/1);
  const auto expect_live = [&](std::size_t live) {
    EXPECT_EQ(store->entries(), live);
    EXPECT_EQ(store->stored_bytes(), live * sizeof(Blob));
  };
  expect_live(0);
  for (std::uint64_t t = 1; t <= 10; ++t) {
    store->save(pos(t), state_with({{0, static_cast<int>(t)}}));
  }
  expect_live(10);
  PodState<Blob> into;
  store->restore_before(pos(8), into);  // drops 8, 9, 10
  expect_live(7);
  store->fossil_collect(VirtualTime{4});  // keeps 3 and later
  expect_live(5);
  store->save(pos(11), state_with({}));
  expect_live(6);
}

TEST_P(CheckpointStoreContract, RingWrapsAfterFossilCollection) {
  // Fossil collection moves the oldest checkpoint off the front, so later
  // saves wrap around into the freed room and growth has to unwrap a ring
  // whose oldest entry is not at the front.
  auto store = make();
  const auto edit = [](std::uint64_t t) {
    return state_with({{static_cast<int>(t % 64), static_cast<int>(t)},
                       {0, static_cast<int>(t)}});
  };
  for (std::uint64_t t = 1; t <= 4; ++t) {
    store->save(pos(t * 10), edit(t));
  }
  EXPECT_EQ(store->fossil_collect(VirtualTime{35}), pos(30));
  for (std::uint64_t t = 5; t <= 12; ++t) {
    store->save(pos(t * 10), edit(t));
  }
  // Restore walks back through the wrapped entries to each one in turn.
  for (std::uint64_t t = 12; t >= 3; --t) {
    PodState<Blob> into;
    EXPECT_EQ(store->restore_before(pos(t * 10 + 1), into), pos(t * 10));
    EXPECT_EQ(into.digest(), edit(t).digest()) << "checkpoint " << t;
  }
  // Saves resume after a truncating restore, in the same ring.
  store->save(pos(31), edit(13));
  PodState<Blob> into;
  EXPECT_EQ(store->restore_before(pos(32), into), pos(31));
  EXPECT_EQ(into.digest(), edit(13).digest());
}

TEST_P(CheckpointStoreContract, LongEditSequenceRoundTrips) {
  auto store = make();
  PodState<Blob> current;
  for (std::uint64_t t = 1; t <= 40; ++t) {
    current.value().bytes[t % 64] = static_cast<std::uint8_t>(t);
    current.value().bytes[(3 * t) % 64] = static_cast<std::uint8_t>(t + 1);
    store->save(pos(t), current);
  }
  for (std::uint64_t target : {5u, 17u, 33u, 40u}) {
    PodState<Blob> replay;
    for (std::uint64_t t = 1; t <= target; ++t) {
      replay.value().bytes[t % 64] = static_cast<std::uint8_t>(t);
      replay.value().bytes[(3 * t) % 64] = static_cast<std::uint8_t>(t + 1);
    }
    // A rollback rewinds `current` itself; then the tail is rebuilt so the
    // next iteration sees the full history again.
    EXPECT_EQ(store->restore_before(pos(target + 1), current), pos(target));
    EXPECT_EQ(current.digest(), replay.digest()) << "target " << target;
    for (std::uint64_t t = target + 1; t <= 40; ++t) {
      current.value().bytes[t % 64] = static_cast<std::uint8_t>(t);
      current.value().bytes[(3 * t) % 64] = static_cast<std::uint8_t>(t + 1);
      store->save(pos(t), current);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckpointStoreContract,
                         ::testing::Values(StateSaving::Copy,
                                           StateSaving::Incremental),
                         [](const auto& info) {
                           return info.param == StateSaving::Copy
                                      ? std::string("Copy")
                                      : std::string("Incremental");
                         });

TEST(IncrementalStore, DeltaSavesAreCheapForSparseEdits) {
  IncrementalCheckpointStore store(/*full_snapshot_interval=*/16);
  PodState<Blob> current;
  const SaveReceipt full = store.save(pos(1), current);
  EXPECT_EQ(full.stored_bytes, sizeof(Blob));
  EXPECT_EQ(full.scanned_bytes, 0u);

  current.value().bytes[7] = 1;  // one byte changed
  const SaveReceipt delta = store.save(pos(2), current);
  EXPECT_EQ(delta.scanned_bytes, sizeof(Blob));
  EXPECT_LT(delta.stored_bytes, sizeof(Blob) / 4);
}

TEST(IncrementalStore, FullSnapshotCadence) {
  IncrementalCheckpointStore store(/*full_snapshot_interval=*/3);
  PodState<Blob> current;
  std::uint64_t full_saves = 0;
  for (std::uint64_t t = 1; t <= 9; ++t) {
    current.value().bytes[0] = static_cast<std::uint8_t>(t);
    full_saves += store.save(pos(t), current).scanned_bytes == 0;
  }
  EXPECT_EQ(full_saves, 3u);  // t = 1, 4, 7
}

TEST(IncrementalStore, KernelEquivalenceUnderIncrementalSaving) {
  // End-to-end: a rollback-heavy run with incremental checkpoints must
  // commit exactly the sequential results.
  apps::phold::PholdConfig app;
  app.num_objects = 12;
  app.num_lps = 4;
  app.population_per_object = 3;
  app.remote_probability = 0.6;
  app.seed = 61;
  const Model model = apps::phold::build_model(app);
  const VirtualTime end{4'000};
  const SequentialResult seq = run_sequential(model, end);

  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = end;
  kc.batch_size = 32;
  kc.gvt_period_events = 64;
  kc.checkpoint.state_saving = StateSaving::Incremental;
  kc.checkpoint.interval = 3;
  kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
  platform::SimulatedNowConfig now;
  now.costs = platform::CostModel::free();
  now.costs.wire_latency_ns = 15'000;

  const RunResult r = run(model, kc, {.simulated_now = now});
  EXPECT_GT(r.stats.total_rollbacks(), 0u);
  EXPECT_EQ(r.digests, seq.digests);
  EXPECT_EQ(r.stats.total_committed(), seq.events_processed);
}

}  // namespace
}  // namespace otw::tw
