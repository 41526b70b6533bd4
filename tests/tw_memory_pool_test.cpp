// Pooled allocation (tw/memory_pool.hpp): slab recycling, the allocator
// adapter, the checkpoint arena and the cross-thread batch-buffer pool. The
// load-bearing property throughout is NO ALIASING: a recycled block must
// never be handed out while the previous owner still holds it.
#include "otw/tw/memory_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "otw/apps/phold.hpp"
#include "otw/tw/kernel.hpp"
#include "otw/tw/pending_set.hpp"
#include "otw/util/buffer_pool.hpp"

namespace otw::tw {
namespace {

TEST(SlabPool, RecyclesFreedBlocksThroughTheFreelist) {
  SlabPool pool;
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().freelist_hits, 0u);
  EXPECT_EQ(pool.stats().live_blocks, 2u);

  pool.deallocate(a, 64);
  EXPECT_EQ(pool.stats().live_blocks, 1u);
  void* c = pool.allocate(64);
  EXPECT_EQ(c, a) << "freed block must be recycled before the slab grows";
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
  EXPECT_EQ(pool.stats().peak_live_blocks, 2u);
  pool.deallocate(b, 64);
  pool.deallocate(c, 64);
}

TEST(SlabPool, RoundsUpToPowerOfTwoClasses) {
  SlabPool pool;
  // 65 bytes lands in the 128 class: freeing it must satisfy a 128 request.
  void* a = pool.allocate(65);
  pool.deallocate(a, 65);
  void* b = pool.allocate(128);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
  pool.deallocate(b, 128);

  // Sub-minimum sizes share the smallest class.
  void* c = pool.allocate(1);
  pool.deallocate(c, 1);
  void* d = pool.allocate(64);
  EXPECT_EQ(d, c);
  pool.deallocate(d, 64);
}

TEST(SlabPool, OversizeBlocksBypassTheSlabs) {
  SlabPool pool;
  const std::uint64_t slab_bytes_before = pool.stats().slab_bytes;
  void* big = pool.allocate(SlabPool::kMaxBlock + 1);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().slab_bytes, slab_bytes_before);
  EXPECT_EQ(pool.stats().live_blocks, 1u);
  pool.deallocate(big, SlabPool::kMaxBlock + 1);
  EXPECT_EQ(pool.stats().live_blocks, 0u);
}

TEST(SlabPool, SlabFootprintNeverShrinks) {
  SlabPool pool;
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) {
    blocks.push_back(pool.allocate(256));
  }
  const std::uint64_t high_water = pool.stats().slab_bytes;
  EXPECT_GT(high_water, 0u);
  for (void* p : blocks) {
    pool.deallocate(p, 256);
  }
  EXPECT_EQ(pool.stats().slab_bytes, high_water);
  EXPECT_EQ(pool.stats().live_blocks, 0u);
  EXPECT_EQ(pool.stats().peak_live_blocks, 1000u);
}

TEST(PoolAllocator, BacksANodeContainerAndRecyclesNodes) {
  SlabPool pool;
  {
    std::multiset<int, std::less<>, PoolAllocator<int>> set{
        std::less<>{}, PoolAllocator<int>(&pool)};
    for (int i = 0; i < 100; ++i) {
      set.insert(i);
    }
    const std::uint64_t after_insert = pool.stats().allocations;
    EXPECT_GE(after_insert, 100u);
    set.erase(set.begin(), set.find(50));
    for (int i = 100; i < 150; ++i) {
      set.insert(i);
    }
    EXPECT_GE(pool.stats().freelist_hits, 50u)
        << "erased nodes must feed later insertions";
    EXPECT_EQ(set.size(), 100u);
  }
  EXPECT_EQ(pool.stats().live_blocks, 0u) << "container leaked pool blocks";
}

TEST(PoolAllocator, NullPoolFallsBackToHeap) {
  std::multiset<int, std::less<>, PoolAllocator<int>> set;
  for (int i = 0; i < 10; ++i) {
    set.insert(i);
  }
  EXPECT_EQ(set.size(), 10u);
}

struct Blob {
  std::array<std::uint8_t, 32> bytes{};
};

TEST(StateArenaPool, RecyclesReleasedStatesByAssignment) {
  StateArena arena(4);
  PodState<Blob> src;
  src.value().bytes[0] = 42;

  std::unique_ptr<ObjectState> first = arena.acquire_copy(src);
  EXPECT_EQ(arena.cloned(), 1u);
  ObjectState* first_ptr = first.get();
  arena.release(std::move(first));
  EXPECT_EQ(arena.parked(), 1u);

  src.value().bytes[0] = 7;
  std::unique_ptr<ObjectState> second = arena.acquire_copy(src);
  EXPECT_EQ(second.get(), first_ptr) << "parked state must be re-filled";
  EXPECT_EQ(arena.recycled(), 1u);
  EXPECT_EQ(second->digest(), src.digest());
}

TEST(StateArenaPool, CapacityBoundsParkedStates) {
  StateArena arena(2);
  PodState<Blob> src;
  arena.release(src.clone());
  arena.release(src.clone());
  arena.release(src.clone());  // beyond capacity: destroyed, not parked
  EXPECT_EQ(arena.parked(), 2u);
}

TEST(StateArenaPool, SizeMismatchFallsBackToClone) {
  StateArena arena(4);
  PodState<Blob> small;
  arena.release(small.clone());
  PodState<std::array<std::uint8_t, 128>> big;
  std::unique_ptr<ObjectState> copy = arena.acquire_copy(big);
  EXPECT_EQ(copy->byte_size(), big.byte_size());
  EXPECT_EQ(arena.cloned(), 1u);
  EXPECT_EQ(arena.recycled(), 0u);
}

TEST(BufferPoolTest, RoundTripsBuffersAcrossThreads) {
  util::BufferPool<int> pool;
  std::vector<int> buf = pool.acquire();
  EXPECT_TRUE(buf.empty());
  buf.assign({1, 2, 3});
  const std::size_t cap = buf.capacity();

  std::thread other([&pool, b = std::move(buf)]() mutable {
    pool.release(std::move(b));
  });
  other.join();

  std::vector<int> again = pool.acquire();
  EXPECT_TRUE(again.empty()) << "recycled buffers must come back cleared";
  EXPECT_GE(again.capacity(), cap);
  EXPECT_EQ(pool.reuses(), 1u);
}

// The rollback/fossil no-aliasing test: a pooled input queue goes through the
// full lifecycle — inserts, processing, a straggler-induced rewind,
// annihilation, fossil collection — and every surviving event must keep its
// exact contents while freed nodes are recycled into new insertions.
TEST(InputQueuePool, RecycledNodesNeverAliasLiveEventsAcrossRollback) {
  SlabPool pool;
  const std::unique_ptr<PendingEventSet> set =
      make_pending_set(QueueKind::Multiset, &pool);
  PendingEventSet& q = *set;

  auto make = [](std::uint64_t recv, std::uint64_t seq, std::uint64_t inst) {
    Event e;
    e.recv_time = VirtualTime{recv};
    e.sender = 1;
    e.receiver = 0;
    e.seq = seq;
    e.instance = inst;
    e.payload = Payload::from(recv * 1000 + seq);
    return e;
  };
  auto payload_of = [](const Event& e) {
    return e.recv_time.ticks() * 1000 + e.seq;
  };

  for (std::uint64_t t = 10; t <= 100; t += 10) {
    EXPECT_FALSE(q.insert(make(t, t, t)));
  }
  for (int i = 0; i < 10; ++i) {
    q.advance();
  }

  // Straggler at 35 (everything is processed, so insert reports it), then
  // the rollback rewind, then annihilation of the now-unprocessed event at
  // 40 — the same order the runtime drives the queue in.
  EXPECT_TRUE(q.insert(make(35, 1, 200)));
  const Position restore{EventKey{VirtualTime{30}, 1, 30}, 30};
  q.rewind_to_after(restore);
  q.erase_match(make(40, 40, 40));

  // Fossil collect history before 30 — frees 2 nodes (10, 20) into the pool.
  const std::size_t dropped =
      q.fossil_collect_before(Position{EventKey{VirtualTime{30}, 1, 30}, 30});
  EXPECT_EQ(dropped, 2u);
  const std::uint64_t hits_before = pool.stats().freelist_hits;

  // New insertions must reuse the freed nodes...
  EXPECT_FALSE(q.insert(make(110, 110, 110)));
  EXPECT_FALSE(q.insert(make(120, 120, 120)));
  EXPECT_GE(pool.stats().freelist_hits, hits_before + 2);

  // ...and every live event must still carry its own payload (recycling must
  // not have scribbled over a node still owned by the queue).
  std::vector<std::uint64_t> seen;
  while (const Event* e = q.peek_next()) {
    EXPECT_EQ(Payload::from(payload_of(*e)), e->payload)
        << "event at " << e->recv_time << " was corrupted";
    seen.push_back(e->recv_time.ticks());
    q.advance();
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{
                      35, 50, 60, 70, 80, 90, 100, 110, 120}));
  EXPECT_EQ(pool.stats().live_blocks, q.size());
}

// Every selectable queue kind must survive the same lifecycle with zero
// aliasing. The node economy differs by kind — the multiset holds one pool
// node per live event, the skip list pools only the unprocessed suffix (the
// processed run lives in a deque), the ladder stores events in vectors — so
// the pool-accounting assertions are gated per kind while the payload
// integrity and drain order checks are universal.
class InputQueuePoolLifecycle : public ::testing::TestWithParam<QueueKind> {};

TEST_P(InputQueuePoolLifecycle, RecycleKeepsEveryLiveEventIntact) {
  const QueueKind kind = GetParam();
  SlabPool pool;
  const std::unique_ptr<PendingEventSet> set = make_pending_set(kind, &pool);
  PendingEventSet& q = *set;

  auto make = [](std::uint64_t recv, std::uint64_t seq, std::uint64_t inst) {
    Event e;
    e.recv_time = VirtualTime{recv};
    e.sender = 1;
    e.receiver = 0;
    e.seq = seq;
    e.instance = inst;
    e.payload = Payload::from(recv * 1000 + seq);
    return e;
  };
  auto payload_of = [](const Event& e) {
    return e.recv_time.ticks() * 1000 + e.seq;
  };

  for (std::uint64_t t = 10; t <= 100; t += 10) {
    EXPECT_FALSE(q.insert(make(t, t, t)));
  }
  for (int i = 0; i < 10; ++i) {
    q.advance();
  }

  EXPECT_TRUE(q.insert(make(35, 1, 200)));
  const Position restore{EventKey{VirtualTime{30}, 1, 30}, 30};
  q.rewind_to_after(restore);
  q.erase_match(make(40, 40, 40));
  EXPECT_EQ(
      q.fossil_collect_before(Position{EventKey{VirtualTime{30}, 1, 30}, 30}),
      2u);
  const std::uint64_t hits_before = pool.stats().freelist_hits;

  EXPECT_FALSE(q.insert(make(110, 110, 110)));
  EXPECT_FALSE(q.insert(make(120, 120, 120)));
  if (kind == QueueKind::Multiset) {
    // One pool node per event: the two nodes fossil collection freed must
    // feed the two new insertions.
    EXPECT_GE(pool.stats().freelist_hits, hits_before + 2);
  }
  if (kind == QueueKind::SkipList) {
    // advance()/fossil freed a pile of towers; new nodes must recycle them.
    EXPECT_GE(pool.stats().freelist_hits, hits_before + 1);
  }

  std::vector<std::uint64_t> seen;
  while (const Event* e = q.peek_next()) {
    EXPECT_EQ(Payload::from(payload_of(*e)), e->payload)
        << "event at " << e->recv_time << " was corrupted";
    seen.push_back(e->recv_time.ticks());
    q.advance();
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{
                      35, 50, 60, 70, 80, 90, 100, 110, 120}));
  if (kind == QueueKind::Multiset) {
    EXPECT_EQ(pool.stats().live_blocks, q.size());
  }
  if (kind == QueueKind::SkipList) {
    // Everything is processed (deque-held); no pool node may remain live.
    EXPECT_EQ(pool.stats().live_blocks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, InputQueuePoolLifecycle,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& info) {
                           return std::string(to_string(info.param));
                         });

// MemoryStats accounting is logical (live events x sizeof(Event), snapshots,
// deltas), not allocator-physical — so on the same seed every queue kind
// must report identical footprints. pool_slab_bytes is deliberately outside
// total(): the slab reservation depends on node shapes and is the one
// number allowed to differ between kinds.
TEST(InputQueuePool, MemoryAccountingIsIdenticalAcrossQueueKinds) {
  apps::phold::PholdConfig app;
  app.num_objects = 8;
  app.num_lps = 4;
  app.population_per_object = 2;
  app.remote_probability = 0.6;
  app.mean_delay = 50;
  app.seed = 41;
  const Model model = apps::phold::build_model(app);

  KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = VirtualTime{3'000};
  kc.gvt_period_events = 64;
  kc.checkpoint.interval = 4;

  std::optional<RunResult> reference;
  for (const QueueKind kind : kAllQueueKinds) {
    SCOPED_TRACE(to_string(kind));
    kc.engine.queue = kind;
    const RunResult r = run(model, kc);
    ASSERT_GT(r.stats.total_committed(), 0u);
    if (!reference.has_value()) {
      reference = r;
      continue;
    }
    EXPECT_EQ(r.digests, reference->digests);
    const MemoryStats got = r.stats.memory_totals();
    const MemoryStats want = reference->stats.memory_totals();
    EXPECT_EQ(got.input_queue_bytes, want.input_queue_bytes);
    EXPECT_EQ(got.output_queue_bytes, want.output_queue_bytes);
    EXPECT_EQ(got.state_bytes, want.state_bytes);
    EXPECT_EQ(got.live_events, want.live_events);
    EXPECT_EQ(got.checkpoints, want.checkpoints);
    EXPECT_EQ(got.total(), want.total());
    EXPECT_EQ(r.stats.memory_peak_bytes(),
              reference->stats.memory_peak_bytes());
  }
}

}  // namespace
}  // namespace otw::tw
