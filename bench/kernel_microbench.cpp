// Wall-clock micro-benchmarks of the kernel hot paths (google-benchmark).
// These measure the HOST cost of the library itself — event routing, queue
// surgery, rollback, state saving — as opposed to the modeled testbed times
// reported by the figure benches.
#include <benchmark/benchmark.h>

#include <vector>

#include "otw/apps/phold.hpp"
#include "otw/tw/kernel.hpp"
#include "otw/tw/pending_set.hpp"
#include "otw/util/rng.hpp"

namespace {

using namespace otw;

void BM_RngNextBelow(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1'000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_DeriveSendSeq(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tw::derive_send_seq(tw::VirtualTime{i++}, 3, 7, 11, 2));
  }
}
BENCHMARK(BM_DeriveSendSeq);

tw::Event make_event(std::uint64_t t, std::uint64_t n) {
  tw::Event e;
  e.recv_time = tw::VirtualTime{t};
  e.sender = 1;
  e.receiver = 0;
  e.seq = n;
  e.instance = n;
  return e;
}

void BM_InputQueueInsertAdvance(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto q = tw::make_pending_set(tw::QueueKind::Multiset);
    util::Xoshiro256 rng(7);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < depth; ++i) {
      q->insert(make_event(rng.next_below(1'000'000), n++));
    }
    while (q->peek_next() != nullptr) {
      benchmark::DoNotOptimize(q->advance());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_InputQueueInsertAdvance)->Arg(64)->Arg(1'024)->Arg(16'384);

// Per-QueueKind hot-path benches on the raw PendingEventSet (range(0) is the
// QueueKind index, range(1) the queue depth). The same three operations the
// kernel leans on: insert, pop-min (advance) and delete-by-match
// (annihilation of an unprocessed event).

void BM_PendingSetInsertAdvance(benchmark::State& state) {
  const auto kind = tw::kAllQueueKinds[static_cast<std::size_t>(state.range(0))];
  const auto depth = static_cast<std::uint64_t>(state.range(1));
  tw::SlabPool pool;
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto set = tw::make_pending_set(kind, &pool);
    util::Xoshiro256 rng(7);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < depth; ++i) {
      set->insert(make_event(rng.next_below(1'000'000), n++));
    }
    while (set->peek_next() != nullptr) {
      benchmark::DoNotOptimize(set->advance());
    }
  }
  state.SetLabel(tw::to_string(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_PendingSetInsertAdvance)
    ->ArgsProduct({{0, 1, 2}, {64, 1'024, 16'384}});

void BM_PendingSetAnnihilate(benchmark::State& state) {
  const auto kind = tw::kAllQueueKinds[static_cast<std::size_t>(state.range(0))];
  const auto depth = static_cast<std::uint64_t>(state.range(1));
  tw::SlabPool pool;
  util::Xoshiro256 rng(9);
  std::vector<tw::Event> events;
  for (std::uint64_t i = 0; i < depth; ++i) {
    events.push_back(make_event(rng.next_below(1'000'000), i));
  }
  auto set = tw::make_pending_set(kind, &pool);
  for (const tw::Event& e : events) {
    set->insert(e);
  }
  // Steady state: each iteration annihilates one unprocessed event and
  // reinserts it, so the queue depth never drifts.
  std::uint64_t i = 0;
  for (auto _ : state) {
    const tw::Event& victim = events[i++ % depth];
    set->erase_match(victim.make_anti());
    set->insert(victim);
  }
  state.SetLabel(tw::to_string(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PendingSetAnnihilate)->ArgsProduct({{0, 1, 2}, {1'024, 16'384}});

void BM_StateSaveRestore(benchmark::State& state) {
  struct Big {
    std::uint64_t words[128];
  };
  tw::PodState<Big> current;
  for (auto _ : state) {
    auto clone = current.clone();
    benchmark::DoNotOptimize(clone->digest());
  }
}
BENCHMARK(BM_StateSaveRestore);

/// Host throughput of the whole Time Warp stack on the simulated platform:
/// how many committed events per wall second the library executes.
void BM_PholdEndToEnd(benchmark::State& state) {
  apps::phold::PholdConfig app;
  app.num_objects = 16;
  app.num_lps = 4;
  app.population_per_object = 4;
  app.event_grain_ns = 1'000;
  const tw::Model model = apps::phold::build_model(app);
  tw::KernelConfig kc;
  kc.num_lps = 4;
  kc.end_time = tw::VirtualTime{200'000};
  platform::SimulatedNowConfig now;  // default costs
  std::uint64_t committed = 0;
  for (auto _ : state) {
    const tw::RunResult r = tw::run(model, kc, {.simulated_now = now});
    committed = r.stats.total_committed();
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(committed));
  state.counters["committed_events"] = static_cast<double>(committed);
}
BENCHMARK(BM_PholdEndToEnd)->Unit(benchmark::kMillisecond);

void BM_SequentialEndToEnd(benchmark::State& state) {
  apps::phold::PholdConfig app;
  app.num_objects = 16;
  app.num_lps = 4;
  app.population_per_object = 4;
  app.event_grain_ns = 1'000;
  const tw::Model model = apps::phold::build_model(app);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const tw::SequentialResult r =
        tw::run_sequential(model, tw::VirtualTime{200'000});
    events = r.events_processed;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SequentialEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
