// Hotspot demo: the on-line load-balance controller migrating LPs at run
// time (DESIGN.md section 8b).
//
//   $ ./build/examples/phold_hotspot [horizon_ticks]
//
// The model is PHOLD with a deliberately skewed placement: even LPs own
// three times the objects of odd LPs, and the round-robin partition puts
// all the heavy LPs on shard 0 — the kind of imbalance a static partition
// cannot see and a model phase change can create at any moment. The demo
// runs the 2-shard mesh twice: once with migration disabled (the skew
// persists for the whole run) and once with the adaptive <O,I,S,T,P>
// load-balance controller armed, which observes per-shard work through the
// live plane's STATS stream and migrates the hottest LP off the hot shard
// until the imbalance ratio falls inside the dead zone.
//
// Both runs must commit digests bit-identical to the sequential kernel —
// migration is a placement change, never a result change. The settling is
// visible in the migration count itself: the controller fires once (moving
// one heavy LP evens the shards to roughly 18:14 objects, inside the dead
// zone) and then holds for the rest of the run instead of hunting. The
// post-run obs::analyze() report prints the per-GVT-epoch commit
// efficiency trajectory for both runs for a closer look at where the
// rollback work went.
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "otw/apps/phold.hpp"
#include "otw/obs/analysis.hpp"
#include "otw/tw/kernel.hpp"

namespace {

/// Skewed placement: even LPs get 6 objects each, odd LPs get 2 (8 LPs,
/// 32 objects). Round-robin over 2 shards then gives shard 0 (even LPs)
/// 24 objects and shard 1 (odd LPs) 8 — a 3:1 hotspot.
otw::tw::LpId hotspot_lp(std::uint32_t object) {
  if (object < 24) {
    return static_cast<otw::tw::LpId>(2 * (object % 4));  // LPs 0,2,4,6
  }
  return static_cast<otw::tw::LpId>(2 * ((object - 24) % 4) + 1);  // 1,3,5,7
}

struct Outcome {
  otw::tw::RunResult result;
  otw::obs::AnalysisReport analysis;
};

Outcome run_once(const otw::tw::Model& model, otw::tw::KernelConfig kc,
                 bool migrate) {
  using namespace otw;
  kc.migration.enabled = migrate;
  Outcome o;
  o.result = tw::run(model, kc);
  o.analysis = obs::analyze(o.result.trace);
  return o;
}

void print_outcome(const char* label, const Outcome& o) {
  using namespace otw;
  std::printf("\n%s: %.0f committed ev/s, %llu rollbacks, %llu migrations, "
              "overall efficiency %.3f\n",
              label, o.result.committed_events_per_sec(),
              static_cast<unsigned long long>(o.result.stats.total_rollbacks()),
              static_cast<unsigned long long>(o.result.dist.migrations),
              o.analysis.overall_efficiency);
  std::printf("  epoch efficiency (committed/(committed+rolled_back)) over "
              "the run:\n  ");
  for (const obs::EpochStats& e : o.analysis.epochs) {
    if (e.committed + e.rolled_back == 0) {
      continue;
    }
    std::printf(" %.2f", e.efficiency());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace otw;

  const std::uint64_t horizon =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 60'000;

  apps::phold::PholdConfig app;
  app.num_objects = 32;
  app.num_lps = 8;
  app.population_per_object = 2;
  app.remote_probability = 0.5;
  app.mean_delay = 100;
  app.event_grain_ns = 2'000;
  app.seed = 11;
  tw::Model model = apps::phold::build_model(app);
  model.edges.clear();  // the point is a placement the partitioner can't fix
  for (std::uint32_t i = 0; i < model.objects.size(); ++i) {
    model.objects[i].lp = hotspot_lp(i);
  }

  tw::KernelConfig kc;
  kc.num_lps = app.num_lps;
  kc.end_time = tw::VirtualTime{horizon};
  kc.batch_size = 8;
  kc.gvt_period_events = 64;
  kc.engine.kind = tw::EngineKind::Distributed;
  kc.engine.num_shards = 2;
  kc.engine.partition = tw::PartitionKind::RoundRobin;  // the naive layout
  kc.observability.tracing = true;      // feeds obs::analyze
  kc.observability.live.enabled = true; // STATS stream = controller's O
  kc.observability.live.stats_period_ms = 5;
  kc.migration.period_ms = 20;
  kc.migration.control.imbalance_threshold = 1.75;
  kc.migration.control.min_window_events = 512;
  kc.migration.control.cooldown_periods = 4;

  std::printf("phold_hotspot: 32 objects on 8 LPs, even LPs 3x heavy; "
              "2-shard mesh, horizon %llu ticks\n",
              static_cast<unsigned long long>(horizon));

  try {
    const tw::SequentialResult seq = tw::run_sequential(model, kc.end_time);
    const Outcome skewed = run_once(model, kc, /*migrate=*/false);
    const Outcome balanced = run_once(model, kc, /*migrate=*/true);
    print_outcome("migration off (skew persists)", skewed);
    print_outcome("migration on  (adaptive)", balanced);

    bool ok = true;
    for (const Outcome* o : {&skewed, &balanced}) {
      if (o->result.digests != seq.digests) {
        std::fprintf(stderr, "FATAL: digests diverged from sequential\n");
        ok = false;
      }
    }
    if (balanced.result.dist.migrations == 0) {
      std::fprintf(stderr,
                   "note: no migration fired this run — the controller needs "
                   "enough wall time per control period; retry with a larger "
                   "horizon (e.g. %llu)\n",
                   static_cast<unsigned long long>(horizon * 4));
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phold_hotspot: %s\n", e.what());
    return 2;
  }
}
