// otw_ledger: the repo benchmark, one workload per invocation.
//
//   otw_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--size full|tiny] [--commit <id>] [--spans-dir <dir>]
//
// Closed loop: one simulation at a time, fixed problem size. With --trace 0
// the benchmark repeats {build model, tw::run, tw::run_sequential} until
// --seconds have passed and reports the end-to-end metrics as medians over
// the iterations (peak memory as their minimum). With --trace 1 it
// alternates untraced and traced tw::run calls (observability.profiling plus
// live histograms, process_event timing and spans on) and reports the
// per-layer metrics of the median traced run, followed by the layer
// micro-probes. Every run's digests and committed count are compared with
// the sequential kernel; a mismatch or an exception is a failed operation. The last stdout line is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "layer_probes.hpp"
#include "otw/apps/phold.hpp"
#include "otw/apps/raid.hpp"
#include "otw/obs/hist.hpp"
#include "otw/obs/phase_profiler.hpp"
#include "probe.hpp"

#ifndef OTW_LEDGER_BUILD_TYPE
#define OTW_LEDGER_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define OTW_LEDGER_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define OTW_LEDGER_COMPILER "gcc " __VERSION__
#else
#define OTW_LEDGER_COMPILER "unknown"
#endif

namespace {

namespace tw = otw::tw;
namespace hist = otw::obs::hist;
using perfbench::mono_ns;
using perfbench::ScopedSpan;
using perfbench::SpanName;

// --- workloads ---------------------------------------------------------

struct Workload {
  std::string name;
  std::function<tw::Model(std::uint64_t seed)> build;
  tw::KernelConfig kc;
  tw::EngineTuning tuning;
  /// Workers or shard processes executing events (1 on SimulatedNow).
  std::uint32_t parallelism = 1;
};

/// Spreads small benchmark seeds over the model's seed space.
std::uint64_t model_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

tw::KernelConfig phold_kernel(tw::LpId lps, std::uint64_t end) {
  tw::KernelConfig kc;
  kc.num_lps = lps;
  kc.end_time = tw::VirtualTime{end};
  kc.aggregation.policy = otw::comm::AggregationPolicy::None;
  return kc;
}

std::optional<Workload> make_workload(const std::string& name, bool tiny) {
  namespace phold = otw::apps::phold;
  Workload w;
  w.name = name;
  if (name == "phold-1w" || name == "phold-4w") {
    phold::PholdConfig app;
    app.num_objects = 256;
    app.num_lps = 8;
    app.population_per_object = 16;
    app.remote_probability = 0.25;
    app.event_grain_ns = 0;
    w.build = [app](std::uint64_t seed) {
      phold::PholdConfig c = app;
      c.seed = model_seed(seed);
      return phold::build_model(c);
    };
    w.parallelism = name == "phold-1w" ? 1 : 4;
    w.kc = phold_kernel(app.num_lps, tiny ? 2'000 : 18'000)
               .with_engine(tw::EngineKind::Threaded, w.parallelism);
    return w;
  }
  if (name == "phold-mesh2-dyma") {
    phold::PholdConfig app;
    app.num_objects = 64;
    app.num_lps = 8;
    app.population_per_object = 4;
    app.remote_probability = 0.25;
    app.event_grain_ns = 0;
    w.build = [app](std::uint64_t seed) {
      phold::PholdConfig c = app;
      c.seed = model_seed(seed);
      return phold::build_model(c);
    };
    w.parallelism = 2;
    w.kc = phold_kernel(app.num_lps, tiny ? 5'000 : 50'000)
               .with_engine(tw::EngineKind::Distributed, w.parallelism);
    w.kc.engine.topology = otw::platform::Topology::Mesh;
    w.kc.aggregation.policy = otw::comm::AggregationPolicy::Adaptive;
    w.kc.aggregation.window_us = 64.0;
    return w;
  }
  if (name == "raid-now") {
    namespace raid = otw::apps::raid;
    raid::RaidConfig app;
    app.requests_per_source = tiny ? 200 : 5'000;
    w.build = [app](std::uint64_t seed) {
      raid::RaidConfig c = app;
      c.seed = model_seed(seed);
      return raid::build_model(c);
    };
    // Full on-line configuration: dynamic check-pointing, dynamic
    // cancellation and SAAW aggregation calibrated as in the Fig. 9 bench.
    w.kc = otw::bench::base_kernel(app.num_lps);
    w.kc.checkpoint.dynamic = true;
    w.kc.runtime.cancellation = otw::core::CancellationControlConfig::dynamic(16, 0.45, 0.2);
    w.kc.aggregation.policy = otw::comm::AggregationPolicy::Adaptive;
    w.kc.aggregation.window_us = 100.0;
    w.kc.aggregation.saaw.benefit_per_message =
        static_cast<double>(otw::bench::now_testbed_costs().msg_send_overhead_ns) / 1000.0;
    w.kc.aggregation.saaw.age_penalty = 2.5e-4;
    w.kc.engine.kind = tw::EngineKind::SimulatedNow;
    w.tuning.simulated_now.costs = otw::bench::now_testbed_costs();
    return w;
  }
  return std::nullopt;
}

// --- small statistics ----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Quantile of a log2 histogram, interpolated linearly inside its bucket.
double quantile(const hist::Snapshot& s, double q) {
  if (s.count == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(s.count);
  double below = 0.0;
  for (std::size_t i = 0; i < hist::kNumBuckets; ++i) {
    const auto c = static_cast<double>(s.buckets[i]);
    if (c == 0.0) {
      continue;
    }
    if (below + c >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      return lo + (hi - lo) * (target - below) / c;
    }
    below += c;
  }
  return static_cast<double>(hist::bucket_upper_bound(hist::kNumBuckets - 1));
}

hist::Snapshot merged(const std::vector<hist::Entry>& entries, hist::Seam seam) {
  hist::Snapshot out;
  for (const hist::Entry& e : entries) {
    if (e.seam == seam) {
      out.merge(e.hist);
    }
  }
  return out;
}

// --- one engine run --------------------------------------------------------

struct EngineRun {
  tw::RunResult result;
  std::uint64_t start_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t first_event_ns = 0;
  double peak_rss_mb = 0.0;
  perfbench::ExecTotals exec;
};

EngineRun run_engine(const tw::Model& model, const tw::KernelConfig& kc,
                     const tw::EngineTuning& tuning, bool traced,
                     std::int32_t parent_span) {
  perfbench::SharedProbe& probe = perfbench::shared_probe();
  perfbench::reset_exec();
  probe.first_event_ns.store(0);
  ScopedSpan span(traced, SpanName::TwRun, parent_span);
  probe.span_parent.store(span.index());
  probe.mode.store(traced ? perfbench::kModeTime : 0);
  EngineRun run;
  run.start_ns = mono_ns();
  try {
    run.result = tw::run(model, kc, tuning);
  } catch (...) {
    probe.mode.store(0);
    throw;
  }
  run.wall_ns = mono_ns() - run.start_ns;
  probe.mode.store(0);
  run.first_event_ns = probe.first_event_ns.load();
  run.peak_rss_mb = perfbench::peak_rss_mb();
  run.exec = perfbench::exec_totals();
  return run;
}

/// Shortest wall time one seq_ev_per_s sample covers: small models repeat
/// the sequential run back to back, so a sample is never a few-ms blip.
constexpr std::uint64_t kMinSeqSampleNs = 300'000'000;

struct SeqRun {
  tw::SequentialResult result;  ///< the first repetition: the digest oracle
  double events_per_s = 0.0;
  bool repeatable = true;  ///< every repetition reproduced the oracle
};

SeqRun run_seq(const tw::Model& model, const tw::KernelConfig& kc,
               std::uint64_t min_ns) {
  SeqRun run;
  std::uint64_t events = 0;
  std::uint64_t busy_ns = 0;
  for (bool first = true; first || busy_ns < min_ns; first = false) {
    const std::uint64_t start = mono_ns();
    tw::SequentialResult r = tw::run_sequential(model, kc.end_time, kc.engine.queue);
    busy_ns += mono_ns() - start;
    events += r.events_processed;
    if (first) {
      run.result = std::move(r);
    } else if (r.digests != run.result.digests) {
      run.repeatable = false;
    }
  }
  run.events_per_s = static_cast<double>(events) / (static_cast<double>(busy_ns) / 1e9);
  return run;
}

/// The correctness gate: digests and committed count equal the sequential
/// kernel's. Returns an empty string on success.
std::string check(const tw::RunResult& r, const tw::SequentialResult& seq) {
  if (r.digests != seq.digests) {
    return "digests differ from the sequential kernel";
  }
  if (r.stats.total_committed() != seq.events_processed) {
    return "committed " + std::to_string(r.stats.total_committed()) +
           " events, sequential processed " + std::to_string(seq.events_processed);
  }
  return {};
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable summary lines
  bool complete = true;            ///< every metric was measured

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string spans_dir;
};

void note_samples(Outcome& out, const char* name, const std::vector<double>& v) {
  if (v.empty()) {
    return;
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char line[256];
  std::snprintf(line, sizeof line, "%-20s median=%.6g min=%.6g max=%.6g n=%zu", name,
                median(v), *lo, *hi, v.size());
  out.notes.emplace_back(line);
}

// --- trace 0: end-to-end metrics --------------------------------------------

constexpr int kMinIterations = 4;  // one warm-up plus three measured

Outcome run_untraced(const Workload& w, const Options& opt) {
  Outcome out;
  std::vector<double> committed_rate;
  std::vector<double> seq_rate;
  std::vector<double> setup;
  std::vector<double> rss;
  std::vector<double> modeled;
  std::optional<tw::SequentialResult> oracle;
  const bool modeled_engine = w.kc.engine.kind == tw::EngineKind::SimulatedNow;

  const std::uint64_t deadline =
      mono_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (int i = 0; i < kMinIterations || mono_ns() < deadline; ++i) {
    ++out.attempted;
    try {
      perfbench::reset_peak_rss();  // before t0: the reset is not set-up work
      const std::uint64_t t0 = mono_ns();
      const tw::Model model = perfbench::wrap_model(w.build(opt.seed));
      EngineRun run = run_engine(model, w.kc, w.tuning, false, -1);
      SeqRun seq = run_seq(model, w.kc, kMinSeqSampleNs);
      std::string problem = check(run.result, seq.result);
      if (!seq.repeatable) {
        problem = "the sequential kernel did not repeat its digests";
      }
      if (!problem.empty()) {
        out.fail(w.name + ": " + problem);
        continue;
      }
      if (modeled_engine) {
        const double m = run.result.execution_time_sec();
        if (!modeled.empty() && m != modeled.front()) {
          out.fail(w.name + ": modeled makespan drifted between identical runs");
          continue;
        }
        modeled.push_back(m);
      }
      if (!oracle) {
        const tw::ObjectStats ot = run.result.stats.object_totals();
        out.notes.push_back(
            "counts committed=" + std::to_string(run.result.stats.total_committed()) +
            " processed=" + std::to_string(ot.events_processed) +
            " rollbacks=" + std::to_string(ot.rollbacks) +
            " anti_messages=" + std::to_string(ot.anti_messages_sent));
      }
      oracle = std::move(seq.result);
      if (i == 0) {
        continue;  // warm-up: caches and the heap fill on the first run
      }
      const auto committed = static_cast<double>(run.result.stats.total_committed());
      committed_rate.push_back(committed / (static_cast<double>(run.wall_ns) / 1e9));
      seq_rate.push_back(seq.events_per_s);
      if (run.first_event_ns > t0) {
        setup.push_back(static_cast<double>(run.first_event_ns - t0) / 1e9);
      }
      rss.push_back(run.peak_rss_mb);
    } catch (const std::exception& e) {
      out.fail(w.name + ": " + e.what());
    }
  }

  // The paper's metric: modeled makespan on the SimulatedNow cost model. For
  // host-engine workloads it comes from one run of the same model and
  // kernel configuration on SimulatedNow (deterministic, so once suffices).
  if (!modeled_engine && oracle) {
    ++out.attempted;
    try {
      tw::KernelConfig kc = w.kc;
      kc.engine.kind = tw::EngineKind::SimulatedNow;
      tw::EngineTuning tuning;
      tuning.simulated_now.costs = otw::bench::now_testbed_costs();
      const tw::Model model = perfbench::wrap_model(w.build(opt.seed));
      const tw::RunResult twin = tw::run(model, kc, tuning);
      const std::string problem = check(twin, *oracle);
      if (problem.empty()) {
        modeled.push_back(twin.execution_time_sec());
      } else {
        out.fail(w.name + " (SimulatedNow): " + problem);
      }
    } catch (const std::exception& e) {
      out.fail(w.name + " (SimulatedNow): " + e.what());
    }
  }

  note_samples(out, "committed_ev_per_s", committed_rate);
  note_samples(out, "seq_ev_per_s", seq_rate);
  note_samples(out, "modeled_exec_s", modeled);
  note_samples(out, "peak_rss_mb", rss);
  note_samples(out, "setup_s", setup);
  out.add("committed_ev_per_s", median(committed_rate), "1/s");
  out.add("seq_ev_per_s", median(seq_rate), "1/s");
  out.add("modeled_exec_s", median(modeled), "s");
  // The smallest per-iteration peak, not the median: on phold-4w glibc's
  // per-thread arenas turn a rollback storm's extra history into a second
  // RSS mode about 12 MB higher, and the share of iterations in it follows
  // the host's load, so the median flips between the modes from run to run.
  // The storms themselves show in committed_ev_per_s and in the traced
  // run's timewarp.memory_peak_mb.
  out.add("peak_rss_mb", rss.empty() ? 0.0 : *std::min_element(rss.begin(), rss.end()),
          "MB");
  out.add("setup_s", median(setup), "s");
  out.complete = !committed_rate.empty() && !modeled.empty() && !setup.empty();
  return out;
}

// --- trace 1: per-layer metrics ------------------------------------------------

void add_layer_metrics(Outcome& out, const Workload& w, const tw::Model& model,
                       const EngineRun& traced, double untraced_wall_ns,
                       double traced_wall_ns, std::uint64_t seed) {
  const tw::RunResult& r = traced.result;
  const auto committed = static_cast<double>(r.stats.total_committed());
  const double kev = committed / 1000.0;
  const tw::ObjectStats ot = r.stats.object_totals();
  const tw::LpStats lt = r.stats.lp_totals();
  const auto num_objects = static_cast<double>(model.objects.size());
  std::uint64_t gvt_epochs = 0;
  for (const tw::LpStats& lp : r.stats.lps) {
    gvt_epochs = std::max(gvt_epochs, lp.gvt_epochs);
  }

  // timewarp: wasted work and history.
  out.add("timewarp.processed_per_committed",
          ratio(static_cast<double>(ot.events_processed), committed), "ratio");
  out.add("timewarp.rollbacks_per_kev", ratio(static_cast<double>(ot.rollbacks), kev),
          "1/kev");
  out.add("timewarp.rollback_length_mean",
          ratio(static_cast<double>(ot.events_rolled_back),
                static_cast<double>(ot.rollbacks)),
          "events");
  out.add("timewarp.coast_forward_per_kev",
          ratio(static_cast<double>(ot.coast_forward_events), kev), "1/kev");
  out.add("timewarp.anti_messages_per_kev",
          ratio(static_cast<double>(ot.anti_messages_sent), kev), "1/kev");
  out.add("timewarp.states_saved_per_kev",
          ratio(static_cast<double>(ot.states_saved), kev), "1/kev");
  out.add("timewarp.gvt_epochs", static_cast<double>(gvt_epochs), "count");
  out.add("timewarp.memory_peak_mb",
          static_cast<double>(r.stats.memory_peak_bytes()) / 1e6, "MB");

  // timewarp: phase profiler self time per committed event.
  otw::obs::PhaseTotals phases;
  for (const otw::obs::PhaseTotals& lp : r.lp_phases) {
    phases.merge(lp);
  }
  for (std::size_t i = 0; i < otw::obs::kPhaseCount; ++i) {
    const auto phase = static_cast<otw::obs::Phase>(i);
    out.add(std::string("timewarp.phase.") + otw::obs::to_string(phase) + "_ns_per_ev",
            ratio(static_cast<double>(phases.ns[i]), committed), "ns");
  }

  // apps and the kernel overhead around it. Overhead is worker time (the
  // untraced wall x executing workers or shards) per committed event not
  // spent in the model, so tracing's own cost stays out of it.
  const perfbench::ExecTotals& exec = traced.exec;
  const double execute_ns = ratio(static_cast<double>(exec.ns),
                                  static_cast<double>(exec.calls));
  const double worker_ns = untraced_wall_ns * static_cast<double>(w.parallelism);
  out.add("timewarp.overhead_ns_per_ev",
          ratio(worker_ns - static_cast<double>(exec.ns), committed), "ns");
  out.add("apps.execute_ns_per_ev", execute_ns, "ns");

  // Micro-probes, sized from what this run observed.
  const perfbench::CaptureStats& cap = perfbench::capture_stats();
  const double pending_per_object = cap.mean_pending() / num_objects;
  const double history_per_object =
      static_cast<double>(ot.events_processed) /
      static_cast<double>(std::max<std::uint64_t>(gvt_epochs, 1)) / num_objects;
  const auto population = static_cast<std::size_t>(
      std::clamp(std::llround(pending_per_object + history_per_object), 4LL, 65'536LL));
  const double mean_batch = ratio(static_cast<double>(lt.messages_aggregated),
                                  static_cast<double>(lt.aggregates_sent));
  const auto batch = static_cast<std::size_t>(std::max(1LL, std::llround(mean_batch)));
  {
    ScopedSpan span(true, SpanName::ProbePendingSet);
    for (const tw::QueueKind kind : tw::kAllQueueKinds) {
      const perfbench::PendingSetTiming t =
          perfbench::probe_pending_set(kind, population, model_seed(seed));
      const std::string prefix = std::string("timewarp.pending.") + tw::to_string(kind);
      out.add(prefix + ".insert_advance_ns", t.insert_advance_ns, "ns");
      out.add(prefix + ".annihilate_ns", t.annihilate_ns, "ns");
    }
  }
  {
    ScopedSpan span(true, SpanName::ProbeStateSave);
    out.add("timewarp.state.save_ns", perfbench::probe_state_save(model), "ns");
  }
  perfbench::CodecTiming codec;
  {
    ScopedSpan span(true, SpanName::ProbeCodec);
    codec = perfbench::probe_event_codec(cap.samples, batch);
  }
  char sizing[160];
  std::snprintf(sizing, sizeof sizing,
                "probe sizing         population=%zu batch=%zu sampled_events=%zu", population,
                batch, cap.samples.size());
  out.notes.emplace_back(sizing);

  // platform/threaded: the work-stealing scheduler.
  otw::platform::WorkerStats ws;
  for (const otw::platform::WorkerStats& worker : r.scheduler.workers) {
    ws.steals += worker.steals;
    ws.steal_fails += worker.steal_fails;
    ws.parks += worker.parks;
    ws.wakes += worker.wakes;
    ws.yields += worker.yields;
  }
  out.add("threaded.steals_per_kev", ratio(static_cast<double>(ws.steals), kev), "1/kev");
  out.add("threaded.steal_fails_per_kev", ratio(static_cast<double>(ws.steal_fails), kev),
          "1/kev");
  out.add("threaded.parks_per_kev", ratio(static_cast<double>(ws.parks), kev), "1/kev");
  out.add("threaded.wakes_per_kev", ratio(static_cast<double>(ws.wakes), kev), "1/kev");
  out.add("threaded.yields_per_kev", ratio(static_cast<double>(ws.yields), kev), "1/kev");
  out.add("threaded.mailbox_overflows",
          static_cast<double>(r.scheduler.mailbox_overflows), "count");
  const hist::Snapshot dwell = merged(r.hists, hist::Seam::MailboxDwell);
  const hist::Snapshot steal = merged(r.hists, hist::Seam::StealLatency);
  out.add("threaded.mailbox_dwell_p50_ns", quantile(dwell, 0.50), "ns");
  out.add("threaded.mailbox_dwell_p99_ns", quantile(dwell, 0.99), "ns");
  out.add("threaded.steal_latency_p50_ns", quantile(steal, 0.50), "ns");
  out.add("threaded.steal_latency_p99_ns", quantile(steal, 0.99), "ns");

  // platform/distributed + platform/wire.
  const otw::platform::DistStats& d = r.dist;
  out.add("wire.frames_per_kev", ratio(static_cast<double>(d.frames_sent), kev), "1/kev");
  out.add("wire.bytes_per_ev", ratio(static_cast<double>(d.bytes_sent), committed), "B/ev");
  out.add("wire.encode_ns_per_frame",
          ratio(static_cast<double>(d.serialize_ns), static_cast<double>(d.frames_sent)),
          "ns");
  out.add("wire.decode_ns_per_frame",
          ratio(static_cast<double>(d.deserialize_ns),
                static_cast<double>(d.frames_received)),
          "ns");
  const hist::Snapshot link = merged(r.hists, hist::Seam::LinkLatency);
  out.add("wire.link_latency_p50_ns", quantile(link, 0.50), "ns");
  out.add("wire.link_latency_p99_ns", quantile(link, 0.99), "ns");
  out.add("wire.event_encode_ns", codec.encode_ns, "ns");
  out.add("wire.event_decode_ns", codec.decode_ns, "ns");
  out.add("distributed.gvt_token_frames_per_kev",
          ratio(static_cast<double>(d.gvt_token_frames), kev), "1/kev");
  const hist::Snapshot gvt = merged(r.hists, hist::Seam::GvtRound);
  out.add("distributed.gvt_round_p50_ns", quantile(gvt, 0.50), "ns");
  out.add("distributed.gvt_round_p99_ns", quantile(gvt, 0.99), "ns");

  // comm: DyMA aggregation.
  out.add("comm.mean_batch_events", mean_batch, "events");
  out.add("comm.window_us_mean", lt.aggregation_window_us.mean(), "us");

  // core: the <O,I,S,T,P> controllers.
  double chi_sum = 0.0;
  for (const tw::ObjectStats& o : r.stats.objects) {
    chi_sum += o.final_checkpoint_interval;
  }
  out.add("core.cancellation_switches", static_cast<double>(ot.cancellation_switches),
          "count");
  out.add("core.lazy_hit_ratio",
          ratio(static_cast<double>(ot.lazy_hits),
                static_cast<double>(ot.lazy_hits + ot.lazy_misses)),
          "ratio");
  out.add("core.mean_final_chi", ratio(chi_sum, num_objects), "events");

  // obs: what tracing costs.
  out.add("obs.traced_overhead_frac", traced_wall_ns / untraced_wall_ns - 1.0, "ratio");
}

Outcome run_traced(const Workload& w, const Options& opt) {
  Outcome out;
  tw::KernelConfig traced_kc = w.kc;
  traced_kc.observability.profiling = true;
  // The live plane arms the latency histograms. In-process engines also bind
  // its scrape endpoint, to an ephemeral localhost port.
  traced_kc.observability.live.enabled = true;

  tw::Model raw;
  {
    ScopedSpan span(true, SpanName::ModelBuild);
    raw = w.build(opt.seed);
  }
  const tw::Model model = perfbench::wrap_model(raw);

  // The oracle doubles as the capture pass that sizes the micro-probes.
  perfbench::SharedProbe& probe = perfbench::shared_probe();
  perfbench::CaptureStats& cap = perfbench::capture_stats();
  cap = perfbench::CaptureStats{};
  SeqRun oracle;
  {
    ScopedSpan span(true, SpanName::Sequential);
    probe.mode.store(perfbench::kModeCapture);
    oracle = run_seq(model, w.kc, 0);
    probe.mode.store(0);
  }

  std::vector<double> untraced_wall;
  std::vector<EngineRun> traced;
  const int min_each = opt.tiny ? 1 : 2;
  const std::uint64_t deadline =
      mono_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  // Iteration 0 is an untraced warm-up; then traced and untraced alternate.
  for (int i = 0; i <= 2 * min_each || mono_ns() < deadline; ++i) {
    const bool with_trace = i % 2 == 1;
    ++out.attempted;
    try {
      ScopedSpan iteration(with_trace, SpanName::Iteration);
      perfbench::reset_peak_rss();
      EngineRun run = run_engine(model, with_trace ? traced_kc : w.kc, w.tuning,
                                 with_trace, iteration.index());
      const std::string problem = check(run.result, oracle.result);
      if (!problem.empty()) {
        out.fail(w.name + (with_trace ? " (traced): " : ": ") + problem);
        continue;
      }
      if (with_trace) {
        traced.push_back(std::move(run));
      } else if (i > 0) {
        untraced_wall.push_back(static_cast<double>(run.wall_ns));
      }
    } catch (const std::exception& e) {
      out.fail(w.name + (with_trace ? " (traced): " : ": ") + e.what());
    }
  }
  if (traced.empty() || untraced_wall.empty()) {
    out.complete = false;
    return out;
  }

  std::vector<double> traced_wall;
  for (const EngineRun& t : traced) {
    traced_wall.push_back(static_cast<double>(t.wall_ns));
  }
  note_samples(out, "untraced_wall_ns", untraced_wall);
  note_samples(out, "traced_wall_ns", traced_wall);
  // Per-layer numbers come from the traced run with the median wall time.
  std::sort(traced.begin(), traced.end(), [](const EngineRun& a, const EngineRun& b) {
    return a.wall_ns < b.wall_ns;
  });
  add_layer_metrics(out, w, raw, traced[traced.size() / 2], median(untraced_wall),
                    median(traced_wall), opt.seed);
  return out;
}

// --- entry point ---------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: otw_ledger --workload <phold-1w|phold-4w|phold-mesh2-dyma|raid-now>"
               " --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]"
               " [--commit <id>] [--spans-dir <dir>]\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--size") {
        opt.tiny = value == "tiny";
      } else if (arg == "--commit") {
        opt.commit = value;
      } else if (arg == "--spans-dir") {
        opt.spans_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) {
    return std::nullopt;
  }
  return opt;
}

void print_stamp(const Options& opt) {
  std::printf(
      "# stamp {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"OTW_OBS_TRACING\": %d, \"OTW_OBS_LIVE\": %d, \"commit\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"size\": \"%s\"}\n",
      std::thread::hardware_concurrency(), OTW_LEDGER_COMPILER, OTW_LEDGER_BUILD_TYPE,
      OTW_OBS_TRACING, OTW_OBS_LIVE, opt.commit.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      opt.tiny ? "tiny" : "full");
}

void print_result(const Outcome& out) {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.failed == 0 && out.complete && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    usage();
    return 2;
  }
  const std::optional<Workload> workload = make_workload(opt->workload, opt->tiny);
  if (!workload) {
    std::fprintf(stderr, "otw_ledger: unknown workload '%s'\n", opt->workload.c_str());
    usage();
    return 2;
  }
  static_cast<void>(perfbench::shared_probe());  // map before any fork
  print_stamp(*opt);

  const Outcome out = opt->trace ? run_traced(*workload, *opt) : run_untraced(*workload, *opt);
  for (const std::string& line : out.notes) {
    std::printf("# %s\n", line.c_str());
  }
  if (!perfbench::peak_rss_resettable()) {
    std::printf("# peak_rss_mb is the process lifetime peak (VmHWM reset refused)\n");
  }
  if (opt->trace && !opt->spans_dir.empty()) {
    const std::string path = opt->spans_dir + "/spans-" + opt->workload + "-seed" +
                             std::to_string(opt->seed) + ".jsonl";
    for (const std::string& line : perfbench::span_summary()) {
      std::printf("# %s\n", line.c_str());
    }
    if (perfbench::write_spans(path)) {
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "otw_ledger: could not write %s\n", path.c_str());
    }
  }
  print_result(out);
  std::fflush(stdout);
  return 0;
}
