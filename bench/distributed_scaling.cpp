// Multi-process distributed engine: shard scaling, DyMA on the wire.
//
// Runs the same phold workload sharded across 2 and 4 worker processes over
// TCP loopback (direct shard-to-shard peer links + comm-graph placement),
// once with aggregation off (every event is its own wire frame) and once
// with the adaptive DyMA policy (events batch into EventBatchMessage frames
// at the socket boundary). Digest parity against the sequential kernel is
// the correctness gate; the headline result is the aggregated-vs-
// unaggregated wire frame count (the paper's aggregation argument replayed
// on a real transport).
//
// Outputs: bench/results/distributed_scaling.json (standard BenchReport
// rows) and BENCH_distributed.json (CI-gated summary; exit 1 on FAIL).
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "otw/apps/phold.hpp"
#include "otw/obs/hist.hpp"

namespace {

/// One (src,dst) latency row harvested from the run's attribution
/// histograms: worker-measured link latency (send stamp to receive) or
/// coordinator relay residency of control frames, with log2-bucket quantile
/// upper bounds.
struct LinkPoint {
  std::string seam;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

struct DistPoint {
  std::uint32_t shards = 0;
  bool aggregated = false;
  double events_per_sec = 0.0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t gvt_token_frames = 0;
  std::uint64_t migrations = 0;
  std::uint64_t wall_ns = 0;
  bool digests_ok = false;
  std::vector<LinkPoint> links;
};

/// Pulls the per-link seams out of a finished run, in stable (seam,src,dst)
/// order: end-to-end link latencies (data frames on the peer links, control
/// frames via the coordinator) and the coordinator's relay residency of the
/// control frames (GVT tokens and announces).
std::vector<LinkPoint> harvest_links(const otw::tw::RunResult& r) {
  using otw::obs::hist::Seam;
  std::vector<LinkPoint> links;
  for (const otw::obs::hist::Entry& e : r.hists) {
    if ((e.seam != Seam::LinkLatency && e.seam != Seam::RelayResidency) ||
        e.hist.count == 0) {
      continue;
    }
    LinkPoint lp;
    lp.seam = otw::obs::hist::seam_name(e.seam);
    lp.src = e.src;
    lp.dst = e.dst;
    lp.count = e.hist.count;
    lp.p50_ns = e.hist.quantile_upper_bound(0.50);
    lp.p99_ns = e.hist.quantile_upper_bound(0.99);
    links.push_back(lp);
  }
  return links;
}

}  // namespace

int main() {
  using namespace otw;
  bench::print_banner("DistributedScaling",
                      "multi-process shards over TCP loopback; DyMA on the wire");
  bench::print_run_header();
  bench::BenchReport report("distributed_scaling");

  apps::phold::PholdConfig app;
  app.num_objects = 32;
  app.num_lps = 8;
  app.population_per_object = 3;
  app.remote_probability = 0.6;
  app.mean_delay = 100;
  app.event_grain_ns = 2'000;
  app.seed = 23;
  const tw::Model model = apps::phold::build_model(app);
  const tw::VirtualTime end{20'000};

  const tw::SequentialResult seq = tw::run_sequential(model, end);

  std::vector<DistPoint> points;
  for (const std::uint32_t shards : {2u, 4u}) {
    for (const bool aggregated : {false, true}) {
      tw::KernelConfig kc = bench::base_kernel(app.num_lps);
      kc.end_time = end;
      kc.batch_size = 8;
      kc.gvt_period_events = 128;
      kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
      kc.checkpoint.dynamic = true;
      kc.engine.partition = tw::PartitionKind::CommGraph;
      kc.aggregation.policy = aggregated ? comm::AggregationPolicy::Adaptive
                                         : comm::AggregationPolicy::None;
      kc.aggregation.window_us = 64.0;
      // Arm the latency-attribution histograms (no scrape port: the bank
      // rides home in the RESULT payloads) so the summary can report
      // per-link p50/p99.
      kc.observability.live.enabled = true;

      const tw::RunResult r =
          tw::run(model, kc.with_engine(tw::EngineKind::Distributed, shards));

      DistPoint p;
      p.shards = shards;
      p.aggregated = aggregated;
      p.events_per_sec = r.committed_events_per_sec();
      p.frames_sent = r.dist.frames_sent;
      p.bytes_sent = r.dist.bytes_sent;
      p.gvt_token_frames = r.dist.gvt_token_frames;
      p.migrations = r.dist.migrations;
      p.wall_ns = r.execution_time_ns;
      p.digests_ok = r.digests == seq.digests &&
                     r.stats.total_committed() == seq.events_processed;
      p.links = harvest_links(r);
      points.push_back(p);

      const std::string label =
          "mesh-s" + std::to_string(shards) + (aggregated ? "-dyma" : "-none");
      bench::print_run_row(label, shards, r);
      report.record(label, shards, kc, r);
      if (!p.digests_ok) {
        std::fprintf(stderr, "FATAL: digest mismatch at %u shards (%s)\n",
                     shards, aggregated ? "dyma" : "none");
      }
    }
  }

  // Verdict: all runs committed the sequential ground truth, and at every
  // shard count DyMA moved strictly fewer data frames over the sockets than
  // the unaggregated baseline.
  bool parity = true;
  bool batching = true;
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const DistPoint& none = points[i];
    const DistPoint& dyma = points[i + 1];
    parity = parity && none.digests_ok && dyma.digests_ok;
    const std::uint64_t none_data = none.frames_sent - none.gvt_token_frames;
    const std::uint64_t dyma_data = dyma.frames_sent - dyma.gvt_token_frames;
    batching = batching && dyma_data < none_data;
    std::printf("\n  %u shards: %llu data frames unaggregated -> %llu "
                "with DyMA (%.2fx reduction)\n",
                none.shards, static_cast<unsigned long long>(none_data),
                static_cast<unsigned long long>(dyma_data),
                dyma_data > 0 ? static_cast<double>(none_data) /
                                    static_cast<double>(dyma_data)
                              : 0.0);
  }
  const bool pass = parity && batching;
  std::printf("\n  digest parity: %s, wire batching: %s -> %s\n",
              parity ? "yes" : "NO", batching ? "yes" : "NO",
              pass ? "PASS" : "FAIL");

  std::ofstream out("BENCH_distributed.json");
  if (out) {
    out << "{\n  \"bench\": \"distributed_scaling\",\n";
    out << "  \"verdict\": \"" << (pass ? "PASS" : "FAIL") << "\",\n";
    out << "  \"digest_parity\": " << (parity ? "true" : "false") << ",\n";
    out << "  \"wire_batching\": " << (batching ? "true" : "false") << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DistPoint& p = points[i];
      out << "    {\"shards\": " << p.shards << ", \"aggregation\": \""
          << (p.aggregated ? "adaptive" : "none")
          << "\", \"committed_events_per_sec\": " << p.events_per_sec
          << ", \"wire_frames_sent\": " << p.frames_sent
          << ", \"gvt_token_frames\": " << p.gvt_token_frames
          << ", \"wire_bytes_sent\": " << p.bytes_sent
          << ", \"migrations\": " << p.migrations
          << ", \"wall_ns\": " << p.wall_ns << ", \"digests_ok\": "
          << (p.digests_ok ? "true" : "false") << ",\n      \"links\": [";
      for (std::size_t l = 0; l < p.links.size(); ++l) {
        const LinkPoint& lp = p.links[l];
        out << (l > 0 ? ",\n                " : "") << "{\"seam\": \""
            << lp.seam << "\", \"src\": " << lp.src << ", \"dst\": " << lp.dst
            << ", \"count\": " << lp.count << ", \"p50_ns\": " << lp.p50_ns
            << ", \"p99_ns\": " << lp.p99_ns << "}";
      }
      out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("  [scaling json: BENCH_distributed.json]\n");
  }
  return pass ? 0 : 1;
}
