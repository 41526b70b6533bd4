// Shared driver for the DyMA figures (8: SMMP, 9: RAID): execution time as a
// function of the aggregate age (the FAW window; for SAAW only the INITIAL
// window) on the simulated network of workstations.
//
// Paper observations to reproduce:
//  * aggregation yields a large speedup over the unaggregated kernel
//    (~30% best case) — per-message overhead dominates on 10 Mb Ethernet;
//  * FAW's curve is U-shaped: an "optimal" window exists; smaller windows
//    are too conservative, larger ones delay messages and hurt the
//    receivers;
//  * SAAW is at-or-below FAW across the sweep and flat: it converges to the
//    optimal window regardless of its initial value.
//
// Shape gate: the worst SAAW run must stay below `flatness_bound` times the
// best FAW run; run_dyma returns false otherwise.
#pragma once

#include "bench_common.hpp"

namespace otw::bench {

inline const std::vector<double>& aggregate_ages() {
  // The paper sweeps 1..1000; we extend one decade so FAW's upturn (windows
  // past the optimum delay messages into stragglers) is inside the plot.
  static const std::vector<double> ages = {1,   3.2,   10,   32,    100,
                                           320, 1'000, 3'200, 10'000};
  return ages;
}

inline bool run_dyma(const char* figure, const char* bench_name,
                     const char* title, const tw::Model& model, tw::LpId lps,
                     double flatness_bound) {
  print_banner(figure, title);
  BenchReport report(bench_name);

  tw::KernelConfig kc = base_kernel(lps);

  // Unaggregated kernel: the flat reference line of the paper's plots.
  kc.aggregation.policy = comm::AggregationPolicy::None;
  print_run_header();
  const tw::RunResult unagg = report.run("unagg", 0, model, kc);

  double best_faw = 1e300, best_faw_age = 0;
  std::printf("\nFAW (fixed aggregation window):\n");
  for (double age : aggregate_ages()) {
    kc.aggregation.policy = comm::AggregationPolicy::Fixed;
    kc.aggregation.window_us = age;
    const tw::RunResult r = report.run("FAW", age, model, kc);
    if (r.execution_time_sec() < best_faw) {
      best_faw = r.execution_time_sec();
      best_faw_age = age;
    }
  }

  double worst_saaw = 0.0;
  std::printf("\nSAAW (adaptive window; x = initial window only):\n");
  // AOF weight = the fixed cost one aggregated message avoids (in us);
  // APF weight calibrated so W* = lambda * benefit / (2 * penalty) lands in
  // the regime of the models' FAW optima.
  kc.aggregation.saaw.benefit_per_message =
      static_cast<double>(now_testbed_costs().msg_send_overhead_ns) / 1000.0;
  kc.aggregation.saaw.age_penalty = 2.5e-4;
  for (double age : aggregate_ages()) {
    kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
    kc.aggregation.window_us = age;
    const tw::RunResult r = report.run("SAAW", age, model, kc);
    std::printf("   mean adapted window: %.1f us\n",
                r.stats.lp_totals().aggregation_window_us.mean());
    worst_saaw = std::max(worst_saaw, r.execution_time_sec());
  }

  std::printf(
      "\n  -> best FAW: %.3fs at window %.1fus; unaggregated: %.3fs "
      "(aggregation gain %.1f%%; paper: ~30%% best case)\n",
      best_faw, best_faw_age, unagg.execution_time_sec(),
      (unagg.execution_time_sec() - best_faw) / unagg.execution_time_sec() *
          100.0);
  std::printf("  -> worst SAAW across all initial windows: %.3fs\n", worst_saaw);
  return shape_below("flatness, worst SAAW/best FAW", worst_saaw / best_faw,
                     flatness_bound);
}

}  // namespace otw::bench
