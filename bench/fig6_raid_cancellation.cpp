// Figure 6: RAID execution time vs. number of requests for the cancellation
// strategies AC, LC, DC(FD=16, A2L=0.45, L2A=0.2), ST0.4, PS32, PA10
// (paper Section 8).
//
// Paper observations to reproduce (shape, not absolute seconds):
//  * disks favour lazy cancellation, forks favour aggressive — a mixed
//    model where per-object dynamic selection can beat both static choices;
//  * LC beats AC (there are more disks than forks);
//  * DC/ST edge out LC by ~1.5%, PS/PA by ~2.5% (no monitoring cost for the
//    objects frozen at aggressive).
//
// Shape gate: at every request count DC must beat the best static policy
// (min of AC and LC); exits 1 otherwise.
#include <algorithm>

#include "bench_common.hpp"

#include "otw/apps/raid.hpp"

int main() {
  using namespace otw;
  bench::print_banner(
      "Figure 6",
      "RAID execution time vs #requests (20 sources, 4 forks, 8 disks, 4 LPs)");
  bench::print_run_header();
  bench::BenchReport report("fig6_raid_cancellation");

  bool shape_ok = true;
  for (std::uint32_t requests : {250u, 500u, 750u, 1'000u}) {
    apps::raid::RaidConfig app;  // paper defaults: 20/4/8, 4 LPs
    app.requests_per_source = requests;
    const tw::Model model = apps::raid::build_model(app);

    double ac_time = 0.0, lc_time = 0.0, dc_time = 0.0;
    for (const auto& variant : bench::fig6_variants()) {
      tw::KernelConfig kc = bench::base_kernel(app.num_lps);
      kc.runtime.cancellation = variant.config;
      const tw::RunResult r = report.run(variant.label, requests, model, kc);
      if (variant.label == "AC") ac_time = r.execution_time_sec();
      if (variant.label == "LC") lc_time = r.execution_time_sec();
      if (variant.label == "DC") dc_time = r.execution_time_sec();
    }
    std::printf("  -> LC vs AC: %+.1f%%; DC vs LC: %+.1f%% (paper: DC ~1.5%% faster)\n",
                (ac_time - lc_time) / ac_time * 100.0,
                (lc_time - dc_time) / lc_time * 100.0);
    shape_ok &= bench::shape_below(
        "DC/best-static at " + std::to_string(requests) + " requests",
        dc_time / std::min(ac_time, lc_time), 1.0);
    std::printf("\n");
  }
  return shape_ok ? 0 : 1;
}
