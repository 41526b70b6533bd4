// Figure 7: SMMP execution time vs. number of test vectors for the
// cancellation strategies AC, LC, DC, PS64, PA10 (paper Section 8).
//
// Paper observations to reproduce (shape, not absolute seconds):
//  * every SMMP object favours lazy cancellation;
//  * LC beats AC by roughly 15%;
//  * DC / PS64 / PA10 track LC, with PS64 marginally best (it stops paying
//    for monitoring once the strategy is frozen).
//
// Shape gate: at every vector count DC must stay within 1.5x of the best
// static policy (min of AC and LC); exits 1 otherwise.
#include <algorithm>

#include "bench_common.hpp"

#include "otw/apps/smmp.hpp"

int main() {
  using namespace otw;
  bench::print_banner("Figure 7",
                      "SMMP execution time vs #test vectors (16 processors, 4 LPs)");
  bench::print_run_header();
  bench::BenchReport report("fig7_smmp_cancellation");

  bool shape_ok = true;
  for (std::uint32_t vectors : {2'000u, 5'000u, 10'000u}) {
    apps::smmp::SmmpConfig app;  // paper defaults: 16 cpus, 4 LPs, 100 objects
    app.requests_per_processor = vectors / app.num_processors;
    const tw::Model model = apps::smmp::build_model(app);

    double ac_time = 0.0, lc_time = 0.0, dc_time = 0.0;
    for (const auto& variant : bench::fig7_variants()) {
      tw::KernelConfig kc = bench::base_kernel(app.num_lps);
      kc.runtime.cancellation = variant.config;
      const tw::RunResult r = report.run(variant.label, vectors, model, kc);
      if (variant.label == "AC") ac_time = r.execution_time_sec();
      if (variant.label == "LC") lc_time = r.execution_time_sec();
      if (variant.label == "DC") dc_time = r.execution_time_sec();
    }
    std::printf("  -> LC speedup over AC: %.1f%% (paper: ~15%%)\n",
                (ac_time - lc_time) / ac_time * 100.0);
    shape_ok &= bench::shape_below(
        "DC/best-static at " + std::to_string(vectors) + " vectors",
        dc_time / std::min(ac_time, lc_time), 1.5);
    std::printf("\n");
  }
  return shape_ok ? 0 : 1;
}
