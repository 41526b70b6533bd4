// Figure 8: DyMA results for SMMP on the (simulated) network of
// workstations — execution time vs. aggregate age for FAW, SAAW and the
// unaggregated kernel.
#include "dyma_common.hpp"

#include "otw/apps/smmp.hpp"

int main() {
  using namespace otw;
  apps::smmp::SmmpConfig app;  // paper geometry: 16 cpus, 4 LPs, 100 objects
  app.requests_per_processor = 300;
  // DyMA stresses the communication subsystem. Bank locality is OUR model
  // knob (the paper does not specify it); a low value reproduces the
  // comm-bound regime the 10 Mb Ethernet testbed was in.
  app.local_bank_fraction = 0.1;
  const bool shape_ok = bench::run_dyma(
      "Figure 8", "fig8_dyma_smmp", "DyMA on SMMP (NOW): exec time vs aggregate age",
      apps::smmp::build_model(app), app.num_lps, /*flatness_bound=*/1.5);
  return shape_ok ? 0 : 1;
}
