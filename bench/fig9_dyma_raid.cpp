// Figure 9: DyMA results for RAID on the (simulated) network of
// workstations — execution time vs. aggregate age for FAW, SAAW and the
// unaggregated kernel.
#include "dyma_common.hpp"

#include "otw/apps/raid.hpp"

int main() {
  using namespace otw;
  apps::raid::RaidConfig app;  // paper defaults: 20 sources, 4 forks, 8 disks
  app.requests_per_source = 300;
  const bool shape_ok = bench::run_dyma(
      "Figure 9", "fig9_dyma_raid", "DyMA on RAID (NOW): exec time vs aggregate age",
      apps::raid::build_model(app), app.num_lps, /*flatness_bound=*/1.15);
  return shape_ok ? 0 : 1;
}
