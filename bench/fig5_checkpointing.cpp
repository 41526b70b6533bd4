// Figure 5: normalized performance of the check-pointing strategies on RAID
// and SMMP (paper Section 8).
//
// Three configurations per model, normalized to the first:
//   1.0  = periodic check-pointing + aggressive cancellation (all-static),
//          the paper's baseline (11,300 committed ev/s SMMP; 10,917 RAID);
//   bar2 = periodic check-pointing + lazy cancellation;
//   bar3 = DYNAMIC check-pointing + lazy cancellation.
//
// Paper observation to reproduce: dynamic check-pointing improves
// performance by up to ~30% in the best case; the gain is larger for RAID,
// whose fork controllers carry large (kilobyte) states that are expensive to
// save every event.
//
// Shape gate: on both models dynamic check-pointing must beat periodic
// check-pointing under the same (lazy) cancellation; exits 1 otherwise.
#include "bench_common.hpp"

#include "otw/apps/raid.hpp"
#include "otw/apps/smmp.hpp"

namespace {

using namespace otw;

struct Config {
  const char* label;
  bool dynamic_checkpointing;
  core::CancellationControlConfig cancellation;
};

std::vector<Config> configs() {
  return {
      {"periodic+AC", false, core::CancellationControlConfig::aggressive()},
      {"periodic+LC", false, core::CancellationControlConfig::lazy()},
      {"dynamic+LC", true, core::CancellationControlConfig::lazy()},
  };
}

/// Returns whether the model keeps the figure's shape.
bool run_model(bench::BenchReport& report, const char* model_name,
               const char* name, const tw::Model& model, tw::LpId lps) {
  std::printf("\n%s:\n", name);
  bench::print_run_header();
  double baseline = 0.0;
  double periodic_lc = 0.0;
  double dynamic_lc = 0.0;
  for (const Config& c : configs()) {
    tw::KernelConfig kc = bench::base_kernel(lps);
    kc.checkpoint.interval = 1;  // the classic save-every-event default
    kc.checkpoint.dynamic = c.dynamic_checkpointing;
    kc.runtime.cancellation = c.cancellation;
    const tw::RunResult r = report.run(c.label, 0, model, kc);
    const double throughput = r.committed_events_per_sec();
    if (baseline == 0.0) {
      baseline = throughput;
    }
    if (c.dynamic_checkpointing) {
      dynamic_lc = r.execution_time_sec();
    } else if (c.cancellation.policy == core::CancellationPolicy::StaticLazy) {
      periodic_lc = r.execution_time_sec();
    }
    std::printf("  normalized performance: %.3f", throughput / baseline);
    if (c.dynamic_checkpointing) {
      // Final intervals the controllers converged to, by object.
      std::uint64_t sum = 0;
      for (const auto& obj : r.stats.objects) {
        sum += obj.final_checkpoint_interval;
      }
      std::printf("   (mean final chi = %.1f)",
                  static_cast<double>(sum) /
                      static_cast<double>(r.stats.objects.size()));
    }
    std::printf("\n");
  }
  return bench::shape_below(std::string(model_name) + " dynamic/periodic (LC)",
                            dynamic_lc / periodic_lc, 1.0);
}

}  // namespace

int main() {
  bench::print_banner("Figure 5",
                      "dynamic check-pointing, normalized performance");
  bench::BenchReport report("fig5_checkpointing");

  apps::smmp::SmmpConfig smmp;  // paper defaults
  smmp.requests_per_processor = 500;
  bool shape_ok = run_model(report, "SMMP", "SMMP (16 processors, 4 LPs, 100 objects)",
                            apps::smmp::build_model(smmp), smmp.num_lps);

  apps::raid::RaidConfig raid;  // paper defaults
  raid.requests_per_source = 500;
  shape_ok &= run_model(report, "RAID", "RAID (20 sources, 4 forks, 8 disks, 4 LPs)",
                        apps::raid::build_model(raid), raid.num_lps);

  std::printf("\npaper: dynamic check-pointing improved performance by up to ~30%%\n");
  return shape_ok ? 0 : 1;
}
