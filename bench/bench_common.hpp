// Shared infrastructure for the figure-reproduction benches.
//
// Every paper figure is regenerated on the simulated network-of-workstations
// platform with the calibrated cost model below. Results are deterministic
// (the platform is a direct-execution simulation), so each configuration is
// run once and the reported "execution time" is the modeled makespan — the
// analogue of the paper's measured seconds on the SPARC/Ethernet testbed.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "otw/platform/simulated_now.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::bench {

/// Cost model calibrated to the paper's testbed regime: a physical message
/// costs ~2 orders of magnitude more than an event grain (10 Mbit shared
/// Ethernet vs. SPARC-class CPUs), state saves cost ~ bytes copied.
inline platform::CostModel now_testbed_costs() {
  platform::CostModel m;
  m.event_overhead_ns = 2'000;
  m.state_save_base_ns = 1'000;
  m.state_save_per_byte_ns = 10;
  m.state_restore_ns = 2'000;
  m.rollback_fixed_ns = 4'000;
  // ~0.5 ms of protocol-stack work per physical message matches late-90s
  // UDP/TCP costs on SPARC-class workstations and sets the fixed-vs-per-byte
  // balance that makes message aggregation pay (paper Figs. 8-9).
  m.msg_send_overhead_ns = 500'000;
  m.msg_recv_overhead_ns = 250'000;
  m.msg_per_byte_ns = 800;
  m.wire_latency_ns = 200'000;
  m.control_invocation_ns = 500;
  m.idle_poll_ns = 1'000;
  return m;
}

inline tw::KernelConfig base_kernel(tw::LpId lps) {
  tw::KernelConfig kc;
  kc.num_lps = lps;
  kc.batch_size = 16;
  kc.gvt_period_events = 512;
  kc.gvt_min_interval_ns = 2'000'000;
  return kc;
}

inline tw::RunResult run_now(const tw::Model& model, const tw::KernelConfig& kc,
                             const platform::CostModel& costs = now_testbed_costs()) {
  platform::SimulatedNowConfig now;
  now.costs = costs;
  return tw::run(model, kc, {.simulated_now = now});
}

/// Machine-readable per-run results. Every bench funnels its runs through one
/// BenchReport, which prints the usual table rows AND accumulates a JSON
/// document written to bench/results/<name>.json (schema: {bench, runs:[
/// {label, x, config, results, phases}]}). Runs execute with phase profiling
/// enabled, so each JSON row carries the per-phase time breakdown.
class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();  // writes the JSON file if write() was not called

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Runs the configuration on the simulated-NOW platform (with phase
  /// profiling switched on), prints the standard table row and records the
  /// JSON entry. `x` is the swept parameter (0 when the bench has none).
  tw::RunResult run(const std::string& label, double x, const tw::Model& model,
                    tw::KernelConfig kc,
                    const platform::CostModel& costs = now_testbed_costs());

  /// Records an externally produced result (benches with custom run paths).
  void record(const std::string& label, double x, const tw::KernelConfig& kc,
              const tw::RunResult& result);

  /// Writes bench/results/<name>.json (directories created as needed).
  void write();

 private:
  std::string name_;
  std::vector<std::string> rows_;  ///< pre-rendered JSON run objects
  bool written_ = false;
};

/// Named cancellation variants as used in the paper's Figures 6 and 7.
struct CancellationVariant {
  std::string label;
  core::CancellationControlConfig config;
};

inline std::vector<CancellationVariant> fig6_variants() {
  return {
      {"AC", core::CancellationControlConfig::aggressive()},
      {"LC", core::CancellationControlConfig::lazy()},
      {"DC", core::CancellationControlConfig::dynamic(16, 0.45, 0.2)},
      {"ST0.4", core::CancellationControlConfig::st(0.4)},
      {"PS32", core::CancellationControlConfig::ps(32)},
      {"PA10", core::CancellationControlConfig::pa(10)},
  };
}

inline std::vector<CancellationVariant> fig7_variants() {
  return {
      {"AC", core::CancellationControlConfig::aggressive()},
      {"LC", core::CancellationControlConfig::lazy()},
      {"DC", core::CancellationControlConfig::dynamic(16, 0.45, 0.2)},
      {"PS64", core::CancellationControlConfig::ps(64)},
      {"PA10", core::CancellationControlConfig::pa(10)},
  };
}

/// Figure-shape gate (EXPERIMENTS.md, "Figure-shape gates"): prints a ratio
/// of modeled execution times next to its bound and returns whether it
/// stays below it. The figure benches exit non-zero when any of their
/// shapes breaks, so a change that bends a paper figure fails CI.
inline bool shape_below(const std::string& what, double ratio, double bound) {
  const bool ok = ratio < bound;
  std::printf("  shape: %s = %.3f (must stay below %.2f): %s\n", what.c_str(),
              ratio, bound, ok ? "ok" : "BROKEN");
  return ok;
}

/// Pretty printing -----------------------------------------------------------

inline void print_banner(const char* figure, const char* description) {
  std::printf("\n=== %s: %s ===\n", figure, description);
}

inline void print_run_header() {
  std::printf("%-10s %12s %14s %12s %12s %12s %10s\n", "config", "x", "exec_sec",
              "committed", "rollbacks", "phys_msgs", "ev/sec");
}

inline void print_run_row(const std::string& label, double x,
                          const tw::RunResult& r) {
  std::printf("%-10s %12.1f %14.3f %12llu %12llu %12llu %10.0f\n", label.c_str(),
              x, r.execution_time_sec(),
              static_cast<unsigned long long>(r.stats.total_committed()),
              static_cast<unsigned long long>(r.stats.total_rollbacks()),
              static_cast<unsigned long long>(r.physical_messages),
              r.committed_events_per_sec());
}

}  // namespace otw::bench
