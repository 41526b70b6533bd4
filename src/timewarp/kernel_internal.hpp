// Internal glue between the kernel entry points (kernel.cpp) and the
// distributed run path (distributed.cpp). Not installed; include-path private
// to src/timewarp.
#pragma once

#include <memory>
#include <vector>

#include "otw/obs/live_server.hpp"
#include "otw/tw/kernel.hpp"

namespace otw::tw::detail {

/// Instantiated LPs for one run of a model.
struct Assembly {
  std::vector<std::unique_ptr<LogicalProcess>> lps;
  std::vector<platform::LpRunner*> runners;
  /// Live introspection registry, allocated (and installed into every LP)
  /// when the config enables the live plane; null otherwise. shared_ptr so
  /// the scrape thread's snapshot closure can outlive scope churn.
  std::shared_ptr<obs::live::LiveMetricsRegistry> live;
};

/// `costs` is SimulatedNow's cost model, handed to every LP so the kernel
/// prices its own work; null on the real-clock engines.
Assembly assemble(const Model& model, const KernelConfig& config,
                  const platform::CostModel* costs = nullptr);

/// Starts the scrape endpoint over the assembly's registry (single-shard
/// view). Null when the live plane is disabled or compiled out.
std::unique_ptr<obs::live::LiveServer> start_live_server(
    const KernelConfig& config, const Assembly& assembly);

/// Stops the server and moves its watchdog history into result.health.
void finish_live_server(std::unique_ptr<obs::live::LiveServer>& server,
                        RunResult& result);

/// Builds a RunResult by reading digests/stats/traces out of live LPs (the
/// in-process engines). The distributed path has its own merge: its LPs
/// finished in other processes.
RunResult collect(const Model& model, Assembly& assembly,
                  const platform::EngineRunResult& engine_result,
                  std::uint64_t wall_ns);

/// Throws ContractViolation listing every KernelConfig::validate() error.
void require_valid(const KernelConfig& config);

/// Distributed run path (distributed.cpp): fork/TCP engine + harvest merge.
RunResult run_distributed_impl(const Model& model, const KernelConfig& config,
                               platform::DistributedConfig dist_config);

}  // namespace otw::tw::detail
