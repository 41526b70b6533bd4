// Internal glue between the kernel entry points (kernel.cpp) and the
// distributed run path (distributed.cpp). Not installed; include-path private
// to src/timewarp.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "otw/obs/live_server.hpp"
#include "otw/platform/wire.hpp"
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

/// Everything one finished LP contributes to a RunResult. Built straight
/// from the LogicalProcess in process (harvest), and decoded from a worker's
/// RESULT payload in distributed runs (decode_harvest).
struct LpHarvest {
  struct Object {
    ObjectId id = 0;
    std::uint64_t digest = 0;
    ObjectStats stats;
    std::vector<ObjectSample> samples;
  };

  LpId lp = 0;
  VirtualTime gvt = VirtualTime::zero();
  LpStats stats;
  std::optional<obs::LpTraceLog> trace;    ///< set when tracing is on
  std::optional<obs::PhaseTotals> phases;  ///< set when profiling is on
  std::vector<LpSample> samples;
  std::vector<Object> objects;
};

/// Harvests a finished LP; drains its trace ring.
LpHarvest harvest(LogicalProcess& lp);

/// The worker encoding of one harvest, as carried in RESULT payloads. Fork
/// guarantees coordinator and workers share one ABI, so the stats and
/// sample structs ship as raw bytes.
void encode_harvest(platform::WireWriter& w, const LpHarvest& h);
[[nodiscard]] LpHarvest decode_harvest(platform::WireReader& r);

/// The one RunResult assembly every engine uses. `lps` holds exactly one
/// harvest per LP, in any order; LP-indexed vectors come out in LP-id
/// order, and the engine's worker/wire trace tracks follow the LP tracks
/// (the analysis module indexes the first num_lps tracks by position).
RunResult build_result(const Model& model, std::vector<LpHarvest> lps,
                       const platform::EngineRunResult& engine,
                       std::uint64_t wall_ns);

/// Throws ContractViolation listing every KernelConfig::validate() error.
void require_valid(const KernelConfig& config);

/// Distributed run path (distributed.cpp): fork/TCP engine + RESULT decode.
RunResult run_distributed_impl(const Model& model, const KernelConfig& config,
                               platform::DistributedConfig dist_config);

}  // namespace otw::tw::detail
