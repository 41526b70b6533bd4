// Initial LP -> shard placement for the distributed engine.
//
// RoundRobin reproduces the legacy lp % num_shards layout — the adversarial
// case for the wire (every GVT token hop crosses a process boundary and
// neighbouring model objects usually land on different shards).
//
// CommGraph minimizes the weighted edge cut over the model's declared send
// graph (Model::add_edge): object edges are folded into LP-level affinities,
// LPs are placed greedily in decreasing total-affinity order onto the shard
// where they have the highest affinity to already-placed LPs, subject to a
// balanced capacity of ceil(num_lps / num_shards) LPs per shard. The
// algorithm is deterministic (ties break toward the lower LP id and the
// lower shard id), so the same model always yields the same placement and
// digest comparisons across runs stay meaningful. A model with no edges
// degrades to exactly the round-robin layout.
//
// Placement is digest-neutral: it changes who computes, never what is
// computed. With on-line migration the result is only the *initial* owner
// map; the engine's move epochs change it from there.
#pragma once

#include <cstdint>
#include <vector>

#include "otw/tw/kernel.hpp"

namespace otw::tw {

/// Returns the LP -> shard table (index = LpId, size = num_lps) under the
/// given policy. num_shards must be >= 1; LPs the model never mentions are
/// still placed (they idle at GVT).
[[nodiscard]] std::vector<std::uint32_t> partition_lps(const Model& model,
                                                       LpId num_lps,
                                                       std::uint32_t num_shards,
                                                       PartitionKind kind);

/// Weighted edge-cut of a placement over the model's send graph: the sum of
/// edge weights whose endpoints land on different shards (bench/test metric).
[[nodiscard]] double edge_cut(const Model& model, LpId num_lps,
                              const std::vector<std::uint32_t>& placement);

}  // namespace otw::tw
