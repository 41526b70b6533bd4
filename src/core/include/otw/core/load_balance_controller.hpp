// On-line load balancing: the paper's <O, I, S, T, P> framework applied to
// shard-level load imbalance, actuated by LP migration over the mesh.
//
// A static partition — even a communication-aware one — drifts: a hotspot
// model phase can concentrate event mass on one shard while the others idle
// at the GVT frontier. The controller watches per-shard progress and orders
// one LP moved when the spread exceeds a dead-zoned threshold:
//
//   control tuple <O, I, S, T, P>:
//     O - observed per-shard work: cumulative committed + rolled-back event
//         totals (a work proxy that counts wasted optimism as load), read
//         from the live plane's shard snapshots; the controller differences
//         consecutive observations into per-period deltas
//     I - one migration order per actuation: (hottest shard -> coldest
//         shard); the kernel picks the hottest LP on the source shard
//     S - Armed (watching) / Cooldown (a migration is settling)
//     T - dead-zoned threshold on the hot/cold delta ratio:
//           Armed --(ratio >= threshold * (1 + dead_zone))--> actuate,
//                 then Cooldown for cooldown_periods periods
//         Inside the dead zone nothing fires, so a ratio hovering at the
//         threshold cannot make migrations oscillate; the cooldown lets the
//         moved LP's cost show up in the deltas before re-evaluating.
//     P - the coordinator's migration control period (period_ms)
//
// The controller only picks shards; freezing, shipping and re-routing are
// the engine's move epoch (platform/distributed.hpp). Like every other
// controller here it is a pure state machine — no I/O, directly testable.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace otw::core {

struct LoadBalanceConfig {
  /// T: hot/cold per-period work ratio that triggers a migration.
  double imbalance_threshold = 1.75;
  /// Dead-zone half-width as a fraction of the threshold.
  double dead_zone = 0.15;
  /// Control periods to sit out after ordering a migration.
  std::uint32_t cooldown_periods = 3;
  /// Hot-shard per-period delta below which the sample is noise, not load.
  std::uint64_t min_window_events = 512;
};

/// One actuation: rebalance from `hot` to `cold`.
struct LoadBalanceOrder {
  std::uint32_t hot = 0;
  std::uint32_t cold = 0;
  double ratio = 0.0;  ///< the triggering hot/cold delta ratio
};

class LoadBalanceController {
 public:
  explicit LoadBalanceController(const LoadBalanceConfig& config)
      : config_(config) {}

  /// Feeds one observation: cumulative per-shard work totals (monotone;
  /// index = shard). Returns a migration order when the transfer function
  /// fires, nullopt otherwise.
  std::optional<LoadBalanceOrder> update(
      const std::vector<std::uint64_t>& totals) {
    ++invocations_;
    if (last_totals_.size() != totals.size()) {
      last_totals_ = totals;  // first sight of this shard count: baseline only
      return std::nullopt;
    }
    std::vector<std::uint64_t> delta(totals.size());
    for (std::size_t s = 0; s < totals.size(); ++s) {
      delta[s] = totals[s] >= last_totals_[s] ? totals[s] - last_totals_[s] : 0;
    }
    last_totals_ = totals;
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      return std::nullopt;
    }
    if (totals.size() < 2) {
      return std::nullopt;
    }
    std::size_t hot = 0;
    std::size_t cold = 0;
    for (std::size_t s = 1; s < delta.size(); ++s) {
      if (delta[s] > delta[hot]) {
        hot = s;
      }
      if (delta[s] < delta[cold]) {
        cold = s;
      }
    }
    if (delta[hot] < config_.min_window_events) {
      return std::nullopt;  // the whole window is noise
    }
    const double ratio = static_cast<double>(delta[hot]) /
                         static_cast<double>(delta[cold] > 0 ? delta[cold] : 1);
    last_ratio_ = ratio;
    if (ratio < config_.imbalance_threshold * (1.0 + config_.dead_zone)) {
      return std::nullopt;  // below the threshold or inside the dead zone
    }
    cooldown_left_ = config_.cooldown_periods;
    ++decisions_;
    return LoadBalanceOrder{static_cast<std::uint32_t>(hot),
                            static_cast<std::uint32_t>(cold), ratio};
  }

  [[nodiscard]] std::uint64_t invocations() const noexcept { return invocations_; }
  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }
  [[nodiscard]] double last_ratio() const noexcept { return last_ratio_; }
  [[nodiscard]] bool in_cooldown() const noexcept { return cooldown_left_ > 0; }
  [[nodiscard]] const LoadBalanceConfig& config() const noexcept { return config_; }

 private:
  LoadBalanceConfig config_;
  std::vector<std::uint64_t> last_totals_;
  std::uint32_t cooldown_left_ = 0;
  std::uint64_t invocations_ = 0;
  std::uint64_t decisions_ = 0;
  double last_ratio_ = 0.0;
};

}  // namespace otw::core
