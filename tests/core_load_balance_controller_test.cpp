// <O,I,S,T,P> load-balance controller (core/load_balance_controller.hpp):
// pure transfer-function tests. The engine-side actuation (the move epoch:
// freeze, MIGRATE frame, new owner) is covered by the MigrationParity
// differential suites; here we pin the decision policy itself — baseline
// handling, the dead-zoned threshold, the noise floor, and cooldown
// hysteresis.
#include <gtest/gtest.h>

#include "otw/core/load_balance_controller.hpp"

namespace otw::core {
namespace {

LoadBalanceConfig config() {
  LoadBalanceConfig c;
  c.imbalance_threshold = 2.0;
  c.dead_zone = 0.10;  // fires at ratio >= 2.2
  c.cooldown_periods = 2;
  c.min_window_events = 100;
  return c;
}

TEST(LoadBalanceController, FirstObservationIsBaselineOnly) {
  LoadBalanceController c(config());
  EXPECT_FALSE(c.update({10'000, 10}).has_value());
  EXPECT_EQ(c.decisions(), 0u);
}

TEST(LoadBalanceController, FiresAboveDeadZonedThresholdAndPicksHotCold) {
  LoadBalanceController c(config());
  c.update({0, 0, 0});
  // Per-period deltas: shard 1 = 1000, shard 0 = 300, shard 2 = 200.
  const auto order = c.update({300, 1000, 200});
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->hot, 1u);
  EXPECT_EQ(order->cold, 2u);
  EXPECT_DOUBLE_EQ(order->ratio, 5.0);
}

TEST(LoadBalanceController, DeadZoneHoldsAtTheBareThreshold) {
  LoadBalanceController c(config());
  c.update({0, 0});
  // Ratio 2.1: above the threshold but inside the dead zone (cut at 2.2).
  EXPECT_FALSE(c.update({2'100, 1'000}).has_value());
  EXPECT_DOUBLE_EQ(c.last_ratio(), 2.1);
  // Ratio 2.2 from the next window clears it.
  EXPECT_TRUE(c.update({2'100 + 2'200, 1'000 + 1'000}).has_value());
}

TEST(LoadBalanceController, SmallWindowsAreNoise) {
  LoadBalanceController c(config());
  c.update({0, 0});
  // Ratio 99 but the hot delta (99) is under min_window_events (100).
  EXPECT_FALSE(c.update({99, 1}).has_value());
}

TEST(LoadBalanceController, ZeroColdDeltaDoesNotDivide) {
  LoadBalanceController c(config());
  c.update({0, 0});
  const auto order = c.update({1'000, 0});  // cold delta 0 -> ratio vs 1
  ASSERT_TRUE(order.has_value());
  EXPECT_DOUBLE_EQ(order->ratio, 1'000.0);
}

TEST(LoadBalanceController, CooldownSuppressesThenRearms) {
  LoadBalanceController c(config());
  c.update({0, 0});
  ASSERT_TRUE(c.update({1'000, 100}).has_value());
  EXPECT_TRUE(c.in_cooldown());
  // The same gross imbalance is ignored for cooldown_periods periods...
  EXPECT_FALSE(c.update({2'000, 200}).has_value());
  EXPECT_FALSE(c.update({3'000, 300}).has_value());
  EXPECT_FALSE(c.in_cooldown());
  // ...then the controller re-arms and fires again.
  EXPECT_TRUE(c.update({4'000, 400}).has_value());
  EXPECT_EQ(c.decisions(), 2u);
}

TEST(LoadBalanceController, ShardCountChangeRebaselines) {
  LoadBalanceController c(config());
  c.update({0, 0});
  // A different shard count (elastic resize) must not difference against
  // the stale totals vector — it baselines again.
  EXPECT_FALSE(c.update({5'000, 100, 100}).has_value());
  // The next same-shape observation differences normally.
  EXPECT_TRUE(c.update({10'000, 200, 200}).has_value());
}

TEST(LoadBalanceController, SingleShardNeverFires) {
  LoadBalanceController c(config());
  c.update({0});
  EXPECT_FALSE(c.update({1'000'000}).has_value());
}

TEST(LoadBalanceController, MonotonicityViolationClampsToZero) {
  LoadBalanceController c(config());
  c.update({1'000, 1'000});
  // A shard's total moving backwards (restarted counter) reads as delta 0,
  // never underflow.
  const auto order = c.update({500, 3'500});
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->hot, 1u);
  EXPECT_EQ(order->cold, 0u);
}

}  // namespace
}  // namespace otw::core
