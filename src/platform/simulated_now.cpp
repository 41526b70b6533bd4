#include "otw/platform/simulated_now.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "otw/util/assert.hpp"

namespace otw::platform {

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
}

struct SimulatedNowEngine::LpState {
  std::uint64_t clock_ns = 0;
  StepStatus status = StepStatus::Active;
  std::uint64_t wake_hint_ns = kNever;  ///< request_wakeup from the last step
  std::priority_queue<InFlight, std::vector<InFlight>, InFlightLater> inbox;

  [[nodiscard]] std::uint64_t next_arrival() const noexcept {
    return inbox.empty() ? kNever : inbox.top().arrival_ns;
  }

  /// Modeled time at which this LP can usefully run, or kNever if parked.
  [[nodiscard]] std::uint64_t ready_time() const noexcept {
    if (status == StepStatus::Done) {
      return kNever;
    }
    const std::uint64_t arrival = next_arrival();
    if (arrival <= clock_ns) {
      return clock_ns;  // a message is already due
    }
    if (status == StepStatus::Idle) {
      // Wakes at the next message arrival or the self-requested deadline
      // (kNever on both = parked).
      return std::min(arrival, std::max(wake_hint_ns, clock_ns));
    }
    return clock_ns;  // Active: runnable right now
  }
};

class SimulatedNowEngine::Context final : public LpContext {
 public:
  Context(LpId self, LpId num_lps, const CostModel& costs,
          std::vector<LpState>& lps, EngineRunResult& totals,
          std::uint64_t& send_sequence)
      : self_(self),
        num_lps_(num_lps),
        costs_(costs),
        lps_(lps),
        totals_(totals),
        send_sequence_(send_sequence) {}

  [[nodiscard]] LpId self() const noexcept override { return self_; }
  [[nodiscard]] LpId num_lps() const noexcept override { return num_lps_; }

  [[nodiscard]] std::uint64_t now_ns() const noexcept override {
    return lps_[self_].clock_ns;
  }

  void charge(std::uint64_t ns) noexcept override { lps_[self_].clock_ns += ns; }

  void send(LpId dst, std::unique_ptr<EngineMessage> msg) override {
    OTW_REQUIRE(dst < num_lps_);
    OTW_REQUIRE(msg != nullptr);
    const std::uint64_t bytes = msg->wire_bytes();
    charge(costs_.send_cost_ns(bytes));
    const std::uint64_t arrival =
        dst == self_ ? lps_[self_].clock_ns
                     : lps_[self_].clock_ns + costs_.wire_latency_ns;
    lps_[dst].inbox.push(InFlight{arrival, send_sequence_++, std::move(msg)});
    ++totals_.physical_messages;
    totals_.wire_bytes += bytes;
  }

  std::unique_ptr<EngineMessage> poll() override {
    auto& lp = lps_[self_];
    if (lp.inbox.empty() || lp.inbox.top().arrival_ns > lp.clock_ns) {
      return nullptr;
    }
    // priority_queue::top() is const; the unique_ptr move is safe because
    // the element is popped immediately after.
    auto msg = std::move(const_cast<InFlight&>(lp.inbox.top()).message);
    lp.inbox.pop();
    charge(costs_.msg_recv_overhead_ns);
    return msg;
  }

  void request_wakeup(std::uint64_t abs_ns) noexcept override {
    lps_[self_].wake_hint_ns = std::min(lps_[self_].wake_hint_ns, abs_ns);
  }

 private:
  LpId self_;
  LpId num_lps_;
  const CostModel& costs_;
  std::vector<LpState>& lps_;
  EngineRunResult& totals_;
  std::uint64_t& send_sequence_;
};

EngineRunResult SimulatedNowEngine::run(const std::vector<LpRunner*>& lps) {
  OTW_REQUIRE(!lps.empty());
  for (auto* lp : lps) {
    OTW_REQUIRE(lp != nullptr);
  }

  const auto n = static_cast<LpId>(lps.size());
  std::vector<LpState> states(n);
  EngineRunResult result;
  std::uint64_t send_sequence = 0;

  std::uint64_t remaining = n;
  while (remaining > 0) {
    // Pick the LP with the smallest ready time (ties by id: deterministic).
    LpId chosen = n;
    std::uint64_t best = kNever;
    for (LpId i = 0; i < n; ++i) {
      const std::uint64_t ready = states[i].ready_time();
      if (ready < best) {
        best = ready;
        chosen = i;
      }
    }
    if (chosen == n) {
      throw std::runtime_error(
          "SimulatedNowEngine deadlock: all live LPs are idle with no message "
          "in flight (kernel failed to detect termination)");
    }

    auto& lp = states[chosen];
    // An idle LP scheduled at its next arrival fast-forwards to it.
    if (best > lp.clock_ns) {
      lp.clock_ns = best;
    }
    lp.wake_hint_ns = kNever;  // hints are valid for one step only

    Context ctx(chosen, n, config_.costs, states, result, send_sequence);
    lp.status = lps[chosen]->step(ctx);
    if (lp.status == StepStatus::Done) {
      --remaining;
    }

    if (++result.steps > config_.max_steps) {
      throw std::runtime_error("SimulatedNowEngine exceeded max_steps=" +
                               std::to_string(config_.max_steps));
    }
  }

  for (const LpState& state : states) {
    result.execution_time_ns = std::max(result.execution_time_ns, state.clock_ns);
  }
  return result;
}

}  // namespace otw::platform
