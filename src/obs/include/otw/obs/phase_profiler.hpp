// Phase profiler (otw::obs): where does the kernel's time actually go?
//
// A per-LP accumulator of scoped timers over the kernel's phases: event
// processing, state saving, rollback, coast-forward, GVT, communication /
// aggregation, idle polling, and controller invocations. Timestamps come
// from the platform clock, so totals are *modeled* nanoseconds on the
// SimulatedNow engine and *wall* nanoseconds on the real-clock engines — the
// same clock the paper's execution times are quoted in. Idle and Control
// only receive priced work (SimulatedNow's cost model), so they stay zero
// on the real-clock engines.
//
// Scopes nest (a rollback contains a state restore and a coast-forward, a
// coast-forward re-executes events): begin/end attribute *self* time to each
// phase, so the per-phase totals partition the measured time without double
// counting and sum to the outermost scopes' spans.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace otw::obs {

enum class Phase : std::uint8_t {
  EventProcessing,  ///< SimulationObject::process_event + per-event overhead
  StateSaving,      ///< checkpoint writes
  Rollback,         ///< rollback surgery: restore, output cancellation
  CoastForward,     ///< silent re-execution up to the rollback target
  Gvt,              ///< token handling, epoch starts, fossil collection
  Comm,             ///< message drain, aggregation pump, physical sends
  Idle,             ///< idle polls (nothing runnable, nothing received)
  Control,          ///< on-line controller transfer functions
  kCount,
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] constexpr const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::EventProcessing: return "event_processing";
    case Phase::StateSaving: return "state_saving";
    case Phase::Rollback: return "rollback";
    case Phase::CoastForward: return "coast_forward";
    case Phase::Gvt: return "gvt";
    case Phase::Comm: return "comm";
    case Phase::Idle: return "idle";
    case Phase::Control: return "control";
    case Phase::kCount: break;
  }
  return "?";
}

/// Accumulated self-time and entry counts per phase.
struct PhaseTotals {
  std::array<std::uint64_t, kPhaseCount> ns{};
  std::array<std::uint64_t, kPhaseCount> count{};

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : ns) {
      sum += v;
    }
    return sum;
  }

  void merge(const PhaseTotals& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      ns[i] += other.ns[i];
      count[i] += other.count[i];
    }
  }
};

/// Nesting-aware accumulator. Not thread-safe: one per LP.
class PhaseProfiler {
 public:
  PhaseProfiler() { stack_.reserve(8); }

  void begin(Phase phase, std::uint64_t now_ns) {
    stack_.push_back(Frame{phase, now_ns, 0});
  }

  /// Closes the innermost scope: elapsed-since-begin minus time already
  /// attributed to nested scopes is credited to the scope's phase.
  void end(std::uint64_t now_ns) {
    if (stack_.empty()) {
      return;  // unbalanced end: ignore rather than corrupt totals
    }
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t span = now_ns >= frame.start_ns ? now_ns - frame.start_ns : 0;
    const std::uint64_t self = span >= frame.child_ns ? span - frame.child_ns : 0;
    const auto idx = static_cast<std::size_t>(frame.phase);
    totals_.ns[idx] += self;
    ++totals_.count[idx];
    if (!stack_.empty()) {
      stack_.back().child_ns += span;
    }
  }

  /// Leaf accounting without a scope (e.g. a fixed idle-poll charge). Counts
  /// toward the enclosing scope's children so nesting stays consistent.
  void add(Phase phase, std::uint64_t ns) {
    const auto idx = static_cast<std::size_t>(phase);
    totals_.ns[idx] += ns;
    ++totals_.count[idx];
    if (!stack_.empty()) {
      stack_.back().child_ns += ns;
    }
  }

  [[nodiscard]] const PhaseTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] std::size_t open_scopes() const noexcept { return stack_.size(); }

 private:
  struct Frame {
    Phase phase;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::vector<Frame> stack_;
  PhaseTotals totals_;
};

}  // namespace otw::obs
