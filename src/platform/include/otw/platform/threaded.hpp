// Real-concurrency engine: an M-worker : N-LP work-stealing scheduler.
//
// A fixed pool of workers drives all LPs; each worker owns a FIFO run queue
// that other workers steal from (steal_queue.hpp). Messages travel through
// per-LP lock-free MPSC mailboxes (mpsc_mailbox.hpp). An LP that reports
// Idle is parked and re-enqueued only when a message arrives or a
// request_wakeup deadline fires from the timer wheel (timer_wheel.hpp);
// workers with no runnable LP park on an event-driven parking lot — there is
// no idle polling anywhere. charge() optionally spins to model work
// granularity. The simulated-NOW engine remains the measurement substrate;
// this engine validates the kernel under genuine preemption and scales to
// thousands of LPs on a handful of cores.
#pragma once

#include <cstdint>
#include <vector>

#include "otw/obs/live.hpp"
#include "otw/platform/cost_model.hpp"
#include "otw/platform/engine.hpp"

namespace otw::platform {

struct ThreadedConfig {
  CostModel costs;
  /// When true, charge(ns) busy-spins for ns of wall time (scaled by
  /// spin_scale); when false it only accumulates accounting.
  bool spin_on_charge = false;
  /// Wall-nanoseconds actually spun per charged nanosecond.
  double spin_scale = 1.0;
  /// Worker threads; 0 = min(hardware concurrency, number of LPs).
  std::uint32_t num_workers = 0;
  /// Per-LP mailbox ring slots (rounded up to a power of two). Overflowing
  /// messages divert to the mailbox's backpressure list, so this bounds
  /// memory on the fast path, not correctness.
  std::size_t mailbox_capacity = 1024;
  /// Timer-wheel granularity for request_wakeup deadlines.
  std::uint64_t timer_tick_ns = 16'384;
  /// Per-worker scheduler trace-ring capacity (park/steal/wake records,
  /// drained into EngineRunResult::worker_traces). 0 = off.
  std::size_t scheduler_trace_capacity = 0;
  /// Live introspection registry for engine-wide occupancy gauges (mailbox
  /// population, parked workers); null = no live publishing. Must outlive
  /// the run. Updates are relaxed fetch_adds — digest-neutral.
  obs::live::LiveMetricsRegistry* live = nullptr;
};

class ThreadedEngine {
 public:
  explicit ThreadedEngine(ThreadedConfig config) : config_(config) {}

  /// Runs all LPs on the worker pool until each reports Done. Exceptions
  /// thrown by any LP abort the run and are rethrown (first one wins) after
  /// all workers have been joined.
  EngineRunResult run(const std::vector<LpRunner*>& lps);

  [[nodiscard]] const ThreadedConfig& config() const noexcept { return config_; }

 private:
  ThreadedConfig config_;
};

}  // namespace otw::platform
