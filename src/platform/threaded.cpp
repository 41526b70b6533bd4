// M-worker : N-LP work-stealing scheduler (see threaded.hpp).
//
// Concurrency architecture:
//   * LP state machine — every LP is Idle, Scheduled, Running,
//     RunningNotified or Done (one atomic word). An LP is in at most ONE run
//     queue (only the *->Scheduled transition enqueues) and is stepped by at
//     most one worker (only the Scheduled->Running CAS claims it), so all
//     LP-affine data (kernel state, mailbox consumer cursor, wakeup hint)
//     is handed between workers through these acquire/release transitions.
//   * Message flow — send() pushes into the destination's MPSC mailbox and
//     then notifies: Idle LPs become Scheduled (and enqueued), Running LPs
//     become RunningNotified so their worker re-enqueues them after the
//     step. Push-before-notify makes a message visible before the LP can be
//     stepped for it; a transiently unpublished ring cell is therefore never
//     lost, only deferred to the notify that follows it.
//   * Parking — a worker with no runnable LP parks on a condition variable.
//     The enqueue->wake and park->recheck sides are ordered by seq_cst
//     fences (Dekker handshake on the parked counter), so a wake-up cannot
//     be lost; a bounded safety timeout exists only as a backstop and is
//     counted, never relied upon.
//   * request_wakeup — deadlines go to a timer wheel; workers advance it
//     opportunistically each loop and bound their park timeout by its next
//     deadline, so an Idle LP with a pending aggregation-window or GVT
//     rate-limit expiry is re-stepped on time with no polling.
#include "otw/platform/threaded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "otw/obs/trace.hpp"
#include "otw/platform/mpsc_mailbox.hpp"
#include "otw/platform/steal_queue.hpp"
#include "otw/platform/timer_wheel.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/rng.hpp"

namespace otw::platform {

namespace {

using SteadyClock = std::chrono::steady_clock;

enum LpStateValue : std::uint32_t {
  kIdle = 0,            ///< parked; a notify enqueues it
  kScheduled = 1,       ///< in exactly one run queue
  kRunning = 2,         ///< being stepped by a worker
  kRunningNotified = 3, ///< being stepped; re-enqueue when the step returns
  kDone = 4,            ///< finished; never stepped again
};

struct LpSlot {
  explicit LpSlot(std::size_t mailbox_capacity) : mailbox(mailbox_capacity) {}

  std::atomic<std::uint32_t> state{kScheduled};
  MpscMailbox<std::unique_ptr<EngineMessage>> mailbox;
  // Accessed only by the worker currently running this LP; handed off
  // through the state transitions.
  std::uint64_t wake_hint_ns = TimerWheel::kNever;
};

struct WorkerData {
  WorkerData(std::uint32_t queue_capacity, std::uint64_t seed,
             std::size_t trace_capacity)
      : queue(queue_capacity), rng(seed) {
    if (trace_capacity > 0) {
      ring = std::make_unique<obs::TraceRing>(trace_capacity);
    }
  }

  StealQueue queue;
  util::Xoshiro256 rng;  ///< steal-victim selection
  WorkerStats stats;
  std::vector<std::uint32_t> fired;  ///< timer-advance scratch buffer
  std::unique_ptr<obs::TraceRing> ring;  ///< scheduler trace (optional)
  std::uint64_t physical_messages = 0;
  std::uint64_t wire_bytes = 0;
};

class Scheduler {
 public:
  Scheduler(const ThreadedConfig& config, const std::vector<LpRunner*>& lps)
      : config_(config),
        runners_(lps),
        n_(static_cast<std::uint32_t>(lps.size())),
        num_workers_(resolve_workers(config, n_)),
        wheel_(config.timer_tick_ns),
        live_(n_) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      slots_.emplace_back(config_.mailbox_capacity);
    }
    std::uint64_t seed = 0x5EEDC0DE;
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      workers_.emplace_back(n_, util::splitmix64(seed),
                            config_.scheduler_trace_capacity);
    }
  }

  EngineRunResult run() {
    start_ = SteadyClock::now();
    // Initial placement: round-robin across worker queues (states start
    // Scheduled, so no notify/wake machinery is needed before launch).
    for (std::uint32_t i = 0; i < n_; ++i) {
      const bool pushed = workers_[i % num_workers_].queue.push(i);
      OTW_REQUIRE_MSG(pushed, "run queue undersized at seed time");
    }
    {
      std::vector<std::jthread> threads;
      threads.reserve(num_workers_);
      for (std::uint32_t w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w] { worker_entry(w); });
      }
    }  // jthreads join here
    if (first_error_) {
      std::rethrow_exception(first_error_);
    }
    return collect();
  }

  // --- services used by ThreadContext ---------------------------------------

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - start_)
            .count());
  }

  [[nodiscard]] const ThreadedConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t num_lps() const noexcept { return n_; }
  [[nodiscard]] LpSlot& slot(std::uint32_t lp) noexcept { return slots_[lp]; }
  [[nodiscard]] WorkerData& worker(std::uint32_t w) noexcept { return workers_[w]; }

  /// Makes `lp` runnable (message arrival or timer expiry). `enqueuer` is the
  /// calling worker; new work always lands in its own queue (thieves spread
  /// it). Safe against every LP state.
  void notify(std::uint32_t lp, std::uint32_t enqueuer) {
    auto& state = slots_[lp].state;
    std::uint32_t s = state.load(std::memory_order_acquire);
    for (;;) {
      if (s == kIdle) {
        if (state.compare_exchange_weak(s, kScheduled,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          enqueue(lp, enqueuer);
          return;
        }
      } else if (s == kRunning) {
        if (state.compare_exchange_weak(s, kRunningNotified,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          return;
        }
      } else {
        return;  // Scheduled / RunningNotified / Done: nothing to do
      }
    }
  }

 private:
  static std::uint32_t resolve_workers(const ThreadedConfig& config,
                                       std::uint32_t n) {
    if (config.num_workers > 0) {
      return config.num_workers;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw != 0 ? hw : 2u, n));
  }

  void record(std::uint32_t w, obs::TraceKind kind, std::uint64_t wall_ns,
              std::uint64_t arg0, std::uint64_t arg1) {
    if (workers_[w].ring) {
      workers_[w].ring->push(
          obs::TraceRecord{wall_ns, 0, arg0, arg1, w, kind});
    }
  }

  /// The *->Scheduled winner calls this exactly once per transition, so each
  /// LP occupies at most one queue slot and push can never overflow.
  void enqueue(std::uint32_t lp, std::uint32_t w) {
    const bool pushed = workers_[w].queue.push(lp);
    OTW_REQUIRE_MSG(pushed, "run queue overflow: LP enqueued twice");
    if (advertised_parked() > 0) {
      wake_one(w);
    }
  }

  /// Dekker handshake with park(), phrased as a seq_cst RMW chain on
  /// `parked_` (not a standalone fence — TSan cannot model fences, RMWs it
  /// models exactly). Either this RMW follows the parker's +1 in the
  /// modification order (we read parked > 0 and hand out a token), or it
  /// precedes it — then it synchronizes-with the parker's +1, so the
  /// parker's post-increment re-scan sees our preceding queue push / timer
  /// arm. A wake-up cannot be lost either way.
  [[nodiscard]] int advertised_parked() noexcept {
    return parked_.fetch_add(0, std::memory_order_seq_cst);
  }

  void wake_one(std::uint32_t waker) {
    {
      const std::scoped_lock lock(park_mutex_);
      ++tokens_;
    }
    park_cv_.notify_one();
    record(waker, obs::TraceKind::WorkerWake, now_ns(), 0, 0);
  }

  void wake_all() {
    {
      const std::scoped_lock lock(park_mutex_);
      tokens_ += static_cast<int>(num_workers_);
    }
    park_cv_.notify_all();
  }

  [[nodiscard]] bool has_queued_work() const noexcept {
    for (const WorkerData& w : workers_) {
      if (!w.queue.empty()) {
        return true;
      }
    }
    return false;
  }

  void advance_timers(std::uint32_t w) {
    if (wheel_.next_deadline() > now_ns()) {
      return;
    }
    WorkerData& me = workers_[w];
    me.fired.clear();
    wheel_.advance(now_ns(), me.fired);
    for (const std::uint32_t lp : me.fired) {
      ++me.stats.timer_fires;
      notify(lp, w);
    }
  }

  std::uint32_t steal(std::uint32_t w) {
    if (num_workers_ <= 1) {
      return StealQueue::kEmpty;
    }
    WorkerData& me = workers_[w];
    obs::hist::Bank* bank =
        config_.live != nullptr ? config_.live->hists() : nullptr;
    const std::uint64_t sweep_begin = bank != nullptr ? now_ns() : 0;
    const auto start = static_cast<std::uint32_t>(me.rng() % num_workers_);
    for (std::uint32_t i = 0; i < num_workers_; ++i) {
      const std::uint32_t victim = (start + i) % num_workers_;
      if (victim == w) {
        continue;
      }
      const std::uint32_t lp = workers_[victim].queue.pop();
      if (lp != StealQueue::kEmpty) {
        ++me.stats.steals;
        const std::uint64_t now = now_ns();
        if (bank != nullptr) {
          // Latency of the successful sweep: victim scan + pop.
          bank->record(obs::hist::Seam::StealLatency, now - sweep_begin);
        }
        const obs::TraceArgs args = obs::pack_worker_steal(victim, lp);
        record(w, obs::TraceKind::WorkerSteal, now, args.arg0, args.arg1);
        return lp;
      }
    }
    ++me.stats.steal_fails;
    return StealQueue::kEmpty;
  }

  void park(std::uint32_t w) {
    WorkerData& me = workers_[w];
    parked_.fetch_add(1, std::memory_order_seq_cst);
    // Post-advertise re-scan (the other half of the enqueue handshake).
    if (stop_.load(std::memory_order_acquire) || has_queued_work() ||
        wheel_.next_deadline() <= now_ns()) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    ++me.stats.parks;
    if (auto* live_reg = config_.live) {
      live_reg->engine_add(obs::live::EngineGauge::WorkersParked, +1);
    }
    const std::uint64_t park_begin = now_ns();
    const std::uint64_t deadline = wheel_.next_deadline();
    bool token = false;
    {
      std::unique_lock lock(park_mutex_);
      const auto pred = [this] {
        return tokens_ > 0 || stop_.load(std::memory_order_relaxed);
      };
      if (deadline == TimerWheel::kNever) {
        // No timer pending: wake-up comes from a token. The bounded wait is
        // a safety backstop only (a tripped backstop shows up as a park with
        // neither token nor timer in the trace).
        park_cv_.wait_for(lock, std::chrono::milliseconds(250), pred);
      } else {
        // Relative wait, clamped to the backstop: converting an absolute
        // deadline near UINT64_MAX to a time_point would overflow the
        // clock's signed 64-bit rep into the past and busy-spin. A clamped
        // early wake just re-loops through advance_timers() and re-parks.
        const std::uint64_t now = now_ns();
        const auto wait = std::chrono::nanoseconds(std::min<std::uint64_t>(
            deadline > now ? deadline - now : 0, 250'000'000));
        park_cv_.wait_for(lock, wait, pred);
      }
      if (tokens_ > 0) {
        --tokens_;
        token = true;
      }
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
    if (auto* live_reg = config_.live) {
      live_reg->engine_add(obs::live::EngineGauge::WorkersParked, -1);
    }
    if (token) {
      ++me.stats.wakes;
    }
    const obs::TraceArgs args =
        obs::pack_worker_park(now_ns() - park_begin, token);
    record(w, obs::TraceKind::WorkerPark, park_begin, args.arg0, args.arg1);
  }

  void run_lp(class ThreadContext& ctx, std::uint32_t w, std::uint32_t lp);

  void worker_entry(std::uint32_t w);

  EngineRunResult collect() {
    EngineRunResult result;
    result.execution_time_ns = now_ns();
    result.scheduler.num_workers = num_workers_;
    result.scheduler.timers_scheduled =
        timers_scheduled_.load(std::memory_order_relaxed);
    for (const LpSlot& slot : slots_) {
      result.scheduler.mailbox_overflows += slot.mailbox.overflow_pushes();
    }
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      const WorkerData& wd = workers_[w];
      result.steps += wd.stats.steps;
      result.physical_messages += wd.physical_messages;
      result.wire_bytes += wd.wire_bytes;
      result.scheduler.workers.push_back(wd.stats);
      if (wd.ring) {
        obs::LpTraceLog log;
        log.lp = w;
        log.name = "worker " + std::to_string(w);
        log.dropped = wd.ring->dropped();
        log.records = wd.ring->drain();
        result.worker_traces.push_back(std::move(log));
      }
    }
    return result;
  }

  const ThreadedConfig& config_;
  const std::vector<LpRunner*>& runners_;
  std::uint32_t n_;
  std::uint32_t num_workers_;
  std::deque<LpSlot> slots_;      ///< deque: LpSlot is not movable
  std::deque<WorkerData> workers_;
  TimerWheel wheel_;
  SteadyClock::time_point start_;
  std::atomic<std::uint32_t> live_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> timers_scheduled_{0};

  std::atomic<int> parked_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  int tokens_ = 0;  ///< guarded by park_mutex_

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  friend class ThreadContext;
};

class ThreadContext final : public LpContext {
 public:
  ThreadContext(Scheduler& sched, std::uint32_t worker)
      : sched_(sched), worker_(worker) {}

  void begin_step(std::uint32_t lp) noexcept {
    lp_ = lp;
    yielded_ = false;
  }
  void end_step() noexcept {
    if (yielded_) {
      ++sched_.worker(worker_).stats.yields;
    }
  }

  [[nodiscard]] LpId self() const noexcept override { return lp_; }
  [[nodiscard]] LpId num_lps() const noexcept override {
    return sched_.num_lps();
  }

  [[nodiscard]] std::uint64_t now_ns() const noexcept override {
    return sched_.now_ns();
  }

  void charge(std::uint64_t ns) noexcept override {
    if (sched_.config().spin_on_charge && ns > 0) {
      const auto target = SteadyClock::now() + std::chrono::nanoseconds(ns);
      while (SteadyClock::now() < target) {
        // busy wait: burns the charged work as real CPU time
      }
    }
  }

  void send(LpId dst, std::unique_ptr<EngineMessage> msg) override {
    OTW_REQUIRE(dst < sched_.num_lps());
    OTW_REQUIRE(msg != nullptr);
    const std::uint64_t bytes = msg->wire_bytes();
    if (auto* live = sched_.config().live) {
      if (live->hists() != nullptr) {
        msg->obs_enqueue_ns = sched_.now_ns();
      }
    }
    sched_.slot(dst).mailbox.push(std::move(msg));
    if (auto* live = sched_.config().live) {
      live->engine_add(obs::live::EngineGauge::MailboxOccupancy, +1);
    }
    WorkerData& me = sched_.worker(worker_);
    ++me.physical_messages;
    me.wire_bytes += bytes;
    sched_.notify(dst, worker_);
  }

  std::unique_ptr<EngineMessage> poll() override {
    auto msg = sched_.slot(lp_).mailbox.pop();
    if (!msg.has_value()) {
      return nullptr;
    }
    if (auto* live = sched_.config().live) {
      live->engine_add(obs::live::EngineGauge::MailboxOccupancy, -1);
      if (auto* bank = live->hists()) {
        const std::uint64_t now = sched_.now_ns();
        const std::uint64_t queued = (*msg)->obs_enqueue_ns;
        bank->record(obs::hist::Seam::MailboxDwell,
                     now > queued ? now - queued : 0);
      }
    }
    return std::move(*msg);
  }

  void request_wakeup(std::uint64_t abs_ns) noexcept override {
    LpSlot& slot = sched_.slot(lp_);
    slot.wake_hint_ns = std::min(slot.wake_hint_ns, abs_ns);
  }

  [[nodiscard]] bool should_yield() const noexcept override {
    if (sched_.worker(worker_).queue.empty()) {
      return false;
    }
    yielded_ = true;
    return true;
  }

 private:
  Scheduler& sched_;
  std::uint32_t worker_;
  std::uint32_t lp_ = 0;
  mutable bool yielded_ = false;
};

void Scheduler::run_lp(ThreadContext& ctx, std::uint32_t w, std::uint32_t lp) {
  LpSlot& slot = slots_[lp];
  std::uint32_t expected = kScheduled;
  const bool claimed = slot.state.compare_exchange_strong(
      expected, kRunning, std::memory_order_acq_rel);
  OTW_REQUIRE_MSG(claimed, "LP dequeued in a non-Scheduled state");
  slot.wake_hint_ns = TimerWheel::kNever;

  ctx.begin_step(lp);
  const StepStatus status = runners_[lp]->step(ctx);
  ctx.end_step();
  ++workers_[w].stats.steps;

  switch (status) {
    case StepStatus::Done: {
      slot.state.store(kDone, std::memory_order_release);
      if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        stop_.store(true, std::memory_order_release);
        wake_all();
      }
      break;
    }
    case StepStatus::Active: {
      slot.state.exchange(kScheduled, std::memory_order_acq_rel);
      enqueue(lp, w);
      break;
    }
    case StepStatus::Idle: {
      if (slot.wake_hint_ns != TimerWheel::kNever) {
        // Arm the timer before publishing Idle: a fire racing the
        // transition lands as RunningNotified and re-enqueues below.
        wheel_.schedule(lp, slot.wake_hint_ns);
        timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
        if (advertised_parked() > 0) {
          // A parked worker may be waiting on a later (or no) deadline;
          // bounce one so it re-parks against the new earliest deadline.
          wake_one(w);
        }
      }
      std::uint32_t running = kRunning;
      if (!slot.state.compare_exchange_strong(running, kIdle,
                                              std::memory_order_acq_rel)) {
        // A message or timer landed mid-step: stay runnable. A stale wheel
        // entry may fire later; the resulting notify is spurious but safe.
        slot.state.exchange(kScheduled, std::memory_order_acq_rel);
        enqueue(lp, w);
      }
      break;
    }
  }
}

void Scheduler::worker_entry(std::uint32_t w) {
  ThreadContext ctx(*this, w);
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      advance_timers(w);
      std::uint32_t lp = workers_[w].queue.pop();
      if (lp == StealQueue::kEmpty) {
        lp = steal(w);
      }
      if (lp == StealQueue::kEmpty) {
        park(w);
        continue;
      }
      run_lp(ctx, w, lp);
    }
  } catch (...) {
    {
      const std::scoped_lock lock(error_mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    stop_.store(true, std::memory_order_release);
    wake_all();
  }
}

}  // namespace

EngineRunResult ThreadedEngine::run(const std::vector<LpRunner*>& lps) {
  OTW_REQUIRE(!lps.empty());
  for (auto* lp : lps) {
    OTW_REQUIRE(lp != nullptr);
  }
  Scheduler scheduler(config_, lps);
  return scheduler.run();
}

}  // namespace otw::platform
