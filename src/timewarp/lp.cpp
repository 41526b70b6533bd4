#include "otw/tw/lp.hpp"

#include <algorithm>

#include "otw/platform/wire.hpp"
#include "otw/tw/wire.hpp"
#include "wire_codec_internal.hpp"

namespace otw::tw {

LogicalProcess::LogicalProcess(
    LpId id, const KernelConfig& config, std::vector<LpId> object_to_lp,
    std::vector<std::pair<ObjectId, std::unique_ptr<SimulationObject>>> objects,
    const platform::CostModel* costs)
    : id_(id),
      config_(config),
      costs_(costs),
      object_to_lp_(std::move(object_to_lp)),
      local_index_(object_to_lp_.size(), kNoRuntime),
      channel_(id, config.num_lps, config.aggregation),
      gvt_(id, config.num_lps, config.gvt_period_events) {
  OTW_REQUIRE(id < config.num_lps);
  recorder_.configure(config_.observability, id_);
  if (config_.optimism.mode == KernelConfig::Optimism::Mode::Adaptive) {
    auto control = config_.optimism.control;
    control.initial_window = config_.optimism.window;
    control.min_window = std::min(control.min_window, control.initial_window);
    control.max_window = std::max(control.max_window, control.initial_window);
    optimism_.emplace(control);
  }
  if (config_.memory.budget_bytes > 0) {
    // The run-wide budget is split evenly: each LP polices its own share.
    const std::uint64_t per_lp = std::max<std::uint64_t>(
        config_.memory.budget_bytes / config_.num_lps, 1);
    pressure_.emplace(per_lp, config_.memory.control);
    stats_.memory_budget_bytes = per_lp;
  }
  runtimes_.reserve(objects.size());
  for (auto& [object_id, object] : objects) {
    OTW_REQUIRE(object_id < object_to_lp_.size());
    OTW_REQUIRE_MSG(object_to_lp_[object_id] == id_,
                    "object assigned to a different LP");
    local_index_[object_id] = runtimes_.size();
    ObjectRuntimeConfig runtime_config;
    runtime_config.checkpoint_interval = config_.checkpoint.interval;
    runtime_config.state_saving = config_.checkpoint.state_saving;
    runtime_config.full_snapshot_interval =
        config_.checkpoint.full_snapshot_interval;
    runtime_config.dynamic_checkpointing = config_.checkpoint.dynamic;
    runtime_config.checkpoint_control = config_.checkpoint.control;
    runtime_config.cancellation = config_.runtime.cancellation;
    runtime_config.passive_compare_cap = config_.runtime.passive_compare_cap;
    runtime_config.telemetry = config_.telemetry;
    runtimes_.push_back(std::make_unique<ObjectRuntime>(
        object_id, std::move(object), *this, runtime_config, costs_));
  }
  next_times_.assign(runtimes_.size(), VirtualTime::infinity());
}

std::uint64_t LogicalProcess::wall_now_ns() const noexcept {
  OTW_ASSERT(ctx_ != nullptr);
  return ctx_->now_ns();
}

void LogicalProcess::wall_charge(std::uint64_t ns) noexcept {
  OTW_ASSERT(ctx_ != nullptr);
  ctx_->charge(ns);
}

void LogicalProcess::price(obs::Phase phase,
                           std::uint64_t platform::CostModel::*cost) {
  if (costs_ != nullptr) {
    ctx_->charge(costs_->*cost);
    recorder_.phase_add(phase, costs_->*cost);
  }
}

void LogicalProcess::note_rollback(std::size_t undone) noexcept {
  optimism_rolled_back_ += undone;
  if (live_ != nullptr) {
    live_->store_gauge(id_, obs::live::Gauge::LastRollbackDepth, undone);
    if (auto* bank = live_->hists()) {
      // Distribution, not just the last value: a long tail here is the
      // classic over-optimism signature (events undone per rollback).
      bank->record(obs::hist::Seam::RollbackDepth, undone);
    }
  }
}

void LogicalProcess::publish_live() noexcept {
  using obs::live::Counter;
  using obs::live::Gauge;
  obs::live::LiveMetricsRegistry& live = *live_;
  ObjectStats objects;
  for (const auto& runtime : runtimes_) {
    objects.merge(runtime->snapshot_stats());
  }
  const LpStats lp = snapshot_lp_stats();
#define OTW_PUBLISH_OBJECT(name) live.store_counter(id_, Counter::name, objects.name);
#define OTW_PUBLISH_LP(name) live.store_counter(id_, Counter::name, lp.name);
  OTW_OBJECT_COUNTERS(OTW_PUBLISH_OBJECT)
  OTW_LP_COUNTERS(OTW_PUBLISH_LP)
#undef OTW_PUBLISH_OBJECT
#undef OTW_PUBLISH_LP
  live.store_gauge(id_, Gauge::MemoryBytes, lp.memory.total());
  live.store_gauge(id_, Gauge::MemoryBudgetBytes, lp.memory_budget_bytes);
  live.store_gauge(
      id_, Gauge::PressureState,
      pressure_ ? static_cast<std::uint64_t>(pressure_->state()) : 0);
}

VirtualTime LogicalProcess::processing_bound() const noexcept {
  VirtualTime bound = config_.end_time;
  std::uint64_t window = UINT64_MAX;
  switch (config_.optimism.mode) {
    case KernelConfig::Optimism::Mode::Unbounded:
      break;
    case KernelConfig::Optimism::Mode::Static:
      window = config_.optimism.window;
      break;
    case KernelConfig::Optimism::Mode::Adaptive:
      window = optimism_->window();
      break;
  }
  // Memory pressure clamps the window regardless of the optimism mode: an
  // over-budget LP stops running ahead even under Unbounded optimism.
  if (pressure_) {
    window = std::min(window, pressure_->window_clamp());
  }
  if (window == UINT64_MAX || gvt_value_.is_infinity()) {
    return bound;
  }
  const std::uint64_t ticks = gvt_value_.ticks();
  const VirtualTime horizon{ticks > UINT64_MAX - window - 1 ? UINT64_MAX - 1
                                                            : ticks + window};
  return min(bound, horizon);
}

VirtualTime LogicalProcess::emergency_horizon() const noexcept {
  if (gvt_value_.is_infinity()) {
    return VirtualTime::infinity();
  }
  const std::uint64_t window = config_.memory.control.emergency_window;
  const std::uint64_t ticks = gvt_value_.ticks();
  return VirtualTime{ticks > UINT64_MAX - window - 1 ? UINT64_MAX - 1
                                                     : ticks + window};
}

std::size_t LogicalProcess::local_index(ObjectId id) const {
  OTW_REQUIRE(id < local_index_.size() && local_index_[id] != kNoRuntime);
  return local_index_[id];
}

void LogicalProcess::deliver(const Event& event) {
  const std::size_t index = local_index(event.receiver);
  ObjectRuntime& runtime = *runtimes_[index];
  runtime.receive(event);
  next_times_[index] = runtime.next_event_time();
}

void LogicalProcess::refresh_next_times() noexcept {
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    next_times_[i] = runtimes_[i]->next_event_time();
  }
}

void LogicalProcess::route(Event&& event) {
  const LpId dst = object_to_lp_[event.receiver];
  if (dst == id_) {
    ++stats_.events_sent_local;
    // Deferred: delivering immediately could re-enter an object that is in
    // the middle of processing an event (cascaded rollback to self).
    local_inbox_.push_back(std::move(event));
    return;
  }
  // Cancelback-lite. An anti-message whose positive is still held must
  // annihilate in place: shipping it would reach the receiver before the
  // positive ever does (the receiver REQUIREs positive-before-anti).
  if (!held_sends_.empty() && event.negative && annihilate_held(event)) {
    return;
  }
  // Under Emergency pressure, positive sends beyond the emergency horizon
  // are held locally instead of growing the receiver's queues. Time Warp
  // tolerates arbitrary message delay, so committed results are unchanged;
  // local_min() covers held receive times, so GVT cannot overtake them.
  if (pressure_ &&
      pressure_->state() == core::PressureState::Emergency && !event.negative &&
      event.recv_time > emergency_horizon()) {
    ++stats_.sends_held;
    held_sends_.push_back(std::move(event));
    return;
  }
  ++stats_.events_sent_remote;
  event.color = gvt_.on_send(event.recv_time);
  channel_.enqueue(dst, std::move(event), ctx_->now_ns(),
                   [this](LpId to, std::vector<Event>&& batch) {
                     ship_batch(to, std::move(batch));
                   });
}

bool LogicalProcess::annihilate_held(const Event& anti) {
  const auto match =
      std::find_if(held_sends_.begin(), held_sends_.end(),
                   [&](const Event& held) { return held.matches_instance(anti); });
  if (match == held_sends_.end()) {
    return false;
  }
  held_sends_.erase(match);
  ++stats_.holds_annihilated;
  return true;
}

void LogicalProcess::flush_held(VirtualTime horizon) {
  if (held_sends_.empty()) {
    return;
  }
  std::vector<Event> keep;
  keep.reserve(held_sends_.size());
  for (Event& event : held_sends_) {
    if (event.recv_time > horizon) {
      keep.push_back(std::move(event));
      continue;
    }
    const LpId dst = object_to_lp_[event.receiver];
    ++stats_.events_sent_remote;
    event.color = gvt_.on_send(event.recv_time);
    channel_.enqueue(dst, std::move(event), ctx_->now_ns(),
                     [this](LpId to, std::vector<Event>&& batch) {
                       ship_batch(to, std::move(batch));
                     });
  }
  held_sends_ = std::move(keep);
}

void LogicalProcess::ship_batch(LpId dst, std::vector<Event>&& events) {
  if (recorder_.tracing()) {
    recorder_.record(obs::TraceKind::AggregateFlush, ctx_->now_ns(), id_,
                     gvt_value_.ticks(),
                     obs::pack_aggregate_flush(events.size(),
                                               channel_.window_us()));
  }
  ctx_->send(dst, std::make_unique<EventBatchMessage>(std::move(events),
                                                      batch_pool_.get()));
}

MemoryStats LogicalProcess::memory_footprint() const noexcept {
  MemoryStats m;
  for (const auto& runtime : runtimes_) {
    m.add(runtime->memory_footprint());
  }
  m.held_bytes = held_sends_.size() * sizeof(Event);
  m.pool_slab_bytes = event_pool_.stats().slab_bytes;
  return m;
}

void LogicalProcess::sample_pressure() {
  OTW_ASSERT(pressure_.has_value() && ctx_ != nullptr);
  const MemoryStats footprint = memory_footprint();
  stats_.memory = footprint;
  stats_.memory_peak_bytes =
      std::max(stats_.memory_peak_bytes, footprint.total());

  const core::PressureState before = pressure_->state();
  const bool changed = pressure_->update(footprint.total());
  price(obs::Phase::Control, &platform::CostModel::control_invocation_ns);
  const core::PressureState after = pressure_->state();

  if (changed && before == core::PressureState::Normal) {
    ++stats_.pressure_enters;
    pressure_enter_ns_ = ctx_->now_ns();
    if (recorder_.tracing()) {
      recorder_.record(obs::TraceKind::PressureEnter, ctx_->now_ns(), id_,
                       gvt_value_.ticks(),
                       obs::pack_pressure_enter(
                           footprint.total(), static_cast<std::uint8_t>(after),
                           pressure_->budget_bytes()));
    }
  }
  if (changed && after == core::PressureState::Normal) {
    ++stats_.pressure_exits;
    if (recorder_.tracing()) {
      recorder_.record(obs::TraceKind::PressureExit, ctx_->now_ns(), id_,
                       gvt_value_.ticks(),
                       obs::pack_pressure_exit(
                           footprint.total(),
                           ctx_->now_ns() - pressure_enter_ns_));
    }
    // Back under budget: everything deferred may flow again.
    flush_held(VirtualTime::infinity());
  }
  // Pull the adaptive controller's window down with the clamp so it does not
  // keep "remembering" a wide window while throttled.
  if (optimism_ && after != core::PressureState::Normal) {
    optimism_->clamp(pressure_->window_clamp());
  }
}

void LogicalProcess::deliver_local_pending() {
  // receive() may append more entries while we iterate; index-based loop.
  for (std::size_t i = 0; i < local_inbox_.size(); ++i) {
    const Event event = std::move(local_inbox_[i]);
    deliver(event);
  }
  local_inbox_.clear();
}

VirtualTime LogicalProcess::local_min() const noexcept {
  VirtualTime lowest = VirtualTime::infinity();
  for (const auto& runtime : runtimes_) {
    lowest = min(lowest, runtime->gvt_contribution(config_.end_time));
  }
  // Held sends are unacknowledged messages no queue can see — the same
  // soundness argument as lazy_pending_ in gvt_contribution. This term also
  // guarantees progress: GVT can never pass the earliest held receive time,
  // so apply_gvt's flush horizon (GVT + emergency window) eventually reaches
  // every held event.
  for (const Event& event : held_sends_) {
    lowest = min(lowest, event.recv_time);
  }
  return lowest;
}

std::size_t LogicalProcess::pick_lowest() const noexcept {
  std::size_t best = kNoRuntime;
  VirtualTime best_time = VirtualTime::infinity();
  for (std::size_t i = 0; i < next_times_.size(); ++i) {
    if (next_times_[i] < best_time) {
      best_time = next_times_[i];
      best = i;
    }
  }
  return best_time <= processing_bound() ? best : kNoRuntime;
}

void LogicalProcess::handle_token(const GvtTokenMessage& token) {
  if (recorder_.profiling()) {
    recorder_.phase_begin(obs::Phase::Gvt, ctx_->now_ns());
  }
  const GvtAgent::Outcome outcome = gvt_.on_token(token, local_min());
  if (outcome.forward) {
    ctx_->send(gvt_.next_lp(),
               std::make_unique<GvtTokenMessage>(*outcome.forward));
  }
  if (outcome.gvt) {
    complete_epoch(*outcome.gvt);
  }
  if (recorder_.profiling()) {
    recorder_.phase_end(ctx_->now_ns());
  }
}

void LogicalProcess::complete_epoch(VirtualTime gvt) {
  ++stats_.gvt_epochs;
  // Only the initiator completes an epoch, so start -> completion on this
  // LP's clock is the token's full ring traversal.
  if (live_ != nullptr && epoch_ever_started_ && ctx_ != nullptr) {
    if (auto* bank = live_->hists()) {
      const std::uint64_t now = ctx_->now_ns();
      bank->record(obs::hist::Seam::GvtRound,
                   now > last_epoch_start_ns_ ? now - last_epoch_start_ns_ : 0);
    }
  }
  for (LpId lp = 0; lp < config_.num_lps; ++lp) {
    if (lp != id_) {
      ctx_->send(lp, std::make_unique<GvtAnnounceMessage>(gvt));
    }
  }
  apply_gvt(gvt);
}

void LogicalProcess::apply_gvt(VirtualTime gvt) {
  OTW_REQUIRE_MSG(gvt >= gvt_value_, "GVT went backwards");
  gvt_value_ = gvt;
  if (recorder_.tracing()) {
    recorder_.record(obs::TraceKind::GvtEpoch, ctx_->now_ns(), id_,
                     gvt.is_infinity() ? UINT64_MAX : gvt.ticks());
  }
  // The footprint right before fossil collection is the epoch's high-water
  // mark: record it whether or not a budget is set, so unthrottled runs
  // report an honest peak too.
  {
    const MemoryStats before_fossil = memory_footprint();
    stats_.memory = before_fossil;
    stats_.memory_peak_bytes =
        std::max(stats_.memory_peak_bytes, before_fossil.total());
  }
  for (const auto& runtime : runtimes_) {
    runtime->fossil_collect(gvt);
  }
  if (live_ != nullptr) {
    live_->store_gvt(gvt.is_infinity() ? obs::live::kTicksInfinity
                                       : gvt.ticks());
    publish_live();
  }
  // Held sends within the emergency window of the new GVT must flow now:
  // one of them may be the global minimum (deadlock freedom). Re-sample so
  // footprint freed by fossil collection can lift the pressure state without
  // waiting out the control period.
  if (pressure_) {
    flush_held(emergency_horizon());
    if (ctx_ != nullptr && !gvt.is_infinity()) {
      sample_pressure();
    }
  }
  if (gvt.is_infinity()) {
    for (const auto& runtime : runtimes_) {
      runtime->finalize();
    }
    done_ = true;
  }
}

void LogicalProcess::drain_one(std::unique_ptr<platform::EngineMessage> msg) {
  // Dispatch on the registered wire tag — the same identity the distributed
  // transport routes by, so in-process and cross-process deliveries take one
  // code path (no downcast probing).
  switch (msg->wire_tag()) {
    case kTagEventBatch: {
      auto* batch = static_cast<EventBatchMessage*>(msg.get());
      for (Event& event : batch->events()) {
        // Both polarities count for GVT: anti-messages are messages too.
        gvt_.on_receive(event.color);
        deliver(event);
        deliver_local_pending();
      }
      return;
    }
    case kTagGvtToken:
      handle_token(*static_cast<GvtTokenMessage*>(msg.get()));
      return;
    case kTagGvtAnnounce:
      apply_gvt(static_cast<GvtAnnounceMessage*>(msg.get())->gvt());
      return;
    default:
      OTW_REQUIRE_MSG(false, "physical message with unknown wire tag");
  }
}

bool LogicalProcess::drain(bool stop_at_returning_token) {
  // Comm phase: self-time attribution means nested Rollback/Gvt scopes
  // opened while handling a message are subtracted back out.
  const bool profile = recorder_.profiling();
  if (profile) {
    recorder_.phase_begin(obs::Phase::Comm, ctx_->now_ns());
  }
  bool any = false;
  bool token_seen = false;
  while (auto msg = ctx_->poll()) {
    any = true;
    const bool token = msg->wire_tag() == kTagGvtToken;
    drain_one(std::move(msg));
    if (token) {
      if (token_seen && stop_at_returning_token) {
        break;
      }
      token_seen = true;
    }
  }
  if (profile) {
    recorder_.phase_end(ctx_->now_ns());
  }
  return any;
}

platform::StepStatus LogicalProcess::step(platform::LpContext& ctx) {
  ctx_ = &ctx;
  struct CtxReset {
    platform::LpContext** slot;
    ~CtxReset() { *slot = nullptr; }
  } reset{&ctx_};

  ++stats_.steps;

  if (!initialized_) {
    for (const auto& runtime : runtimes_) {
      runtime->initialize();
    }
    refresh_next_times();
    deliver_local_pending();
    initialized_ = true;
  }
  if (done_) {
    return platform::StepStatus::Done;
  }

  // A GVT token that comes round again within one drain has circled the
  // ring while this LP was still draining: stop after it so the step
  // reaches its channel pump. White events parked in this LP's aggregation
  // channel keep every round's count open, and an LP that forwarded each
  // round without ever pumping would circulate the token forever. A step
  // that handled a message returns Active, so the rest of the inbox waits
  // one step. (On SimulatedNow no token returns within a step: the other
  // LPs do not run during it.)
  const bool received = drain(/*stop_at_returning_token=*/true);
  if (done_) {
    return platform::StepStatus::Done;
  }

  // Process a batch of lowest-timestamp-first events (bounded, when
  // configured, by the optimism window above GVT). batch_size alone bounds
  // how long this LP holds its worker.
  std::uint32_t processed = 0;
  while (processed < config_.batch_size) {
    const std::size_t lowest = pick_lowest();
    if (lowest == kNoRuntime) {
      break;
    }
    ObjectRuntime& runtime = *runtimes_[lowest];
    const bool ran = runtime.process_next();
    next_times_[lowest] = runtime.next_event_time();
    if (!ran) {
      break;
    }
    gvt_.on_event_processed();
    deliver_local_pending();
    ++processed;
  }
  events_processed_total_ += processed;
  if (live_ != nullptr && processed > 0) {
    publish_live();
  }
  if (config_.telemetry.enabled && processed > 0) {
    events_since_sample_ += processed;
    if (events_since_sample_ >= config_.telemetry.sample_period_events) {
      events_since_sample_ = 0;
      LpSample sample;
      sample.events_processed = events_processed_total_;
      sample.gvt = gvt_value_;
      sample.aggregation_window_us = channel_.window_us();
      sample.optimism_window =
          config_.optimism.mode == KernelConfig::Optimism::Mode::Unbounded
              ? 0
              : (optimism_ ? optimism_->window() : config_.optimism.window);
      sample.memory_bytes = memory_footprint().total();
      sample.pressure = pressure_ ? static_cast<std::uint8_t>(pressure_->state())
                                  : 0;
      trace_.push_back(sample);
      if (recorder_.tracing()) {
        recorder_.record(obs::TraceKind::TelemetrySample, ctx.now_ns(), id_,
                         gvt_value_.ticks(),
                         obs::pack_lp_sample(events_processed_total_));
      }
    }
  }
  if (optimism_) {
    optimism_->record_processed(processed);
    optimism_->record_rolled_back(optimism_rolled_back_);
    optimism_rolled_back_ = 0;
    if (optimism_->maybe_adapt()) {
      price(obs::Phase::Control, &platform::CostModel::control_invocation_ns);
      if (recorder_.tracing()) {
        recorder_.record(obs::TraceKind::OptimismDecision, ctx.now_ns(), id_,
                         gvt_value_.ticks(),
                         obs::pack_optimism_decision(
                             optimism_->window(),
                             optimism_->last_rollback_fraction()));
      }
    }
  }

  if (pressure_) {
    pressure_->record_processed(processed);
    if (pressure_->due()) {
      sample_pressure();
    }
  }

  if (processed == 0) {
    // Nothing runnable: resolve lazy/passive entries that can no longer be
    // regenerated (may emit anti-messages).
    for (const auto& runtime : runtimes_) {
      runtime->idle_flush();
    }
    deliver_local_pending();
  }

  // Flush aggregates whose window has expired.
  if (recorder_.profiling()) {
    recorder_.phase_begin(obs::Phase::Comm, ctx.now_ns());
  }
  channel_.pump(ctx.now_ns(), [this](LpId to, std::vector<Event>&& batch) {
    ship_batch(to, std::move(batch));
  });
  if (recorder_.profiling()) {
    recorder_.phase_end(ctx.now_ns());
  }

  const bool idle_now = processed == 0 && !received && !channel_.has_pending();
  // Under pressure, GVT is the release valve: every epoch advances the
  // fossil horizon and the held-send flush horizon. Start epochs eagerly
  // (still subject to the rate limit below) instead of waiting out
  // gvt_period_events.
  const bool urgent =
      pressure_ && pressure_->state() != core::PressureState::Normal;

  if (gvt_.should_start(idle_now || urgent)) {
    const std::uint64_t earliest =
        epoch_ever_started_ ? last_epoch_start_ns_ + config_.gvt_min_interval_ns
                            : 0;
    if (ctx.now_ns() < earliest) {
      // Too soon: wait out the rate limit (parked if idle, since no message
      // may ever arrive to wake us for the termination-detecting epoch).
      ctx.request_wakeup(earliest);
    } else {
      last_epoch_start_ns_ = ctx.now_ns();
      epoch_ever_started_ = true;
      if (urgent) {
        ++stats_.pressure_gvt_triggers;
      }
      if (recorder_.profiling()) {
        recorder_.phase_begin(obs::Phase::Gvt, ctx.now_ns());
      }
      const GvtAgent::Outcome outcome = gvt_.start_epoch(local_min());
      if (outcome.forward) {
        ctx_->send(gvt_.next_lp(),
                   std::make_unique<GvtTokenMessage>(*outcome.forward));
      }
      if (outcome.gvt) {
        complete_epoch(*outcome.gvt);
      }
      if (recorder_.profiling()) {
        recorder_.phase_end(ctx.now_ns());
      }
      if (done_) {
        return platform::StepStatus::Done;
      }
      return platform::StepStatus::Active;
    }
  }

  if (idle_now) {
    ++stats_.idle_polls;
    price(obs::Phase::Idle, &platform::CostModel::idle_poll_ns);
    return platform::StepStatus::Idle;
  }
  if (processed == 0) {
    price(obs::Phase::Idle, &platform::CostModel::idle_poll_ns);
    if (!received && channel_.has_pending()) {
      // Nothing to do until an aggregate window expires (or a message
      // lands): tell the engine when to come back instead of busy-polling.
      ctx.request_wakeup(channel_.next_deadline_ns());
      return platform::StepStatus::Idle;
    }
  }
  return platform::StepStatus::Active;
}

bool LogicalProcess::snapshot_settle(platform::LpContext& ctx) {
  ctx_ = &ctx;
  struct CtxReset {
    platform::LpContext** slot;
    ~CtxReset() { *slot = nullptr; }
  } reset{&ctx_};

  bool moved = false;
  if (!initialized_) {
    // Settle ordered before this LP's first step: run time-zero
    // initialization here (it would have happened on the next step anyway)
    // so the cut below never sees a half-born LP.
    for (const auto& runtime : runtimes_) {
      runtime->initialize();
    }
    refresh_next_times();
    initialized_ = true;
    moved = true;
  }
  if (drain()) {
    moved = true;
  }
  if (!local_inbox_.empty()) {
    deliver_local_pending();
    moved = true;
  }
  if (channel_.has_pending()) {
    // Events parked in an open aggregate were Mattern-counted when routed
    // but will not be *received* until the batch ships — an in-flight GVT
    // epoch (and the shard-level channel-op counters the coordinator polls)
    // can never stabilize over them. Force them onto the wire.
    channel_.flush_all(ctx.now_ns(),
                      [this](LpId to, std::vector<Event>&& batch) {
                        ship_batch(to, std::move(batch));
                      });
    moved = true;
  }
  return moved;
}

bool LogicalProcess::snapshot_cut(platform::LpContext& ctx) {
  ctx_ = &ctx;
  struct CtxReset {
    platform::LpContext** slot;
    ~CtxReset() { *slot = nullptr; }
  } reset{&ctx_};

  drain();
  if (done_) {
    return false;  // endgame: a finished LP has nothing left to protect
  }
  // Every runtime rolls back to the cut before any same-LP anti is
  // delivered — each anti then meets a now-unprocessed positive and
  // annihilates without further rollback — then the inbox settles and held
  // sends / open aggregates reach the wire, their Mattern colors counted
  // before the GVT agent is serialized. The coordinator re-settles the mesh
  // afterwards, so cut-born antis land before serialization.
  for (const auto& runtime : runtimes_) {
    runtime->migration_freeze(gvt_value_);
  }
  refresh_next_times();
  deliver_local_pending();
  flush_held(VirtualTime::infinity());
  channel_.flush_all(ctx.now_ns(), [this](LpId to, std::vector<Event>&& batch) {
    ship_batch(to, std::move(batch));
  });
  OTW_ASSERT(local_inbox_.empty() && held_sends_.empty() &&
             !channel_.has_pending());
  return true;
}

void LogicalProcess::snapshot_encode(platform::LpContext& ctx,
                                     platform::WireWriter& w) {
  ctx_ = &ctx;
  struct CtxReset {
    platform::LpContext** slot;
    ~CtxReset() { *slot = nullptr; }
  } reset{&ctx_};

  // Nothing is reset: a snapshot's LP keeps executing after the epoch
  // resumes, and a moved LP's copy left behind is only ever restored.
  OTW_ASSERT(local_inbox_.empty() && held_sends_.empty() &&
             !channel_.has_pending());
  w.u64(gvt_value_.ticks());
  gvt_.export_state(w);
  detail::write_pod(w, stats_);
  w.u64(events_processed_total_);
  detail::write_pod_vector(w, trace_);
  w.u32(static_cast<std::uint32_t>(runtimes_.size()));
  for (const auto& runtime : runtimes_) {
    runtime->encode_frozen(w);
  }
}

void LogicalProcess::snapshot_restore(platform::LpContext& ctx,
                                      platform::WireReader& r) {
  ctx_ = &ctx;
  struct CtxReset {
    platform::LpContext** slot;
    ~CtxReset() { *slot = nullptr; }
  } reset{&ctx_};

  gvt_value_ = VirtualTime{r.u64()};
  gvt_.import_state(r);
  stats_ = detail::read_pod<LpStats>(r);
  events_processed_total_ = r.u64();
  trace_ = detail::read_pod_vector<LpSample>(r);

  // This copy may hold the state of a rolled-back incarnation, of an
  // earlier stay on this shard, or none at all: reset every LP-local
  // transient and rebuild the per-LP controllers exactly as the constructor
  // did. Post-cut aggregates must never reach the wire. The shipped state
  // replaces time-zero initialization.
  channel_.discard_all();
  local_inbox_.clear();
  held_sends_.clear();
  optimism_rolled_back_ = 0;
  pressure_enter_ns_ = 0;
  last_epoch_start_ns_ = 0;
  epoch_ever_started_ = false;
  events_since_sample_ = 0;
  initialized_ = true;
  done_ = false;
  if (config_.optimism.mode == KernelConfig::Optimism::Mode::Adaptive) {
    auto control = config_.optimism.control;
    control.initial_window = config_.optimism.window;
    control.min_window = std::min(control.min_window, control.initial_window);
    control.max_window = std::max(control.max_window, control.initial_window);
    optimism_.emplace(control);
  }
  if (config_.memory.budget_bytes > 0) {
    const std::uint64_t per_lp = std::max<std::uint64_t>(
        config_.memory.budget_bytes / config_.num_lps, 1);
    pressure_.emplace(per_lp, config_.memory.control);
    stats_.memory_budget_bytes = per_lp;
  }

  const std::uint32_t count = r.u32();
  OTW_REQUIRE_MSG(count == runtimes_.size(),
                  "MIGRATE frame runtime count mismatch");
  for (std::uint32_t i = 0; i < count; ++i) {
    const ObjectId object_id = r.u32();
    runtimes_[local_index(object_id)]->migrate_in(r, gvt_value_);
  }
  refresh_next_times();
  if (live_ != nullptr) {
    publish_live();
  }
}

LpStats LogicalProcess::snapshot_lp_stats() const {
  LpStats s = stats_;
  s.gvt_rounds = gvt_.rounds();
  const comm::AggregationStats& agg = channel_.stats();
  s.aggregates_sent = agg.aggregates_sent;
  s.messages_aggregated = agg.messages_enqueued;
  s.aggregate_size = agg.aggregate_size;
  s.aggregation_window_us = agg.window_us;
  s.memory = memory_footprint();
  s.memory_peak_bytes = std::max(s.memory_peak_bytes, s.memory.total());
  s.pool_recycled_blocks = event_pool_.stats().freelist_hits;
  return s;
}

}  // namespace otw::tw
