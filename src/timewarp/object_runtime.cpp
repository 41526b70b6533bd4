#include "otw/tw/object_runtime.hpp"

#include <algorithm>

#include "otw/platform/wire.hpp"
#include "otw/tw/wire.hpp"
#include "wire_codec_internal.hpp"

namespace otw::tw {

ObjectRuntime::ObjectRuntime(ObjectId id, std::unique_ptr<SimulationObject> object,
                             LpServices& lp, const ObjectRuntimeConfig& config,
                             const platform::CostModel* costs)
    : id_(id),
      object_(std::move(object)),
      lp_(lp),
      rec_(lp.recorder()),
      config_(config),
      costs_(costs),
      input_(make_pending_set(lp.queue_kind(), lp.event_pool())),
      states_(make_checkpoint_store(config.state_saving,
                                    config.full_snapshot_interval, &arena_)),
      ckpt_(config.checkpoint_control),
      cancel_(config.cancellation) {
  OTW_REQUIRE(object_ != nullptr);
  OTW_REQUIRE(config.checkpoint_interval >= 1);
}

void ObjectRuntime::initialize() {
  current_state_ = object_->initial_state();
  OTW_REQUIRE(current_state_ != nullptr);
  lvt_ = VirtualTime::zero();
  current_pos_ = Position::before_all();
  sends_this_event_ = 0;
  // Initial sends are recorded with cause == before_all(), which no rollback
  // target can ever invalidate.
  processing_ = true;
  object_->initialize(*this);
  processing_ = false;
  save_state(Position::before_all());
  events_since_save_ = 0;
}

bool ObjectRuntime::process_next() {
  const Event* next = input_->peek_next();
  if (next == nullptr || next->recv_time > lp_.end_time()) {
    return false;
  }
  const Position pos = next->position();
  flush_resolved_before(pos);
  execute(*next);
  input_->advance();
  maybe_checkpoint(pos);
  if (config_.dynamic_checkpointing && ckpt_.on_event_processed()) {
    ++stats_.checkpoint_control_ticks;
    if (costs_ != nullptr) {
      lp_.wall_charge(costs_->control_invocation_ns);
      rec_.phase_add(obs::Phase::Control, costs_->control_invocation_ns);
    }
    if (rec_.tracing()) {
      rec_.record(obs::TraceKind::CheckpointDecision, lp_.wall_now_ns(), id_,
                  lvt_.ticks(),
                  obs::pack_checkpoint_decision(ckpt_.interval(),
                                                ckpt_.last_cost_index()));
    }
  }
  if (config_.telemetry.enabled &&
      ++events_since_sample_ >= config_.telemetry.sample_period_events) {
    events_since_sample_ = 0;
    trace_.push_back(ObjectSample{stats_.events_processed, lvt_,
                                  checkpoint_interval(), cancel_.hit_ratio(),
                                  cancel_.mode(), stats_.rollbacks,
                                  memory_footprint().total()});
    if (rec_.tracing()) {
      rec_.record(obs::TraceKind::TelemetrySample, lp_.wall_now_ns(), id_,
                  lvt_.ticks(),
                  obs::pack_object_sample(
                      cancel_.mode() == core::CancellationMode::Lazy,
                      cancel_.hit_ratio()));
    }
  }
  return true;
}

void ObjectRuntime::execute(const Event& event) {
  processing_ = true;
  current_pos_ = event.position();
  sends_this_event_ = 0;
  lvt_ = event.recv_time;
  // Coast-forward re-execution is accounted to the CoastForward phase by the
  // enclosing scope; only first-class executions open an EventProcessing one.
  const bool observe = !suppress_sends_;
  if (observe) {
    if (rec_.profiling()) {
      rec_.phase_begin(obs::Phase::EventProcessing, lp_.wall_now_ns());
    }
    if (rec_.tracing()) {
      rec_.record(obs::TraceKind::EventProcessed, lp_.wall_now_ns(), id_,
                  event.recv_time.ticks());
    }
  }
  if (costs_ != nullptr) {
    lp_.wall_charge(costs_->event_overhead_ns);
  }
  object_->process_event(*this, event);
  processing_ = false;
  ++stats_.events_processed;
  if (observe && rec_.profiling()) {
    rec_.phase_end(lp_.wall_now_ns());
  }
}

void ObjectRuntime::send(ObjectId dest, VirtualTime::rep delay, const Payload& payload) {
  OTW_REQUIRE_MSG(processing_, "send() is only valid while processing an event");
  OTW_REQUIRE_MSG(delay >= 1,
                  "zero-delay messages would make the committed order depend on "
                  "the execution interleaving");
  Event event;
  event.sender = id_;
  event.receiver = dest;
  event.send_time = lvt_;
  event.recv_time = lvt_ + delay;
  event.seq = derive_send_seq(current_pos_.key.recv_time, current_pos_.key.sender,
                              current_pos_.key.seq, id_, sends_this_event_++);
  event.instance = instance_seq_++;
  event.payload = payload;
  emit(std::move(event));
}

void ObjectRuntime::emit(Event&& event) {
  if (suppress_sends_) {
    // Coast-forward: this exact message was already sent and is still
    // correct; re-execution only rebuilds the state.
    return;
  }

  // Lazy-cancellation regeneration check: identical to a prematurely sent
  // message (same receiver, receive time, seq and payload)? Then that
  // message stands; nothing is transmitted.
  if (!lazy_pending_.empty()) {
    if (costs_ != nullptr) {
      lp_.wall_charge(costs_->comparison_cost_ns);
    }
    const auto match = std::find_if(
        lazy_pending_.begin(), lazy_pending_.end(), [&](const OutputEntry& entry) {
          return entry.event.seq == event.seq && entry.event.same_content(event);
        });
    if (match != lazy_pending_.end()) {
      // Keep the ORIGINAL instance: a future rollback must cancel the
      // physical message that is actually at the receiver.
      output_.record(current_pos_, match->event);
      lazy_pending_.erase(match);
      ++stats_.lazy_hits;
      note_comparison(true);
      return;
    }
  }

  // Passive comparison under aggressive cancellation: the original was
  // already cancelled, so the new message is sent regardless; the outcome
  // only feeds the Hit Ratio. Skipped entirely once the controller froze
  // (that skip is the PS/PA variants' performance edge).
  if (!passive_.empty() && cancel_.monitoring()) {
    if (costs_ != nullptr) {
      lp_.wall_charge(costs_->comparison_cost_ns);
    }
    const auto match = std::find_if(
        passive_.begin(), passive_.end(), [&](const OutputEntry& entry) {
          return entry.event.seq == event.seq &&
                 entry.event.receiver == event.receiver &&
                 entry.event.recv_time == event.recv_time;
        });
    if (match != passive_.end()) {
      const bool hit = match->event.payload == event.payload;
      hit ? ++stats_.passive_hits : ++stats_.passive_misses;
      note_comparison(hit);
      passive_.erase(match);
    }
  }

  output_.record(current_pos_, event);
  ++stats_.messages_sent;
  lp_.route(std::move(event));
}

void ObjectRuntime::send_anti(const Event& original) {
  ++stats_.anti_messages_sent;
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::AntiSent, lp_.wall_now_ns(), id_,
                original.recv_time.ticks(),
                obs::pack_anti_sent(original.receiver,
                                    original.send_time.ticks()));
  }
  lp_.route(original.make_anti());
}

void ObjectRuntime::note_comparison(bool hit) {
  const core::CancellationMode before = cancel_.mode();
  cancel_.record_comparison(hit);
  const core::CancellationMode after = cancel_.mode();
  if (after != before && rec_.tracing()) {
    rec_.record(obs::TraceKind::CancellationSwitch, lp_.wall_now_ns(), id_,
                lvt_.ticks(),
                obs::pack_cancellation_switch(
                    after == core::CancellationMode::Lazy,
                    cancel_.hit_ratio()));
  }
}

void ObjectRuntime::receive(const Event& event) {
  OTW_REQUIRE_MSG(event.receiver == id_, "event routed to the wrong object");
  if (event.negative) {
    ++stats_.anti_messages_received;
    if (rec_.tracing()) {
      rec_.record(obs::TraceKind::AntiReceived, lp_.wall_now_ns(), id_,
                  event.recv_time.ticks());
    }
    const auto status = input_->find_match(event);
    OTW_REQUIRE_MSG(status != MatchStatus::NotFound,
                    "anti-message with no positive to annihilate: every "
                    "transport is FIFO per (source, destination) pair");
    if (status == MatchStatus::Processed) {
      rollback(event.position(), event, /*cancel_at_target=*/true);
      // The annihilated event itself was processed and is now undone (the
      // rollback only counted the events after it).
      ++stats_.events_rolled_back;
    }
    input_->erase_match(event);
    // Comparison entries caused by the annihilated event can never be
    // regenerated (it is gone): cancel the physical messages, but record no
    // hit/miss — this is cascaded cancellation, not failed speculation.
    purge_entries_caused_by(event.position());
  } else {
    if (input_->insert(event)) {
      ++stats_.stragglers;
      rollback(event.position(), event);
    }
  }
}

void ObjectRuntime::rollback(const Position& target, const Event& cause,
                             bool cancel_at_target) {
  OTW_REQUIRE_MSG(target.recv_time() >= gvt_bound_,
                  "rollback below GVT: the GVT algorithm is unsound");
  ++stats_.rollbacks;
  const std::size_t undone = input_->processed_after(target);
  stats_.events_rolled_back += undone;
  lp_.note_rollback(undone);
  if (rec_.profiling()) {
    rec_.phase_begin(obs::Phase::Rollback, lp_.wall_now_ns());
  }
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::RollbackBegin, lp_.wall_now_ns(), id_,
                target.recv_time().ticks(),
                obs::pack_rollback_cause(cause.sender, cause.negative,
                                         cause.send_time.ticks()));
  }

  // Restore the latest checkpoint before the target; the abandoned working
  // state is recycled into the arena.
  RestorePoint keeper = states_->restore_before(target);
  arena_.release(std::move(current_state_));
  current_state_ = std::move(keeper.state);
  lvt_ = keeper.pos.recv_time();
  input_->rewind_to_after(keeper.pos);
  events_since_save_ = 0;
  ++stats_.state_restores;
  if (costs_ != nullptr) {
    lp_.wall_charge(costs_->rollback_fixed_ns + costs_->state_restore_ns);
  }
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::StateRestore, lp_.wall_now_ns(), id_,
                keeper.pos.recv_time().ticks());
  }

  // Outputs caused by re-executed events are no longer trustworthy.
  std::vector<OutputEntry> invalid = output_.extract_after(target, cancel_at_target);
  if (cancel_at_target) {
    // Outputs of the annihilated event itself: the event will never
    // re-execute, so there is nothing to compare against — cancel them
    // unconditionally and record no hit/miss (they would otherwise poison
    // the Hit Ratio with guaranteed misses).
    auto split = invalid.begin();
    while (split != invalid.end() && split->cause == target) {
      send_anti(split->event);
      ++split;
    }
    invalid.erase(invalid.begin(), split);
  }
  cancel_invalid_outputs(std::move(invalid));

  coast_forward(target);
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::RollbackEnd, lp_.wall_now_ns(), id_,
                target.recv_time().ticks(), undone);
  }
  if (rec_.profiling()) {
    rec_.phase_end(lp_.wall_now_ns());
  }
}

void ObjectRuntime::coast_forward(const Position& target) {
  const std::uint64_t start_ns = lp_.wall_now_ns();
  const std::uint64_t events_before = stats_.coast_forward_events;
  if (rec_.profiling()) {
    rec_.phase_begin(obs::Phase::CoastForward, start_ns);
  }
  suppress_sends_ = true;
  while (const Event* next = input_->peek_next()) {
    if (!(next->position() < target)) {
      break;
    }
    execute(*next);
    input_->advance();
    ++stats_.coast_forward_events;
  }
  suppress_sends_ = false;
  const std::uint64_t end_ns = lp_.wall_now_ns();
  if (rec_.profiling()) {
    rec_.phase_end(end_ns);
  }
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::CoastForward, start_ns, id_,
                target.recv_time().ticks(),
                stats_.coast_forward_events - events_before, end_ns - start_ns);
  }
  if (config_.dynamic_checkpointing) {
    ckpt_.record_coast_forward(end_ns - start_ns);
  }
}

void ObjectRuntime::cancel_invalid_outputs(std::vector<OutputEntry>&& invalid) {
  if (invalid.empty()) {
    return;
  }
  if (cancel_.mode() == core::CancellationMode::Lazy) {
    // Park them: forward re-execution decides hit (keep) or miss (cancel).
    // Entries from an earlier, shallower rollback may already be pending;
    // keep the list sorted by cause.
    lazy_pending_.insert(lazy_pending_.end(),
                         std::make_move_iterator(invalid.begin()),
                         std::make_move_iterator(invalid.end()));
    std::sort(lazy_pending_.begin(), lazy_pending_.end(),
              [](const OutputEntry& a, const OutputEntry& b) {
                return a.cause < b.cause ||
                       (a.cause == b.cause && a.event.instance < b.event.instance);
              });
  } else {
    for (OutputEntry& entry : invalid) {
      send_anti(entry.event);
      if (cancel_.monitoring() && passive_.size() < config_.passive_compare_cap) {
        passive_.push_back(std::move(entry));
      }
    }
  }
}

void ObjectRuntime::purge_entries_caused_by(const Position& cause) {
  std::erase_if(lazy_pending_, [&](const OutputEntry& entry) {
    if (entry.cause != cause) {
      return false;
    }
    send_anti(entry.event);  // the premature message is physically out there
    return true;
  });
  std::erase_if(passive_, [&](const OutputEntry& entry) {
    return entry.cause == cause;  // original was already cancelled
  });
}

void ObjectRuntime::flush_resolved_before(const Position& pos) {
  // Lazy entries whose generating position has been passed without an
  // identical regeneration: the premature message was wrong after all.
  while (!lazy_pending_.empty() && lazy_pending_.front().cause < pos) {
    send_anti(lazy_pending_.front().event);
    ++stats_.lazy_misses;
    note_comparison(false);
    lazy_pending_.erase(lazy_pending_.begin());
  }
  // Passive entries past their position: recorded as misses (no anti; the
  // original was already cancelled aggressively).
  while (!passive_.empty() && passive_.front().cause < pos) {
    ++stats_.passive_misses;
    note_comparison(false);
    passive_.erase(passive_.begin());
  }
}

void ObjectRuntime::idle_flush() {
  flush_resolved_before(input_->peek_next() == nullptr
                            ? Position::after_all()
                            : input_->peek_next()->position());
}

VirtualTime ObjectRuntime::gvt_contribution(VirtualTime end_time) const noexcept {
  VirtualTime lowest = next_event_time();
  if (lowest > end_time) {
    // Events beyond the simulation horizon will never run.
    lowest = VirtualTime::infinity();
  }
  // Lazy-pending entries are future anti-messages the GVT algorithm cannot
  // see in any queue: a miss will send an anti-message timestamped at the
  // entry's receive time. Without this term, GVT can overtake a doomed
  // premature message, the receiver commits it, and the late anti-message
  // finds nothing to annihilate.
  for (const OutputEntry& entry : lazy_pending_) {
    lowest = min(lowest, entry.event.recv_time);
  }
  return lowest;
}

void ObjectRuntime::fossil_collect(VirtualTime gvt) {
  gvt_bound_ = gvt;
  const Position keeper = states_->fossil_collect(gvt);
  const std::size_t committed = input_->fossil_collect_before(keeper);
  stats_.events_committed += committed;
  output_.fossil_collect_before(gvt);
  if (committed > 0 && rec_.tracing()) {
    rec_.record(obs::TraceKind::EventsCommitted, lp_.wall_now_ns(), id_,
                gvt.ticks(), committed);
  }
}

void ObjectRuntime::finalize() {
  OTW_ASSERT(lazy_pending_.empty());
  stats_.events_committed += input_->processed_count();
  processing_ = true;  // allow finalize() to read state via the context
  object_->finalize(*this);
  processing_ = false;
}

void ObjectRuntime::migration_freeze(VirtualTime gvt) {
  OTW_ASSERT(!processing_);
  // The minimal position with receive time == gvt: it orders before every
  // real event at/after the cut, and fossil collection keeps a checkpoint
  // strictly before it (the kept checkpoint's receive time is < gvt). At
  // GVT 0 that position IS before_all(), where the initial checkpoint sits,
  // so the cut moves one instance past it; every real event still follows
  // it, since none has receive time 0 (sends need a delay >= 1).
  const Position cut{EventKey{gvt, 0, 0}, gvt == VirtualTime{0} ? 1u : 0u};
  if (input_->processed_after(cut) > 0) {
    Event cause;  // synthetic straggler standing in for the freeze order
    cause.sender = id_;
    cause.receiver = id_;
    cause.send_time = gvt;
    cause.recv_time = gvt;
    rollback(cut, cause);
  }
  // Every surviving comparison entry is a forced miss: the source shard will
  // not re-execute anything, so premature messages must be cancelled now.
  // Their receive times are >= gvt (the entries' causes survived fossil
  // collection at gvt only if still cancellable), so the receivers can still
  // annihilate them.
  flush_resolved_before(Position::after_all());
  OTW_ASSERT(lazy_pending_.empty());
  OTW_ASSERT(passive_.empty());
}

void ObjectRuntime::encode_frozen(platform::WireWriter& w) {
  OTW_ASSERT(lazy_pending_.empty() && passive_.empty());
  w.u32(id_);
  w.u64(lvt_.ticks());
  w.u64(current_pos_.key.recv_time.ticks());
  w.u32(current_pos_.key.sender);
  w.u64(current_pos_.key.seq);
  w.u64(current_pos_.instance);
  w.u64(instance_seq_);
  const std::byte* raw = current_state_->raw_bytes();
  OTW_REQUIRE_MSG(raw != nullptr,
                  "LP migration requires a flat object state (raw_bytes)");
  const std::size_t state_len = current_state_->byte_size();
  w.u32(static_cast<std::uint32_t>(state_len));
  w.bytes(raw, state_len);
  // The processed prefix is final on the receiving side: no rollback can
  // reach below the cut, so the shipped stats count it as committed. Only
  // the serialized copy is touched — a snapshot must leave a continuing
  // runtime byte-identical to one that never snapshotted.
  ObjectStats shipped = snapshot_stats();
  shipped.events_committed += input_->processed_count();
  detail::write_pod(w, shipped);
  detail::write_pod_vector(w, trace_);
  // Remaining output entries have causes below the cut; they can never be
  // cancelled (rollback below GVT is impossible), so the queue is not
  // serialized. Unprocessed events travel.
  const std::vector<Event> all = input_->snapshot();
  const std::size_t processed = input_->processed_count();
  w.u32(static_cast<std::uint32_t>(all.size() - processed));
  for (std::size_t i = processed; i < all.size(); ++i) {
    encode_event(w, all[i]);
  }
}

void ObjectRuntime::migrate_in(platform::WireReader& r, VirtualTime gvt) {
  // The caller dispatched on the object id; the reader is positioned at lvt.
  lvt_ = VirtualTime{r.u64()};
  current_pos_.key.recv_time = VirtualTime{r.u64()};
  current_pos_.key.sender = r.u32();
  current_pos_.key.seq = r.u64();
  current_pos_.instance = r.u64();
  instance_seq_ = r.u64();
  const std::uint32_t state_len = r.u32();
  current_state_ = object_->initial_state();
  OTW_REQUIRE(current_state_ != nullptr);
  OTW_REQUIRE_MSG(current_state_->mutable_raw_bytes() != nullptr &&
                      current_state_->byte_size() == state_len,
                  "LP migration requires a flat object state of fixed size");
  r.bytes(current_state_->mutable_raw_bytes(), state_len);
  stats_ = detail::read_pod<ObjectStats>(r);
  trace_ = detail::read_pod_vector<ObjectSample>(r);

  // Fresh history structures; the shipped totals stay in stats_ and the
  // per-object controllers restart their adaptation from scratch.
  input_ = make_pending_set(lp_.queue_kind(), lp_.event_pool());
  output_ = OutputQueue{};
  states_ = make_checkpoint_store(config_.state_saving,
                                  config_.full_snapshot_interval, &arena_);
  lazy_pending_.clear();
  passive_.clear();
  ckpt_ = core::CheckpointIntervalController(config_.checkpoint_control);
  cancel_ = core::CancellationController(config_.cancellation);
  events_since_save_ = 0;
  events_since_sample_ = 0;
  sends_this_event_ = 0;
  processing_ = false;
  suppress_sends_ = false;
  gvt_bound_ = gvt;

  const std::uint32_t pending = r.u32();
  for (std::uint32_t i = 0; i < pending; ++i) {
    const Event event = decode_event(r);
    OTW_REQUIRE_MSG(!event.negative,
                    "MIGRATE frame carries an anti-message as pending input");
    const bool straggler = input_->insert(event);
    OTW_ASSERT(!straggler);  // the queue is empty: nothing processed yet
    static_cast<void>(straggler);
  }

  // One checkpoint of the shipped state at the minimal position: any legal
  // rollback target is >= gvt, below every shipped event, and restore_before
  // always finds this entry. Coast-forward then re-executes only events this
  // shard processed itself — the committed prefix never shipped.
  save_state(Position::before_all());
}

void ObjectRuntime::maybe_checkpoint(const Position& pos) {
  if (++events_since_save_ >= checkpoint_interval()) {
    save_state(pos);
    events_since_save_ = 0;
  }
}

void ObjectRuntime::save_state(const Position& pos) {
  // The checkpoint controller's state-save term is the save's duration on
  // the platform clock, the clock its coast-forward term uses: the priced
  // cost on SimulatedNow, the measured time on real clocks.
  const bool timed = rec_.profiling() || config_.dynamic_checkpointing;
  const std::uint64_t start_ns = timed ? lp_.wall_now_ns() : 0;
  if (rec_.profiling()) {
    rec_.phase_begin(obs::Phase::StateSaving, start_ns);
  }
  const SaveReceipt receipt = states_->save(pos, *current_state_);
  if (costs_ != nullptr) {
    lp_.wall_charge(costs_->state_save_base_ns +
                    costs_->state_diff_scan_per_byte_ns * receipt.scanned_bytes +
                    costs_->state_save_per_byte_ns * receipt.stored_bytes);
  }
  ++stats_.states_saved;
  if (config_.dynamic_checkpointing) {
    ckpt_.record_state_save(lp_.wall_now_ns() - start_ns);
  }
  if (rec_.tracing()) {
    rec_.record(obs::TraceKind::StateSave, lp_.wall_now_ns(), id_,
                pos.recv_time().ticks(), receipt.stored_bytes);
  }
  if (rec_.profiling()) {
    rec_.phase_end(lp_.wall_now_ns());
  }
}

MemoryStats ObjectRuntime::memory_footprint() const noexcept {
  MemoryStats m;
  m.input_queue_bytes = input_->size() * sizeof(Event);
  m.output_queue_bytes = output_.size() * sizeof(OutputEntry);
  m.state_bytes = states_->stored_bytes();
  m.pending_bytes =
      (lazy_pending_.size() + passive_.size()) * sizeof(OutputEntry);
  m.live_events = input_->size();
  m.checkpoints = states_->entries();
  return m;
}

ObjectStats ObjectRuntime::snapshot_stats() const {
  ObjectStats s = stats_;
  s.final_checkpoint_interval = checkpoint_interval();
  s.final_mode = cancel_.mode();
  s.final_hit_ratio = cancel_.hit_ratio();
  // Additive: after a migration stats_ carries the previous incarnation's
  // switch count and cancel_ only the switches since arrival.
  s.cancellation_switches += cancel_.switches();
  return s;
}

}  // namespace otw::tw
