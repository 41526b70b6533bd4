#include "otw/platform/distributed.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "otw/obs/live.hpp"
#include "otw/platform/frame_stream.hpp"
#include "otw/platform/snapshot_file.hpp"
#include "otw/platform/wire.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/net.hpp"

namespace otw::platform {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// SNAP_CTL phases (payload: u8 phase + u32 epoch + u32 lp + u32 to, where
// lp = kNoMove for a snapshot epoch). DESIGN.md section 8c.
constexpr std::uint8_t kSnapStop = 0;       ///< enter the settle loop
constexpr std::uint8_t kSnapPoll = 1;       ///< report channel-op counters
constexpr std::uint8_t kSnapCut = 2;        ///< freeze LPs at the GVT cut
constexpr std::uint8_t kSnapSerialize = 3;  ///< encode + ship the shard blob
constexpr std::uint8_t kSnapResume = 4;     ///< epoch committed; run again
constexpr std::uint8_t kSnapAbort = 5;      ///< epoch discarded; run again
constexpr std::uint8_t kSnapMove = 6;       ///< install the new owner, ship the LP

/// SNAP_CTL `lp` of an epoch that moves no LP (a snapshot).
constexpr LpId kNoMove = std::numeric_limits<LpId>::max();

// SNAP_ACK kinds (payload: u8 kind + u64 a + u64 b + u32 seq).
constexpr std::uint8_t kSnapAckCounters = 0;  ///< a = sent, b = received
constexpr std::uint8_t kSnapAckAccept = 1;    ///< cut taken; a = cut GVT ticks
constexpr std::uint8_t kSnapAckDecline = 2;   ///< cut refused (done / GVT 0)
constexpr std::uint8_t kSnapAckMoved = 3;     ///< new owner installed (LP restored)

/// Under fault tolerance the coordinator's poll sleep is capped so watchdog
/// kill requests and snapshot deadlines are honored promptly.
constexpr int kFaultPollCapMs = 25;

/// Shortest gap between two clock-refresh pings from one worker. Pings are
/// triggered by received GVT announces, which can burst; the estimate only
/// improves on a lower-RTT sample, so pinging faster than this is waste.
constexpr std::uint64_t kTimePingMinGapNs = 50'000'000;

/// Longest a fully idle worker sleeps before rechecking its local wakeups.
constexpr std::uint64_t kIdleWaitNs = 500'000;

/// Safety valve: a worker aborts after this many LP step() invocations.
constexpr std::uint64_t kMaxSteps = 2'000'000'000;

/// FrameHeader.flags bit for control-plane frames (EngineMessage::wire_control
/// and every transport control frame).
constexpr std::uint16_t kFlagControl = 0x0001;

// POSIX plumbing lives in util::net (shared with the obs::live endpoint);
// this prefix pins the error messages of this transport.
const std::string kNetCtx = "DistributedEngine";

using util::net::mono_ns;

[[noreturn]] void throw_errno(const std::string& what) {
  util::net::throw_errno(kNetCtx, what);
}

/// Connects to a loopback listener. Nagle is off: it would serialize the
/// latency the aggregation layer is measuring, and batching is DyMA's job.
FrameStream connect_stream(std::uint16_t port) {
  const int fd = util::net::connect_loopback(port, kNetCtx);
  util::net::set_nodelay(fd, kNetCtx);
  return FrameStream(fd);
}

/// Accepts one connection on a loopback listener (blocking).
FrameStream accept_stream(int listen_fd) {
  int fd = -1;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw_errno("accept");
  }
  util::net::set_nodelay(fd, kNetCtx);
  return FrameStream(fd);
}

/// Dials a peer's mesh listener and identifies this shard with the link's
/// first frame, PEER-HELLO (src_lp = shard). A fresh socket always takes
/// the 24 bytes, so the blocking send never waits.
FrameStream dial_peer(std::uint16_t port, std::uint32_t shard) {
  FrameStream link = connect_stream(port);
  FrameHeader hello;
  hello.tag = kTagPeerHello;
  hello.src_lp = shard;
  link.send(hello, nullptr);
  return link;
}

// ---------------------------------------------------------------------------
// Child side: the shard driver.
// ---------------------------------------------------------------------------

struct ShardLp {
  ShardLp() = default;
  ShardLp(ShardLp&&) = default;
  ShardLp& operator=(ShardLp&&) = default;

  LpId id = 0;
  LpRunner* runner = nullptr;
  StepStatus status = StepStatus::Active;
  std::uint64_t wake_hint_ns = kNever;
  std::deque<std::unique_ptr<EngineMessage>> inbox;
};

/// Everything one worker process accumulates and ships home in its RESULT,
/// as one raw record (fork guarantees coordinator and workers share the
/// layout). Workers only set the transport counters of `dist`, so the
/// coordinator sums the whole record.
struct ShardTotals {
  std::uint64_t steps = 0;
  std::uint64_t physical_messages = 0;
  std::uint64_t wire_bytes = 0;
  DistStats dist;
};
static_assert(std::is_trivially_copyable_v<ShardTotals>);

class ShardDriver {
 public:
  ShardDriver(std::uint32_t shard, const DistributedConfig& config,
              const std::vector<LpRunner*>& all_lps, FrameStream coord,
              std::vector<FrameStream> links, const LiveStatsHooks& live,
              std::int64_t clock_offset_ns, std::uint64_t clock_rtt_ns,
              bool fault)
      : shard_(shard),
        config_(config),
        live_(live),
        clock_offset_ns_(clock_offset_ns),
        clock_rtt_ns_(clock_rtt_ns),
        num_lps_(static_cast<LpId>(all_lps.size())),
        coord_(std::move(coord)),
        all_lps_(all_lps),
        links_(std::move(links)),
        fault_(fault),
        trace_(config.wire_trace_capacity ? config.wire_trace_capacity : 1),
        epoch_ns_(mono_ns()) {
    await_marker_.assign(config.num_shards, false);
    early_marker_.assign(config.num_shards, false);
    owners_.resize(num_lps_);
    lp_index_.assign(num_lps_, SIZE_MAX);
    for (LpId lp = 0; lp < num_lps_; ++lp) {
      owners_[lp] = initial_owner_of(lp, config_);
      if (owners_[lp] == shard_) {
        lp_index_[lp] = lps_.size();
        ShardLp state;
        state.id = lp;
        state.runner = all_lps[lp];
        lps_.push_back(std::move(state));
      }
    }
    remaining_ = lps_.size();
  }

  void run();

  /// Sends RESULT (the shard summary plus the `harvest` blob), then lingers
  /// until the coordinator closes the stream.
  void report(const std::vector<std::uint8_t>& harvest);

  /// Replacement-worker entry: reads the coordinator's RESTORE, adopts it as
  /// this shard's committed snapshot, rebuilds every local LP from it,
  /// reports RECOVERED and stays frozen until the coordinator's Resume.
  /// Called once, before run().
  void restore_from_coordinator();

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return mono_ns() - epoch_ns_;
  }

  /// Local steady clock shifted into the coordinator's clock domain; what
  /// every outgoing frame stamps into FrameHeader::send_ns.
  [[nodiscard]] std::uint64_t aligned_now_ns() const noexcept {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(mono_ns()) +
                                      clock_offset_ns_);
  }

  void deliver_local(LpId dst, std::unique_ptr<EngineMessage> msg) {
    OTW_ASSERT(lp_index_[dst] != SIZE_MAX);
    if (live_.bank != nullptr) {
      msg->obs_enqueue_ns = now_ns();
    }
    ++snap_sent_;
    lps_[lp_index_[dst]].inbox.push_back(std::move(msg));
  }

  void send_remote(LpId src, LpId dst, const EngineMessage& msg);

  [[nodiscard]] const std::vector<std::uint32_t>& owners() const noexcept {
    return owners_;
  }

  ShardTotals totals_;

 private:
  /// Header of a control frame from this shard: `tag`, the control flag,
  /// src_lp = this shard and send_ns in the coordinator clock domain.
  [[nodiscard]] FrameHeader control_header(WireTag tag,
                                           std::size_t payload_len = 0) const;
  void drain_coordinator();
  void drain_links();
  void handle_coord_frame(const FrameHeader& header, const std::uint8_t* frame);
  void handle_peer_frame(std::uint32_t peer, const FrameHeader& header,
                         const std::uint8_t* frame);
  void route_inbound(const std::uint8_t* frame, const FrameHeader& header,
                     std::uint32_t src_shard_hint);
  void ship_lp(LpId lp, std::uint32_t to, std::uint32_t epoch);
  void handle_migrate_in(const FrameHeader& header, const std::uint8_t* payload);
  void handle_time_echo(const FrameHeader& header, const std::uint8_t* payload);
  void handle_snap_ctl(const std::uint8_t* payload, std::uint32_t len);
  void handle_recover(const std::uint8_t* payload, std::uint32_t len);
  void send_snap_ack(std::uint8_t kind, std::uint64_t a, std::uint64_t b,
                     std::uint32_t seq);
  void serialize_shard(std::uint32_t epoch);
  void restore_local(WireReader& r);
  void settle_pass();
  void flush_peer_link(std::uint32_t peer);
  void maybe_send_time_ping();
  void send_done();
  void flush_links();
  void idle_wait();
  void maybe_send_stats();

  class Context;

  /// Epoch execution mode. Run = normal stepping; Settle = no stepping,
  /// absorb + flush only (between SNAP_CTL stop and resume); Hold = frozen
  /// after serialize/move/restore until the coordinator's Resume.
  enum class SnapMode : std::uint8_t { Run, Settle, Hold };

  std::uint32_t shard_;
  const DistributedConfig& config_;
  const LiveStatsHooks& live_;
  std::int64_t clock_offset_ns_;   ///< worker -> coordinator clock shift
  std::uint64_t clock_rtt_ns_;     ///< RTT of the best (lowest) estimate so far
  std::uint64_t last_time_ping_ns_ = 0;  ///< driver-relative (now_ns())
  std::uint64_t next_stats_ns_ = 0;  ///< driver-relative deadline (now_ns())
  LpId num_lps_;
  FrameStream coord_;  ///< to the coordinator; every write blocks
  const std::vector<LpRunner*>& all_lps_;  ///< fork gave us a copy of every LP
  /// Peer links, index = shard (self unused); writes are queued, never block.
  std::vector<FrameStream> links_;
  std::vector<ShardLp> lps_;  ///< the LPs this shard holds
  std::vector<std::size_t> lp_index_;  ///< global LpId -> index in lps_
  std::vector<std::uint32_t> owners_;  ///< LP -> shard
  std::size_t remaining_ = 0;       ///< held LPs not Done
  bool done_announced_ = false;
  bool finish_received_ = false;
  std::vector<std::uint8_t> scratch_;  ///< payload encode buffer

  // --- epochs: snapshots and moves (DESIGN.md section 8c) ---
  bool fault_ = false;  ///< a dead peer is recovered, not fatal
  SnapMode snap_mode_ = SnapMode::Run;
  std::uint64_t freeze_ns_ = 0;  ///< the moving LP's cut, for MigrationFreeze
  bool snap_poll_pending_ = false;  ///< ACK owed after the next settle pass
  std::uint32_t snap_poll_round_ = 0;  ///< round id echoed in the counters ACK
  /// Channel-op counters for the quiescence proof: every enqueue (inbox
  /// push, socket send, forward) bumps snap_sent_, every dequeue (socket
  /// receive, inbox pop) bumps snap_recv_. Stable and globally balanced
  /// counts across two poll rounds mean no message is in flight anywhere.
  std::uint64_t snap_sent_ = 0;
  std::uint64_t snap_recv_ = 0;
  /// Committed self-snapshot: this shard's blob of the last epoch the
  /// coordinator confirmed complete (survivors self-restore from it).
  std::vector<std::uint8_t> self_blob_;
  std::uint32_t self_epoch_ = 0;
  std::uint64_t self_gvt_ = 0;
  /// Serialized-but-unconfirmed blob: promoted to self_blob_ on Resume (or
  /// by a RECOVER naming its epoch), discarded on Abort. Keeping both closes
  /// the window where a death lands between serialize and commit.
  std::vector<std::uint8_t> pending_blob_;
  std::uint32_t pending_epoch_ = 0;
  std::uint64_t pending_gvt_ = 0;
  bool pending_valid_ = false;
  /// Per peer: drop inbound frames until that peer's RECOVER_MARK arrives
  /// (they belong to the incarnation the rollback discarded). FIFO links
  /// make the discard window exact.
  std::vector<bool> await_marker_;
  /// Per peer: a RECOVER_MARK arrived before our own RECOVER did (the two
  /// travel on different streams); consume it instead of awaiting another.
  std::vector<bool> early_marker_;

  obs::TraceRing trace_;
  std::uint64_t epoch_ns_;

 public:
  [[nodiscard]] std::int64_t clock_offset_ns() const noexcept {
    return clock_offset_ns_;
  }
  [[nodiscard]] std::uint64_t clock_rtt_ns() const noexcept {
    return clock_rtt_ns_;
  }
};

class ShardDriver::Context final : public LpContext {
 public:
  Context(ShardDriver& driver, ShardLp& lp)
      : driver_(driver), lp_(lp) {}

  [[nodiscard]] LpId self() const noexcept override { return lp_.id; }
  [[nodiscard]] LpId num_lps() const noexcept override { return driver_.num_lps_; }
  [[nodiscard]] std::uint64_t now_ns() const noexcept override {
    return driver_.now_ns();
  }

  /// Real wall clocks: nothing models charged work on this engine.
  void charge(std::uint64_t /*ns*/) noexcept override {}

  void send(LpId dst, std::unique_ptr<EngineMessage> msg) override {
    OTW_REQUIRE(dst < driver_.num_lps_);
    OTW_REQUIRE(msg != nullptr);
    const std::uint64_t bytes = msg->wire_bytes();
    ++driver_.totals_.physical_messages;
    driver_.totals_.wire_bytes += bytes;
    if (driver_.owners_[dst] == driver_.shard_) {
      driver_.deliver_local(dst, std::move(msg));
    } else {
      driver_.send_remote(lp_.id, dst, *msg);
    }
  }

  std::unique_ptr<EngineMessage> poll() override {
    if (lp_.inbox.empty()) {
      return nullptr;
    }
    auto msg = std::move(lp_.inbox.front());
    lp_.inbox.pop_front();
    ++driver_.snap_recv_;
    if (driver_.live_.bank != nullptr) {
      const std::uint64_t now = driver_.now_ns();
      driver_.live_.bank->record(
          obs::hist::Seam::MailboxDwell,
          now > msg->obs_enqueue_ns ? now - msg->obs_enqueue_ns : 0);
    }
    return msg;
  }

  void request_wakeup(std::uint64_t abs_ns) noexcept override {
    lp_.wake_hint_ns = std::min(lp_.wake_hint_ns, abs_ns);
  }

 private:
  ShardDriver& driver_;
  ShardLp& lp_;
};

void ShardDriver::send_remote(LpId src, LpId dst, const EngineMessage& msg) {
  const WireTag tag = msg.wire_tag();
  OTW_REQUIRE_MSG(tag != kNoWireTag,
                  "message type has no wire tag and cannot leave the process "
                  "(register it in the WireRegistry and override "
                  "wire_tag/encode_wire)");
  scratch_.clear();
  WireWriter writer(scratch_);
  const std::uint64_t t0 = mono_ns();
  msg.encode_wire(writer);
  const std::uint64_t encode_ns = mono_ns() - t0;
  totals_.dist.serialize_ns += encode_ns;
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::WireEncode, encode_ns);
  }

  FrameHeader header;
  header.payload_len = static_cast<std::uint32_t>(scratch_.size());
  header.tag = tag;
  header.flags = msg.wire_control() ? kFlagControl : 0;
  header.src_lp = src;
  header.dst_lp = dst;
  header.send_ns = aligned_now_ns();
  ++snap_sent_;
  if (msg.wire_control()) {
    // Control plane (GVT tokens/announces) transits the coordinator, which
    // keeps RelayResidency attribution.
    coord_.send(header, scratch_.data());
  } else {
    // Data plane: one hop on the direct (src,dst) peer link. A dead peer's
    // frames accumulate in the queue and are discarded with the incarnation
    // at recovery (the rollback re-generates them).
    const std::uint32_t peer = owners_[dst];
    links_[peer].queue(header, scratch_.data());
    flush_peer_link(peer);
  }

  ++totals_.dist.frames_sent;
  totals_.dist.bytes_sent += kFrameHeaderBytes + scratch_.size();
  if (msg.wire_control()) {
    ++totals_.dist.gvt_token_frames;
  }
  if (config_.wire_trace_capacity > 0) {
    const obs::TraceArgs args = obs::pack_wire_frame(
        tag, /*sent=*/true, kFrameHeaderBytes + scratch_.size());
    trace_.push(obs::TraceRecord{now_ns(), 0, args.arg0, args.arg1, src,
                                 obs::TraceKind::WireFrame});
  }
}

void ShardDriver::handle_time_echo(const FrameHeader& header,
                                   const std::uint8_t* payload) {
  // Clock refresh: the coordinator echoed our raw t0 with its own clock in
  // send_ns. Midpoint estimate, kept only when this sample's RTT beats the
  // best so far (a low-RTT exchange bounds the offset error by rtt/2).
  OTW_REQUIRE_MSG(header.payload_len == 8, "malformed TIME echo");
  const std::uint64_t t1 = mono_ns();
  std::uint64_t t0 = 0;
  std::memcpy(&t0, payload, 8);
  if (t1 < t0) {
    return;  // nonsense sample (shouldn't happen on one steady clock)
  }
  const std::uint64_t rtt = t1 - t0;
  if (rtt <= clock_rtt_ns_) {
    clock_rtt_ns_ = rtt;
    clock_offset_ns_ = static_cast<std::int64_t>(header.send_ns) -
                       static_cast<std::int64_t>(t0 + rtt / 2);
  }
}

void ShardDriver::maybe_send_time_ping() {
  // Triggered by received GVT-announce (control) frames, rate-limited, and
  // only while the attribution plane is armed — an unarmed run keeps the
  // wire byte-for-byte free of telemetry chatter.
  if (live_.bank == nullptr) {
    return;
  }
  const std::uint64_t now = now_ns();
  if (last_time_ping_ns_ != 0 && now - last_time_ping_ns_ < kTimePingMinGapNs) {
    return;
  }
  last_time_ping_ns_ = now == 0 ? 1 : now;
  FrameHeader ping = control_header(kTagTime);
  ping.send_ns = mono_ns();  // RAW local clock; echoed back verbatim
  coord_.send(ping, nullptr);
}

void ShardDriver::route_inbound(const std::uint8_t* frame,
                                const FrameHeader& header,
                                std::uint32_t src_shard_hint) {
  const LpId dst = header.dst_lp;
  OTW_REQUIRE_MSG(dst < num_lps_ && lp_index_[dst] != SIZE_MAX,
                  "frame routed to an LP this shard does not hold");
  ++snap_recv_;
  const std::uint8_t* payload = frame + kFrameHeaderBytes;
  WireReader reader(payload, header.payload_len);
  const std::uint64_t t0 = mono_ns();
  auto msg = WireRegistry::instance().decode(header.tag, reader);
  const std::uint64_t decode_ns = mono_ns() - t0;
  totals_.dist.deserialize_ns += decode_ns;
  OTW_REQUIRE_MSG(reader.done(), "trailing bytes after wire payload");

  ++totals_.dist.frames_received;
  totals_.dist.bytes_received += kFrameHeaderBytes + header.payload_len;
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::WireDecode, decode_ns);
    // End-to-end link latency (encode -> transport -> decode): both
    // timestamps are in the coordinator clock domain, so subtraction is
    // meaningful up to the two offset-estimate errors (each bounded by its
    // RTT/2).
    const std::uint64_t now_aligned = aligned_now_ns();
    live_.bank->record_link(
        obs::hist::Seam::LinkLatency, src_shard_hint, shard_,
        now_aligned > header.send_ns ? now_aligned - header.send_ns : 0);
  }
  if ((header.flags & kFlagControl) != 0) {
    maybe_send_time_ping();
  }
  if (config_.wire_trace_capacity > 0) {
    const obs::TraceArgs args = obs::pack_wire_frame(
        header.tag, /*sent=*/false, kFrameHeaderBytes + header.payload_len);
    trace_.push(obs::TraceRecord{now_ns(), 0, args.arg0, args.arg1,
                                 header.src_lp, obs::TraceKind::WireFrame});
  }
  deliver_local(dst, std::move(msg));
}

void ShardDriver::ship_lp(LpId lp, std::uint32_t to, std::uint32_t epoch) {
  // The Cut froze the LP and the Resettle absorbed everything its rollback
  // set moving, so nothing is in flight toward it and it holds nothing to
  // send: its whole dynamic state fits one MIGRATE frame.
  const std::size_t k = lp_index_[lp];
  OTW_ASSERT(lps_[k].inbox.empty());  // the last settle pass drained it
  std::vector<std::uint8_t> blob;
  WireWriter w(blob);
  w.u32(epoch);
  const std::uint64_t t0 = mono_ns();
  {
    Context ctx(*this, lps_[k]);
    dynamic_cast<MigratableLp&>(*lps_[k].runner).snapshot_encode(ctx, w);
  }
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::MigrationFreeze,
                       freeze_ns_ + (mono_ns() - t0));
  }
  FrameHeader h = control_header(kTagMigrate, blob.size());
  h.dst_lp = lp;
  links_[to].queue(h, blob.data());
  flush_peer_link(to);
  ++totals_.dist.frames_sent;
  totals_.dist.bytes_sent += kFrameHeaderBytes + blob.size();
  lps_.erase(lps_.begin() + static_cast<std::ptrdiff_t>(k));
  lp_index_[lp] = SIZE_MAX;
  for (std::size_t i = k; i < lps_.size(); ++i) {
    lp_index_[lps_[i].id] = i;
  }
  --remaining_;  // the cut re-armed it, so it was not Done
}

void ShardDriver::handle_migrate_in(const FrameHeader& header,
                                    const std::uint8_t* payload) {
  const LpId lp = header.dst_lp;
  OTW_REQUIRE_MSG(lp < num_lps_ && lp_index_[lp] == SIZE_MAX,
                  "MIGRATE frame for an unknown LP or one this shard holds");
  auto* migratable = dynamic_cast<MigratableLp*>(all_lps_[lp]);
  OTW_REQUIRE_MSG(migratable != nullptr, "LP runner is not migratable");
  WireReader r(payload, header.payload_len);
  const std::uint32_t epoch = r.u32();
  lp_index_[lp] = lps_.size();
  ShardLp& s = lps_.emplace_back();
  s.id = lp;
  s.runner = all_lps_[lp];  // fork copy, about to be overwritten from the wire
  const std::uint64_t t0 = mono_ns();
  {
    Context ctx(*this, s);
    migratable->snapshot_restore(ctx, r);
  }
  OTW_REQUIRE_MSG(r.done(), "trailing bytes after MIGRATE payload");
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::MigrationRestore, mono_ns() - t0);
  }
  ++totals_.dist.frames_received;
  totals_.dist.bytes_received += kFrameHeaderBytes + header.payload_len;
  owners_[lp] = shard_;  // the MIGRATE may beat this shard's own Move
  ++remaining_;
  done_announced_ = false;  // active set grew; the last DONE is stale
  send_snap_ack(kSnapAckMoved, 0, 0, epoch);
}

void ShardDriver::send_snap_ack(std::uint8_t kind, std::uint64_t a,
                                std::uint64_t b, std::uint32_t seq) {
  scratch_.clear();
  WireWriter w(scratch_);
  w.u8(kind);
  w.u64(a);
  w.u64(b);
  w.u32(seq);
  coord_.send(control_header(kTagSnapAck, scratch_.size()), scratch_.data());
}

void ShardDriver::settle_pass() {
  for (ShardLp& lp : lps_) {
    auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
    if (migratable == nullptr) {
      continue;
    }
    Context ctx(*this, lp);
    if (migratable->snapshot_settle(ctx) && lp.status != StepStatus::Done) {
      // The LP took in traffic that no step has seen. A Cut re-arms every
      // LP, but an Abort (a DONE reached the coordinator mid-Settle) resumes
      // stepping as is, and an Idle LP with an empty inbox is never stepped.
      lp.status = StepStatus::Active;
    }
  }
  flush_links();
  if (snap_poll_pending_) {
    // Deferred Poll ACK: the counters go out only after a full settle pass,
    // which flushed every aggregation window — so a reported-quiescent shard
    // can never be hiding events parked in a channel.
    snap_poll_pending_ = false;
    send_snap_ack(kSnapAckCounters, snap_sent_, snap_recv_, snap_poll_round_);
  }
}

void ShardDriver::serialize_shard(std::uint32_t epoch) {
  const std::uint64_t t0 = mono_ns();
  std::vector<std::uint8_t> blob;
  WireWriter w(blob);
  w.u32(static_cast<std::uint32_t>(lps_.size()));
  std::uint64_t gvt = 0;
  std::vector<std::uint8_t> one;
  for (ShardLp& lp : lps_) {
    auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
    OTW_REQUIRE_MSG(migratable != nullptr,
                    "snapshot serialize on a runner that cannot encode");
    one.clear();
    WireWriter ow(one);
    {
      Context ctx(*this, lp);
      migratable->snapshot_encode(ctx, ow);
    }
    w.u32(lp.id);
    w.u32(static_cast<std::uint32_t>(one.size()));
    w.bytes(one.data(), one.size());
    gvt = migratable->snapshot_gvt_ticks();
  }
  const std::uint64_t encode_ns = mono_ns() - t0;
  totals_.dist.serialize_ns += encode_ns;
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::SnapshotEncode, encode_ns);
  }
  // SNAP_DATA payload: u32 epoch + u64 gvt + shard blob. The blob is also
  // retained as the pending self-snapshot until the coordinator commits or
  // aborts the epoch.
  scratch_.clear();
  WireWriter pw(scratch_);
  pw.u32(epoch);
  pw.u64(gvt);
  pw.bytes(blob.data(), blob.size());
  coord_.send(control_header(kTagSnapData, scratch_.size()), scratch_.data());
  totals_.dist.bytes_sent += kFrameHeaderBytes + scratch_.size();
  pending_blob_ = std::move(blob);
  pending_epoch_ = epoch;
  pending_gvt_ = gvt;
  pending_valid_ = true;
}

void ShardDriver::handle_snap_ctl(const std::uint8_t* payload,
                                  std::uint32_t len) {
  WireReader r(payload, len);
  const std::uint8_t phase = r.u8();
  const std::uint32_t epoch = r.u32();
  const LpId move_lp = r.u32();
  const std::uint32_t move_to = r.u32();
  OTW_REQUIRE_MSG(r.done() && (move_lp == kNoMove ||
                               (move_lp < num_lps_ &&
                                move_to < config_.num_shards)),
                  "malformed SNAP_CTL frame");
  switch (phase) {
    case kSnapStop:
      snap_mode_ = SnapMode::Settle;
      return;
    case kSnapPoll:
      // The epoch field carries the poll round id: the coordinator only
      // accepts a counters ACK stamped with the round it is currently
      // collecting, so a late ACK can never complete a later round.
      snap_poll_pending_ = true;  // answered by the next settle pass
      snap_poll_round_ = epoch;
      return;
    case kSnapCut: {
      // A snapshot cuts every LP and declines at GVT 0 (its image must lie
      // past the initial state); a move cuts only the moving LP, at any GVT.
      bool accepted = true;
      for (ShardLp& lp : lps_) {
        if (move_lp != kNoMove && lp.id != move_lp) {
          continue;
        }
        auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
        const std::uint64_t t0 = mono_ns();
        accepted = migratable != nullptr &&
                   (move_lp != kNoMove || migratable->snapshot_gvt_ticks() > 0);
        if (accepted) {
          Context ctx(*this, lp);
          accepted = migratable->snapshot_cut(ctx);
        }
        freeze_ns_ = mono_ns() - t0;
        if (!accepted) {
          // No undo needed: a taken cut is a digest-neutral rollback, the
          // frozen LPs simply resume from it after the coordinator's Abort.
          break;
        }
      }
      flush_links();  // the cut flushed held sends + batches toward peers
      // The cut rolled runtimes back to the GVT cut; the driver-side step
      // state (status, wake hints) predates that rollback, and a cut that
      // produces no anti-messages wakes nobody — the whole mesh would
      // sleep forever after Resume. Mark everything runnable so each LP is
      // re-stepped (one with nothing to redo parks itself again), and
      // revive LPs whose completion was itself speculative.
      for (ShardLp& lp : lps_) {
        if (lp.status == StepStatus::Done) {
          ++remaining_;
        }
        lp.status = StepStatus::Active;
        lp.wake_hint_ns = kNever;
      }
      if (accepted) {
        // At quiescence every LP agrees on the cut GVT.
        const std::uint64_t gvt =
            lps_.empty() ? 0
                         : dynamic_cast<MigratableLp*>(lps_.front().runner)
                               ->snapshot_gvt_ticks();
        send_snap_ack(kSnapAckAccept, gvt, 0, epoch);
      } else {
        send_snap_ack(kSnapAckDecline, 0, 0, epoch);
      }
      return;
    }
    case kSnapSerialize:
      serialize_shard(epoch);
      snap_mode_ = SnapMode::Hold;
      return;
    case kSnapMove:
      // Every worker routes by the new owner from here on. The destination
      // acknowledges once it has restored the LP (handle_migrate_in), every
      // other worker right away, so no worker can still route by the old
      // owner when the coordinator's Resume lets the first one step.
      OTW_REQUIRE_MSG(move_lp != kNoMove, "SNAP_CTL move names no LP");
      snap_mode_ = SnapMode::Hold;
      owners_[move_lp] = move_to;
      if (move_to != shard_) {
        if (lp_index_[move_lp] != SIZE_MAX) {
          ship_lp(move_lp, move_to, epoch);
        }
        send_snap_ack(kSnapAckMoved, 0, 0, epoch);
      }
      return;
    case kSnapResume:
      if (pending_valid_ && pending_epoch_ == epoch) {
        self_blob_ = std::move(pending_blob_);
        self_epoch_ = pending_epoch_;
        self_gvt_ = pending_gvt_;
        pending_blob_.clear();
        pending_valid_ = false;
      }
      snap_mode_ = SnapMode::Run;
      return;
    case kSnapAbort:
      pending_blob_.clear();
      pending_valid_ = false;
      snap_mode_ = SnapMode::Run;
      return;
    default:
      throw std::runtime_error("unknown SNAP_CTL phase " +
                               std::to_string(phase));
  }
}

void ShardDriver::restore_local(WireReader& r) {
  const std::uint64_t t0 = mono_ns();
  const std::uint32_t count = r.u32();
  OTW_REQUIRE_MSG(count == lps_.size(),
                  "snapshot blob LP count does not match this shard");
  for (std::uint32_t k = 0; k < count; ++k) {
    const LpId id = r.u32();
    const std::uint32_t len = r.u32();
    OTW_REQUIRE_MSG(id < num_lps_ && lp_index_[id] != SIZE_MAX,
                    "snapshot blob names an LP this shard does not hold");
    ShardLp& lp = lps_[lp_index_[id]];
    lp.inbox.clear();  // dead-incarnation deliveries; the cut predates them
    lp.status = StepStatus::Active;
    lp.wake_hint_ns = kNever;
    auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
    OTW_REQUIRE_MSG(migratable != nullptr,
                    "snapshot blob for a runner that cannot restore");
    std::vector<std::uint8_t> one(len);
    r.bytes(one.data(), len);
    WireReader sub(one.data(), one.size());
    {
      Context ctx(*this, lp);
      migratable->snapshot_restore(ctx, sub);
    }
    OTW_REQUIRE_MSG(sub.done(), "trailing bytes after an LP snapshot record");
  }
  OTW_REQUIRE_MSG(r.done(), "trailing bytes after a shard snapshot blob");
  remaining_ = lps_.size();  // a committed cut never contains a Done LP
  done_announced_ = false;
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::RestoreReplay, mono_ns() - t0);
  }
}

void ShardDriver::restore_from_coordinator() {
  OTW_REQUIRE_MSG(fault_, "restore without fault tolerance enabled");
  // The RESTORE frame (u32 epoch + u64 gvt + shard blob) follows the
  // HELLO-ACK on the coordinator stream.
  std::vector<std::uint8_t> payload;
  const FrameHeader h = coord_.read_frame(payload, "RESTORE");
  OTW_REQUIRE_MSG(h.tag == kTagRestore && h.payload_len >= 12,
                  "expected RESTORE as the first post-mesh frame");
  WireReader r(payload.data(), payload.size());
  self_epoch_ = r.u32();
  self_gvt_ = r.u64();
  self_blob_.assign(payload.begin() + 12, payload.end());
  WireReader blob(self_blob_.data(), self_blob_.size());
  restore_local(blob);
  snap_sent_ = 0;
  snap_recv_ = 0;
  snap_mode_ = SnapMode::Hold;  // frozen until the coordinator's Resume
  coord_.send(control_header(kTagRecovered), nullptr);
}

void ShardDriver::flush_peer_link(std::uint32_t peer) {
  FrameStream& link = links_[peer];
  if (!link.is_open() || link.flush()) {
    return;  // closed: dead incarnation, its bytes are discarded at recovery
  }
  if (!fault_) {
    throw std::runtime_error("peer shard " + std::to_string(peer) +
                             " closed its link");
  }
  link.close();  // SIGKILLed peer; recovery re-dials it
}

void ShardDriver::handle_recover(const std::uint8_t* payload,
                                 std::uint32_t len) {
  OTW_REQUIRE_MSG(fault_, "RECOVER frame without fault tolerance enabled");
  WireReader r(payload, len);
  const std::uint32_t epoch = r.u32();
  const std::uint32_t dead = r.u32();
  const std::uint16_t new_port = r.u16();
  OTW_REQUIRE_MSG(r.done() && dead < config_.num_shards && dead != shard_,
                  "malformed RECOVER frame");
  // Incarnation markers first: queued BEHIND whatever already sits in each
  // surviving peer's out queue and never blocking-flushed (two peers
  // blocking-flushing at each other would deadlock). The replacement gets
  // none — its link starts inside the new incarnation.
  for (std::uint32_t p = 0; p < links_.size(); ++p) {
    if (p == shard_ || p == dead || !links_[p].is_open()) {
      continue;
    }
    links_[p].queue(control_header(kTagRecoverMark), nullptr);
    if (early_marker_[p]) {
      early_marker_[p] = false;  // the peer's marker already arrived
    } else {
      await_marker_[p] = true;
    }
  }
  links_[dead].close();
  // Adopt the committed cut. A death between serialize and resume means the
  // epoch being restored may still sit unpromoted in pending_blob_.
  if (pending_valid_ && pending_epoch_ == epoch) {
    self_blob_ = std::move(pending_blob_);
    self_epoch_ = pending_epoch_;
    self_gvt_ = pending_gvt_;
  }
  pending_blob_.clear();
  pending_valid_ = false;
  OTW_REQUIRE_MSG(self_epoch_ == epoch && !self_blob_.empty(),
                  "RECOVER names a snapshot epoch this shard does not hold");
  WireReader blob(self_blob_.data(), self_blob_.size());
  restore_local(blob);
  // Dial the replacement and identify ourselves, exactly as at startup.
  links_[dead] = dial_peer(new_port, shard_);
  // Fresh incarnation: counters restart from zero on every shard, keeping
  // the conservation proof exact (discarded frames are never counted).
  snap_sent_ = 0;
  snap_recv_ = 0;
  snap_poll_pending_ = false;
  snap_mode_ = SnapMode::Hold;
  coord_.send(control_header(kTagRecovered), nullptr);
}

void ShardDriver::handle_coord_frame(const FrameHeader& header,
                                     const std::uint8_t* frame) {
  const std::uint8_t* payload = frame + kFrameHeaderBytes;
  switch (header.tag) {
    case kTagTime:
      handle_time_echo(header, payload);
      return;
    case kTagFinish:
      finish_received_ = true;
      return;
    case kTagSnapCtl:
      handle_snap_ctl(payload, header.payload_len);
      return;
    case kTagRecover:
      handle_recover(payload, header.payload_len);
      return;
    default:
      break;
  }
  OTW_REQUIRE_MSG(header.tag < kReservedTagBase,
                  "worker received a transport control frame");
  // Relayed (control-plane) frame: attribute the link to the sender's shard.
  const std::uint32_t src_shard =
      header.src_lp < num_lps_ ? owners_[header.src_lp] : shard_;
  route_inbound(frame, header, src_shard);
}

void ShardDriver::handle_peer_frame(std::uint32_t peer,
                                    const FrameHeader& header,
                                    const std::uint8_t* frame) {
  if (fault_ && await_marker_[peer]) {
    // Dead-incarnation frame: dropped, uncounted. The marker rides the same
    // FIFO stream, so the discard window is exact.
    if (header.tag == kTagRecoverMark) {
      await_marker_[peer] = false;
    }
    return;
  }
  if (header.tag == kTagRecoverMark) {
    // The peer's marker beat our own RECOVER here (the two travel on
    // different streams); remember it so RECOVER does not await another.
    early_marker_[peer] = true;
    return;
  }
  if (header.tag == kTagMigrate) {
    handle_migrate_in(header, frame + kFrameHeaderBytes);
    return;
  }
  OTW_REQUIRE_MSG(header.tag < kReservedTagBase,
                  "worker received a transport control frame");
  route_inbound(frame, header, peer);
}

void ShardDriver::drain_coordinator() {
  const bool open = coord_.receive();
  coord_.parse([this](const FrameHeader& header, const std::uint8_t* frame) {
    handle_coord_frame(header, frame);
    return true;
  });
  if (!open) {
    throw std::runtime_error("coordinator closed the connection");
  }
}

void ShardDriver::drain_links() {
  for (std::uint32_t peer = 0; peer < links_.size(); ++peer) {
    FrameStream& link = links_[peer];
    if (!link.is_open()) {
      continue;
    }
    // Parse before acting on a close: frames a peer sent before its death
    // stay valid until the rollback discards them. A handler may close this
    // link (a forward toward a dead peer), which ends the batch.
    const bool open = link.receive();
    link.parse([this, peer](const FrameHeader& header,
                            const std::uint8_t* frame) {
      handle_peer_frame(peer, header, frame);
      return true;
    });
    if (open) {
      continue;
    }
    if (!fault_) {
      throw std::runtime_error("peer shard " + std::to_string(peer) +
                               " closed its link");
    }
    link.close();  // the peer's process died; RECOVER re-dials the replacement
  }
}

void ShardDriver::flush_links() {
  for (std::uint32_t peer = 0; peer < links_.size(); ++peer) {
    flush_peer_link(peer);
  }
}

FrameHeader ShardDriver::control_header(WireTag tag,
                                        std::size_t payload_len) const {
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload_len);
  h.tag = tag;
  h.flags = kFlagControl;
  h.src_lp = shard_;
  h.send_ns = aligned_now_ns();
  return h;
}

void ShardDriver::send_done() {
  coord_.send(control_header(kTagDone), nullptr);
  done_announced_ = true;
}

void ShardDriver::idle_wait() {
  // Nothing local can run: sleep until a frame arrives, the earliest
  // self-requested wakeup or kIdleWaitNs, whichever comes first, with a
  // zero timeout when a wakeup is already due. Wakeups count only while LPs
  // may step (an epoch's Settle and Hold modes step none). An
  // armed STATS deadline also caps the sleep: an idle shard must keep
  // reporting, or the coordinator's silent-shard watchdog would see a
  // healthy-but-quiet worker as dead.
  std::uint64_t next_wake = kNever;
  if (snap_mode_ == SnapMode::Run) {
    for (const ShardLp& lp : lps_) {
      if (lp.status != StepStatus::Done) {
        next_wake = std::min(next_wake, lp.wake_hint_ns);
      }
    }
  }
  if (live_.enabled()) {
    next_wake = std::min(next_wake, next_stats_ns_);
  }
  std::uint64_t timeout_ns = kIdleWaitNs;
  if (next_wake != kNever) {
    const std::uint64_t now = now_ns();
    timeout_ns = next_wake <= now ? 0 : std::min(timeout_ns, next_wake - now);
  }
  std::vector<pollfd> pfds;
  pfds.push_back({coord_.fd(), POLLIN, 0});
  for (const FrameStream& link : links_) {
    if (link.is_open()) {
      pfds.push_back(
          {link.fd(),
           static_cast<short>(POLLIN | (link.queued_bytes() > 0 ? POLLOUT : 0)),
           0});
    }
  }
  const timespec timeout{static_cast<std::time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) < 0 &&
      errno != EINTR) {
    throw_errno("ppoll");
  }
}

void ShardDriver::maybe_send_stats() {
  if (!live_.enabled()) {
    return;
  }
  const std::uint64_t now = now_ns();
  if (now < next_stats_ns_) {
    return;
  }
  next_stats_ns_ = now + static_cast<std::uint64_t>(live_.period_ms) * 1'000'000;
  const std::vector<std::uint8_t> payload = live_.encode(shard_);
  coord_.send(control_header(kTagStats, payload.size()), payload.data());
  ++totals_.dist.frames_sent;
  totals_.dist.bytes_sent += kFrameHeaderBytes + payload.size();
}

void ShardDriver::run() {
  // Peers may still send to this shard after its local set drains, so run
  // until the coordinator says FINISH (it waits for every shard's DONE).
  for (;;) {
    drain_coordinator();
    drain_links();
    if (finish_received_) {
      break;
    }
    maybe_send_stats();
    flush_links();
    if (snap_mode_ != SnapMode::Run) {
      // An epoch is under way: no event stepping. Settle absorbs and flushes
      // until the coordinator sees global quiescence; Hold freezes the shard
      // (after serialize, move or restore) until Resume. STATS keep flowing
      // either way so the watchdog sees a live shard.
      if (snap_mode_ == SnapMode::Settle) {
        settle_pass();
      }
      idle_wait();
      continue;
    }
    bool ran_any = false;
    const std::uint64_t now = now_ns();
    for (std::size_t k = 0; k < lps_.size(); ++k) {
      ShardLp& lp = lps_[k];
      if (lp.status == StepStatus::Done) {
        continue;
      }
      const bool runnable = lp.status == StepStatus::Active ||
                            !lp.inbox.empty() || lp.wake_hint_ns <= now;
      if (!runnable) {
        continue;
      }
      lp.wake_hint_ns = kNever;  // hints are valid for one step only
      Context ctx(*this, lp);
      lp.status = lp.runner->step(ctx);
      ran_any = true;
      if (lp.status == StepStatus::Done) {
        --remaining_;
      }
      if (++totals_.steps > kMaxSteps) {
        throw std::runtime_error("shard exceeded max_steps=" +
                                 std::to_string(kMaxSteps));
      }
    }
    if (remaining_ == 0 && !done_announced_) {
      send_done();
    }
    if (!ran_any) {
      idle_wait();
    }
  }
  OTW_ASSERT(remaining_ == 0);
}

void ShardDriver::report(const std::vector<std::uint8_t>& harvest) {
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.bytes(&totals_, sizeof totals_);
  w.u32(static_cast<std::uint32_t>(harvest.size()));
  w.bytes(harvest.data(), harvest.size());
  // Clock alignment: driver epoch (absolute worker steady clock) plus the
  // final offset/RTT estimate. The coordinator derives from these the shift
  // that rebases this shard's driver-relative timestamps onto its own
  // run-relative timeline.
  w.u64(epoch_ns_);
  w.u64(static_cast<std::uint64_t>(clock_offset_ns_));  // two's complement
  w.u64(clock_rtt_ns_);
  // Attribution histograms, in the STATS frame's histogram section.
  std::vector<std::uint8_t> hists;
  obs::live::encode_hists(live_.bank != nullptr
                              ? live_.bank->snapshot(shard_)
                              : std::vector<obs::hist::Entry>{},
                          hists);
  w.u32(static_cast<std::uint32_t>(hists.size()));
  w.bytes(hists.data(), hists.size());
  // Wire trace (workers and coordinator share the TraceRecord ABI via fork).
  const std::vector<obs::TraceRecord> records =
      config_.wire_trace_capacity > 0 ? trace_.drain()
                                      : std::vector<obs::TraceRecord>{};
  w.u64(trace_.dropped());
  w.u32(static_cast<std::uint32_t>(records.size()));
  w.bytes(records.data(), records.size() * sizeof(obs::TraceRecord));
  coord_.send(control_header(kTagResult, payload.size()), payload.data());
  // Linger until the coordinator closes (it does once every RESULT is in):
  // our peer links must stay open as long as any other worker might still
  // flush toward us, or its writes would die on ECONNRESET. Nothing
  // meaningful follows our RESULT, so whatever arrives is discarded.
  while (coord_.receive()) {
    coord_.parse([](const FrameHeader&, const std::uint8_t*) { return true; });
    util::net::wait_for(coord_.fd(), POLLIN, kNetCtx);
  }
}

/// Worker process body. Never returns; _exit() keeps the forked child from
/// running the parent's atexit handlers or flushing its stdio twice.
/// `recover` marks a replacement worker fork()ed mid-run: it accepts every
/// survivor's dial instead of dialing, then blocks on the coordinator's
/// RESTORE frame and starts frozen at the restored cut.
[[noreturn]] void worker_main(std::uint32_t shard, const DistributedConfig& config,
                              const std::vector<LpRunner*>& lps,
                              std::uint16_t port,
                              const DistributedEngine::HarvestFn& harvest,
                              const LiveStatsHooks& live, bool fault,
                              bool recover) {
  try {
    if (live.on_worker_start) {
      live.on_worker_start(shard);
    }
    if (recover && live.bank != nullptr) {
      // The replacement inherited the coordinator's bank (which holds
      // coordinator-side entries by now); its RESULT must report only its
      // own incarnation.
      live.bank->reset();
    }
    // Bind our own peer listener BEFORE saying HELLO, so the port can ride
    // in the HELLO payload and every other worker can dial it.
    std::uint16_t peer_port = 0;
    const int peer_listen_fd = util::net::listen_loopback(
        0, static_cast<int>(config.num_shards), peer_port, kNetCtx);
    FrameStream coord = connect_stream(port);

    // HELLO must be the first (and, until the driver runs, only) frame on
    // this stream: the coordinator reads exactly one frame per connection
    // to learn which shard it is talking to. The payload carries our peer
    // listener port. send_ns carries our raw clock (t0); the coordinator
    // answers with a HELLO-ACK whose send_ns is ITS clock (t_c) and whose
    // payload is the peer directory. Midpoint estimate: offset = t_c -
    // (t0 + t1)/2. The ACK is batched behind every worker's HELLO (the
    // directory needs them all), so the initial RTT bound is loose; TIME
    // pings tighten it when the attribution plane is armed.
    FrameHeader hello;
    hello.payload_len = 2;
    hello.tag = kTagHello;
    hello.src_lp = shard;
    const std::uint64_t t0 = mono_ns();
    hello.send_ns = t0;
    std::uint8_t port_payload[2];
    std::memcpy(port_payload, &peer_port, 2);
    coord.send(hello, port_payload);
    std::vector<std::uint8_t> dir;
    const FrameHeader ack = coord.read_frame(dir, "HELLO-ACK");
    const std::uint64_t t1 = mono_ns();
    OTW_REQUIRE_MSG(ack.tag == kTagHelloAck,
                    "expected HELLO-ACK as the first coordinator frame");
    const std::uint64_t rtt = t1 - t0;
    const std::int64_t offset = static_cast<std::int64_t>(ack.send_ns) -
                                static_cast<std::int64_t>(t0 + rtt / 2);

    // Dial phase, deterministic: shard i dials every j < i (the TCP accept
    // backlog guarantees those connects succeed even before shard j reaches
    // accept()), then accepts every j > i. One stream per pair.
    WireReader r(dir.data(), dir.size());
    const std::uint32_t n = r.u32();
    OTW_REQUIRE_MSG(n == config.num_shards,
                    "peer directory size mismatch in HELLO-ACK");
    std::vector<FrameStream> links(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint16_t peer = r.u16();
      if (!recover && j < shard) {
        links[j] = dial_peer(peer, shard);
      }
    }
    OTW_REQUIRE_MSG(r.done(), "trailing bytes after peer directory");
    // Fresh start: accept every higher-numbered shard's dial. Recovery:
    // every survivor (re-)dials us, in whatever order they process the
    // RECOVER broadcast.
    const std::uint32_t expect_dials = recover ? n - 1 : n - shard - 1;
    for (std::uint32_t k = 0; k < expect_dials; ++k) {
      FrameStream link = accept_stream(peer_listen_fd);
      std::vector<std::uint8_t> none;
      const FrameHeader ph = link.read_frame(none, "PEER-HELLO");
      OTW_REQUIRE_MSG(ph.tag == kTagPeerHello && ph.payload_len == 0 &&
                          (recover ? ph.src_lp != shard : ph.src_lp > shard) &&
                          ph.src_lp < n && !links[ph.src_lp].is_open(),
                      "malformed PEER-HELLO");
      links[ph.src_lp] = std::move(link);
    }
    ::close(peer_listen_fd);
    ShardDriver driver(shard, config, lps, std::move(coord), std::move(links),
                       live, offset, rtt, fault);
    if (recover) {
      driver.restore_from_coordinator();
    }
    driver.run();
    driver.report(harvest ? harvest(shard, driver.owners())
                          : std::vector<std::uint8_t>{});
    ::_exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[otw shard %u] fatal: %s\n", shard, e.what());
    ::_exit(2);
  } catch (...) {
    std::fprintf(stderr, "[otw shard %u] fatal: unknown exception\n", shard);
    ::_exit(2);
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// Header of a coordinator control frame: `tag`, the control flag, the
/// coordinator's clock in send_ns and `shard` (the addressed worker, where
/// there is one) in src_lp.
FrameHeader coordinator_header(WireTag tag, std::size_t payload_len = 0,
                               std::uint32_t shard = 0) {
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload_len);
  h.tag = tag;
  h.flags = kFlagControl;
  h.src_lp = shard;
  h.send_ns = mono_ns();
  return h;
}

}  // namespace

EngineRunResult DistributedEngine::run(const std::vector<LpRunner*>& lps,
                                       HarvestFn harvest,
                                       LiveStatsHooks live,
                                       MigrationHooks migration,
                                       FaultHooks fault) {
  OTW_REQUIRE(!lps.empty());
  for (auto* lp : lps) {
    OTW_REQUIRE(lp != nullptr);
  }
  OTW_REQUIRE_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  OTW_REQUIRE_MSG(config_.num_shards <= lps.size(),
                  "more shards than LPs (a shard would be empty)");
  if (!config_.placement.empty()) {
    OTW_REQUIRE_MSG(config_.placement.size() == lps.size(),
                    "placement table must cover every LP");
    for (std::uint32_t shard : config_.placement) {
      OTW_REQUIRE_MSG(shard < config_.num_shards,
                      "placement names a shard that does not exist");
    }
  }
  OTW_REQUIRE_MSG(!migration.enabled() || config_.num_shards >= 2,
                  "on-line migration requires >= 2 shards");
  const bool fault_on = fault.enabled;
  OTW_REQUIRE_MSG(!fault_on || config_.num_shards >= 2,
                  "fault tolerance requires >= 2 shards");
  OTW_REQUIRE_MSG(!fault_on || !migration.enabled(),
                  "fault tolerance and on-line migration are mutually "
                  "exclusive (a snapshot would have to version the owner map)");
  // Snapshots and moves are both epochs of one stop-the-world protocol.
  const bool epochs_on = fault_on || migration.enabled();
  OTW_REQUIRE_MSG(!fault_on || fault.inject_kill_shard < 0 ||
                      static_cast<bool>(fault.announced_gvt),
                  "an injected kill needs FaultHooks::announced_gvt (the "
                  "epochs before it follow GVT progress)");

  const std::uint64_t t_start = mono_ns();
  const std::uint32_t num_shards = config_.num_shards;
  payloads_.assign(num_shards, {});

  // Loopback listener; port 0 lets the kernel pick a free one.
  std::uint16_t port = 0;
  const int listen_fd = util::net::listen_loopback(
      config_.port, static_cast<int>(num_shards), port, kNetCtx);

  std::vector<pid_t> children(num_shards, -1);
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(listen_fd);
      for (pid_t child : children) {
        if (child > 0) {
          ::kill(child, SIGKILL);
          ::waitpid(child, nullptr, 0);
        }
      }
      throw_errno("fork");
    }
    if (pid == 0) {
      ::close(listen_fd);
      worker_main(shard, config_, lps, port, harvest, live, fault_on,
                  /*recover=*/false);  // never returns
    }
    children[shard] = pid;
  }

  EngineRunResult result;
  result.dist.num_shards = num_shards;
  result.shard_clocks.assign(num_shards, {});
  result.shard_trace_shift_ns.assign(num_shards, 0);
  result.final_owners.resize(lps.size());
  for (LpId lp = 0; lp < lps.size(); ++lp) {
    result.final_owners[lp] = initial_owner_of(lp, config_);
  }

  try {
    // Coordinator streams, index = shard. Writes are queued and never block:
    // a worker's blocking write to us always makes progress. A failed flush
    // is not acted on; a dead worker shows up as EOF on its stream.
    std::vector<FrameStream> streams(num_shards);
    const auto send_to = [&](std::uint32_t s, const FrameHeader& h,
                             const std::uint8_t* payload) {
      streams[s].queue(h, payload);
      static_cast<void>(streams[s].flush());
    };

    // Phase 1, the handshake: accept every worker and read its HELLO (always
    // the first frame on the stream, payload = that worker's peer listener
    // port) to map connection -> shard. Only once ALL HELLOs are in can the
    // peer directory be assembled, so the HELLO-ACKs — stamped with our
    // clock for the offset estimate and carrying the directory — go out in
    // a second sweep. Recovery replays both steps for the replacement alone.
    std::vector<std::uint16_t> peer_ports(num_shards, 0);
    const auto accept_hello = [&] {
      FrameStream stream = accept_stream(listen_fd);
      std::vector<std::uint8_t> port_raw;
      const FrameHeader hello = stream.read_frame(port_raw, "HELLO");
      OTW_REQUIRE_MSG(hello.tag == kTagHello && hello.payload_len == 2,
                      "first frame on a worker stream must be HELLO");
      OTW_REQUIRE_MSG(
          hello.src_lp < num_shards && !streams[hello.src_lp].is_open(),
          "duplicate or out-of-range shard HELLO");
      std::memcpy(&peer_ports[hello.src_lp], port_raw.data(), 2);
      streams[hello.src_lp] = std::move(stream);
    };
    const auto send_hello_ack = [&](std::uint32_t s) {
      std::vector<std::uint8_t> dir;
      WireWriter w(dir);
      w.u32(num_shards);
      for (const std::uint16_t p : peer_ports) {
        w.u16(p);
      }
      send_to(s, coordinator_header(kTagHelloAck, dir.size(), s), dir.data());
    };
    for (std::uint32_t i = 0; i < num_shards; ++i) {
      accept_hello();
    }
    if (!fault_on) {
      ::close(listen_fd);  // fault keeps it: a replacement worker must HELLO
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      send_hello_ack(s);
    }

    // Control-plane state: the authoritative owner map (placement + committed
    // moves) and termination.
    std::vector<std::uint32_t>& owners = result.final_owners;
    bool any_done = false;
    bool finish_sent = false;
    std::uint32_t results = 0;              ///< RESULT frames received
    std::vector<bool> has_result(num_shards, false);
    /// Per shard: its latest DONE is current (a recovery voids it).
    std::vector<bool> done(num_shards, false);
    const std::uint64_t decide_period_ns =
        static_cast<std::uint64_t>(migration.period_ms) * 1'000'000;
    std::uint64_t next_decide_ns =
        migration.enabled() ? mono_ns() + decide_period_ns : kNever;

    // Epoch control state (snapshots under fault tolerance, moves under
    // migration; DESIGN.md 8c). An epoch is stop-the-world: Settle polls
    // channel-op counters until they are identical across two rounds AND
    // globally balanced (the quiescence proof), Cut freezes LPs at the
    // shared GVT (a snapshot every LP, a move only the moving one), Resettle
    // absorbs the traffic the cut's flushes produced, then Serialize
    // collects the per-shard blobs or Move installs the new owner and ships
    // the LP, and Resume (commit) or Abort (discard) releases.
    enum class SnapPhase : std::uint8_t { Idle, Settle, Cut, Resettle,
                                          Serialize, Move };
    SnapPhase snap_phase = SnapPhase::Idle;
    std::optional<MigrationDecision> move;  ///< empty in a snapshot epoch
    std::uint32_t snap_epoch = 0;
    std::uint32_t next_snap_epoch = 1;
    std::uint64_t snap_started_ns = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> snap_counts(
        num_shards);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> snap_prev(num_shards);
    std::vector<bool> snap_reported(num_shards, false);
    std::uint32_t snap_report_count = 0;
    std::uint32_t snap_poll_round = 0;  // run-unique poll round id
    bool snap_have_prev = false;
    std::uint32_t acks = 0;  ///< Cut or Move acknowledgements in
    bool cut_declined = false;
    std::uint64_t cut_gvt = 0;
    std::vector<std::vector<std::uint8_t>> snap_blobs(num_shards);
    std::uint32_t snap_data_count = 0;
    SnapshotImage last_cut;          ///< last complete (restorable) cut
    bool have_cut = false;
    bool last_cut_in_memory = false; ///< blobs held in last_cut.shards
    std::string last_cut_path;       ///< spill file of that cut, if written
    const std::uint64_t initial_gap_ns =
        static_cast<std::uint64_t>(fault.initial_gap_ms) * 1'000'000;
    std::uint64_t next_snap_ns = fault_on ? mono_ns() + initial_gap_ns : kNever;
    // An injected kill that has not fired yet. Until it does, epochs follow
    // GVT progress, not next_snap_ns: the next one starts once the relayed
    // announces show the cluster GVT past the last cut, so a run too short
    // for the wall-clock schedule still reaches the epoch the kill awaits.
    bool kill_armed = fault_on && fault.inject_kill_shard >= 0;
    std::uint64_t cluster_gvt = 0;  ///< highest relayed announce while armed
    const auto snapshot_due = [&](std::uint64_t now) {
      return kill_armed ? cluster_gvt > last_cut.gvt_ticks
                        : now >= next_snap_ns;
    };

    const auto broadcast = [&](const FrameHeader& h,
                               const std::uint8_t* payload) {
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (!has_result[s]) {
          send_to(s, h, payload);
        }
      }
    };
    // FINISH once every worker's latest DONE is current and no epoch is
    // under way. A DONE can only reach us before its shard's first counters
    // ACK of an epoch (a worker outside Run mode never sends one), it aborts
    // that epoch, and no epoch starts after it, so no LP can move onto a
    // shard whose DONE we hold.
    const auto try_finish = [&] {
      if (finish_sent || snap_phase != SnapPhase::Idle ||
          std::find(done.begin(), done.end(), false) != done.end()) {
        return;
      }
      broadcast(coordinator_header(kTagFinish), nullptr);
      finish_sent = true;
    };

    const auto broadcast_snap_ctl = [&](std::uint8_t code,
                                        std::uint32_t epoch) {
      std::vector<std::uint8_t> p;
      WireWriter w(p);
      w.u8(code);
      w.u32(epoch);
      w.u32(move ? move->lp : kNoMove);
      w.u32(move ? move->to_shard : 0);
      broadcast(coordinator_header(kTagSnapCtl, p.size()), p.data());
    };
    const auto end_epoch = [&](std::uint8_t code) {
      broadcast_snap_ctl(code, snap_epoch);
      snap_phase = SnapPhase::Idle;
      snap_have_prev = false;
      snap_data_count = 0;
      move.reset();
      try_finish();
    };
    const auto begin_poll_round = [&] {
      std::fill(snap_reported.begin(), snap_reported.end(), false);
      snap_report_count = 0;
      // The Poll frame's epoch field carries a run-unique round id; only
      // ACKs stamped with it count toward this round, so a late ACK from a
      // previous round can never fake two stable rounds.
      ++snap_poll_round;
      broadcast_snap_ctl(kSnapPoll, snap_poll_round);
    };
    const auto begin_epoch = [&](std::optional<MigrationDecision> m) {
      snap_epoch = next_snap_epoch++;
      snap_started_ns = mono_ns();
      snap_phase = SnapPhase::Settle;
      snap_have_prev = false;
      move = m;
      for (auto& b : snap_blobs) {
        b.clear();
      }
      broadcast_snap_ctl(kSnapStop, snap_epoch);
      begin_poll_round();
    };
    const auto abort_epoch = [&] {
      for (auto& b : snap_blobs) {
        b.clear();
      }
      next_snap_ns = mono_ns() + initial_gap_ns;
      end_epoch(kSnapAbort);
    };
    // All SNAP_DATA blobs are in: commit (spill if asked, Abort instead of
    // keeping an epoch that exceeds the budget with nowhere to spill — the
    // workers' self-blobs must never get ahead of what the coordinator can
    // actually restore from), schedule the next cut, release the world.
    const auto finalize_epoch = [&] {
      std::uint64_t total = 0;
      for (const auto& b : snap_blobs) {
        total += b.size();
      }
      const bool oversize =
          fault.max_snapshot_bytes > 0 && total > fault.max_snapshot_bytes;
      bool committed = false;
      if (!(oversize && fault.spill_dir.empty())) {
        SnapshotImage image;
        image.engine = kSnapshotEngineDistributed;
        image.epoch = snap_epoch;
        image.gvt_ticks = cut_gvt;
        image.num_lps = static_cast<std::uint32_t>(lps.size());
        image.shards.resize(num_shards);
        for (std::uint32_t s = 0; s < num_shards; ++s) {
          image.shards[s].shard = s;
          image.shards[s].blob = std::move(snap_blobs[s]);
          snap_blobs[s].clear();
        }
        if (!fault.spill_dir.empty()) {
          last_cut_path = fault.spill_dir + "/otw_snapshot_epoch" +
                          std::to_string(snap_epoch) + ".otwsnap";
          write_snapshot_file(last_cut_path, image);
        }
        if (oversize) {
          // Spilled; keep only the manifest fields in memory.
          last_cut = SnapshotImage{};
          last_cut.engine = image.engine;
          last_cut.epoch = image.epoch;
          last_cut.gvt_ticks = image.gvt_ticks;
          last_cut.num_lps = image.num_lps;
          last_cut_in_memory = false;
        } else {
          last_cut = std::move(image);
          last_cut_in_memory = true;
        }
        have_cut = true;
        committed = true;
        ++result.dist.snapshots_taken;
        result.dist.snapshot_bytes += total;
      }
      const std::uint64_t cost_ns = mono_ns() - snap_started_ns;
      std::uint32_t gap_ms = fault.initial_gap_ms;
      if (committed && fault.next_gap_ms) {
        gap_ms = fault.next_gap_ms(cost_ns, total);
      }
      next_snap_ns = mono_ns() + static_cast<std::uint64_t>(gap_ms) * 1'000'000;
      end_epoch(committed ? kSnapResume : kSnapAbort);
      if (committed && kill_armed &&
          snap_epoch >= fault.inject_kill_after_epoch) {
        // Test hook: lose a shard right after a committed cut.
        kill_armed = false;
        const auto victim = static_cast<std::uint32_t>(fault.inject_kill_shard);
        ::kill(children[victim], SIGKILL);
      }
    };
    // Recovery (DESIGN.md 8c) is a phase of the control loop below. A worker
    // died (EOF): begin_recovery forks a replacement, replays the handshake,
    // queues it the last complete cut and tells every survivor to roll back
    // to that cut. While `recovering` RECOVERED frames are still owed, the
    // loop handles only RECOVERED, STATS and TIME; everything else belongs to
    // the dead incarnation and is dropped, and any EOF is a fatal double
    // fault. The last RECOVERED resumes the cluster.
    std::uint32_t recovering = 0;
    std::uint64_t recovery_started_ns = 0;
    RecoveryIncident incident;
    const auto begin_recovery = [&](std::uint32_t dead) {
      recovery_started_ns = mono_ns();
      // Whatever snapshot phase was in flight can no longer complete; the
      // workers discard their pending blobs when RECOVER arrives.
      snap_phase = SnapPhase::Idle;
      snap_have_prev = false;
      snap_data_count = 0;
      for (auto& b : snap_blobs) {
        b.clear();
      }
      ::waitpid(children[dead], nullptr, 0);
      children[dead] = -1;
      streams[dead].close();
      // The cut blob for the lost shard, from memory or the spill file. Copy
      // (not move) out of last_cut: a second failure may need it again.
      std::vector<std::uint8_t> blob;
      std::uint64_t restore_gvt = last_cut.gvt_ticks;
      if (last_cut_in_memory) {
        blob = last_cut.shards[dead].blob;
      } else {
        SnapshotImage img = read_snapshot_file(last_cut_path);
        OTW_REQUIRE_MSG(img.epoch == last_cut.epoch,
                        "spilled snapshot names a different epoch");
        restore_gvt = img.gvt_ticks;
        for (SnapshotShardBlob& sb : img.shards) {
          if (sb.shard == dead) {
            blob = std::move(sb.blob);
          }
        }
      }
      OTW_REQUIRE_MSG(!blob.empty(),
                      "the last cut holds no blob for the lost shard");
      const pid_t pid = ::fork();
      if (pid < 0) {
        throw_errno("fork (recovery)");
      }
      if (pid == 0) {
        ::close(listen_fd);
        for (FrameStream& stream : streams) {
          stream.close();
        }
        worker_main(dead, config_, lps, port, harvest, live, /*fault=*/true,
                    /*recover=*/true);  // never returns
      }
      children[dead] = pid;
      // Only the dead shard's stream is closed, so its replacement is the
      // one HELLO accept_hello() can admit.
      accept_hello();
      send_hello_ack(dead);
      // RESTORE follows the ACK; queued like every coordinator write, since
      // the blob can exceed the socket buffer and the replacement reads it
      // only after accepting the survivors' re-dials.
      {
        std::vector<std::uint8_t> p;
        WireWriter w(p);
        w.u32(last_cut.epoch);
        w.u64(restore_gvt);
        w.bytes(blob.data(), blob.size());
        send_to(dead, coordinator_header(kTagRestore, p.size()), p.data());
      }
      // Tell the survivors: roll back to the cut, mark your links, re-dial
      // the new incarnation.
      {
        std::vector<std::uint8_t> p;
        WireWriter w(p);
        w.u32(last_cut.epoch);
        w.u32(dead);
        w.u16(peer_ports[dead]);
        const FrameHeader h = coordinator_header(kTagRecover, p.size());
        for (std::uint32_t s = 0; s < num_shards; ++s) {
          if (s != dead) {
            send_to(s, h, p.data());
          }
        }
      }
      incident = RecoveryIncident{};
      incident.epoch = last_cut.epoch;
      incident.lost_shard = dead;
      incident.bytes = blob.size();
      incident.gvt_ticks = restore_gvt;
      recovering = num_shards;
    };
    const auto end_recovery = [&] {
      // Every shard is frozen at the cut: stale endgame state is void.
      std::fill(done.begin(), done.end(), false);
      any_done = false;
      incident.restore_ns = mono_ns() - recovery_started_ns;
      result.recoveries.push_back(incident);
      broadcast_snap_ctl(kSnapResume, last_cut.epoch);
      next_snap_ns = mono_ns() + initial_gap_ns;
    };

    // One frame from shard `s`. Returns false to stop parsing its stream
    // (nothing after a RESULT matters).
    const auto on_frame = [&](std::uint32_t s, const FrameHeader& header,
                              const std::uint8_t* frame) -> bool {
      const std::uint8_t* payload = frame + kFrameHeaderBytes;
      if (header.tag == kTagStats) {
        // Live health snapshot: absorbed here, never relayed.
        if (live.on_stats) {
          live.on_stats(s, payload, header.payload_len);
        }
        ++result.dist.stats_frames;
      } else if (header.tag == kTagTime) {
        // Clock refresh ping: echo the worker's raw t0 back alongside our
        // own clock. Never relayed, never counted as data.
        std::uint8_t t0[8];
        std::memcpy(t0, &header.send_ns, 8);
        send_to(s, coordinator_header(kTagTime, 8, s), t0);
      } else if (header.tag == kTagRecovered) {
        // Outside a recovery: a straggler from a window that already closed.
        OTW_REQUIRE_MSG(fault_on, "unexpected RECOVERED frame");
        if (recovering > 0 && --recovering == 0) {
          end_recovery();
        }
      } else if (recovering > 0) {
        // Dropped: stale SNAP_ACK/SNAP_DATA/DONE and relayed GVT frames of
        // the dead incarnation; the restored cut predates them.
      } else if (header.tag == kTagResult) {
        WireReader reader(payload, header.payload_len);
        ShardTotals totals;
        reader.bytes(&totals, sizeof totals);
        result.steps += totals.steps;
        result.physical_messages += totals.physical_messages;
        result.wire_bytes += totals.wire_bytes;
        result.dist.add(totals.dist);
        const std::uint32_t blob_len = reader.u32();
        payloads_[s].resize(blob_len);
        reader.bytes(payloads_[s].data(), blob_len);
        // Clock alignment: shift = (worker epoch in coordinator domain) - our
        // run start. Adding it to a driver-relative timestamp yields a
        // coordinator-run-relative one.
        const std::uint64_t epoch_ns = reader.u64();
        ShardClock clock;
        clock.offset_ns = static_cast<std::int64_t>(reader.u64());
        clock.rtt_ns = reader.u64();
        result.shard_clocks[s] = clock;
        const std::int64_t shift = static_cast<std::int64_t>(epoch_ns) +
                                   clock.offset_ns -
                                   static_cast<std::int64_t>(t_start);
        result.shard_trace_shift_ns[s] = shift;
        std::vector<std::uint8_t> hists(reader.u32());
        reader.bytes(hists.data(), hists.size());
        std::size_t hists_pos = 0;
        OTW_REQUIRE_MSG(obs::live::decode_hists(hists.data(), hists.size(),
                                                hists_pos, s, result.hists) &&
                            hists_pos == hists.size(),
                        "RESULT carries a malformed histogram section");
        obs::LpTraceLog wire_log;
        wire_log.lp = s;
        wire_log.dropped = reader.u64();
        wire_log.name = "shard " + std::to_string(s) + " wire";
        const std::uint32_t n_records = reader.u32();
        wire_log.records.resize(n_records);
        reader.bytes(wire_log.records.data(),
                     n_records * sizeof(obs::TraceRecord));
        for (obs::TraceRecord& rec : wire_log.records) {
          const std::int64_t shifted =
              static_cast<std::int64_t>(rec.wall_ns) + shift;
          rec.wall_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
        }
        if (n_records > 0 || wire_log.dropped > 0) {
          result.worker_traces.push_back(std::move(wire_log));
        }
        has_result[s] = true;
        ++results;
        return false;
      } else if (header.tag == kTagDone) {
        OTW_REQUIRE_MSG(header.payload_len == 0, "malformed DONE frame");
        done[s] = true;
        any_done = true;
        if (snap_phase != SnapPhase::Idle) {
          // A shard finished before our Stop reached it (its DONE precedes
          // its settle ACKs in stream order, so we always see it before the
          // cut fires). Cutting would roll completion back — drop the epoch
          // instead; the run is nearly over.
          abort_epoch();
        }
        try_finish();
      } else if (header.tag == kTagSnapAck) {
        OTW_REQUIRE_MSG(epochs_on && header.payload_len == 21,
                        "unexpected SNAP_ACK frame");
        WireReader reader(payload, header.payload_len);
        const std::uint8_t kind = reader.u8();
        const std::uint64_t a = reader.u64();
        const std::uint64_t b = reader.u64();
        // Round id for counters ACKs, epoch for the others.
        const std::uint32_t seq = reader.u32();
        if (kind == kSnapAckCounters && seq == snap_poll_round &&
            (snap_phase == SnapPhase::Settle ||
             snap_phase == SnapPhase::Resettle)) {
          if (!snap_reported[s]) {
            snap_reported[s] = true;
            ++snap_report_count;
          }
          snap_counts[s] = {a, b};
          if (snap_report_count == num_shards) {
            // Quiescent iff the counter vector repeated across two rounds
            // AND is globally balanced: repetition alone can be a
            // coincidence of in-flight frames, balance alone can hold while
            // frames are still moving.
            bool identical = snap_have_prev;
            std::uint64_t sum_sent = 0;
            std::uint64_t sum_recv = 0;
            for (std::uint32_t k = 0; k < num_shards; ++k) {
              sum_sent += snap_counts[k].first;
              sum_recv += snap_counts[k].second;
              if (identical && snap_counts[k] != snap_prev[k]) {
                identical = false;
              }
            }
            if (identical && sum_sent == sum_recv) {
              snap_have_prev = false;
              acks = 0;
              if (snap_phase == SnapPhase::Settle) {
                snap_phase = SnapPhase::Cut;
                cut_declined = false;
                cut_gvt = 0;
                broadcast_snap_ctl(kSnapCut, snap_epoch);
              } else if (move) {
                snap_phase = SnapPhase::Move;
                broadcast_snap_ctl(kSnapMove, snap_epoch);
              } else {
                snap_phase = SnapPhase::Serialize;
                snap_data_count = 0;
                broadcast_snap_ctl(kSnapSerialize, snap_epoch);
              }
            } else {
              snap_prev = snap_counts;
              snap_have_prev = true;
              begin_poll_round();
            }
          }
        } else if ((kind == kSnapAckAccept || kind == kSnapAckDecline) &&
                   snap_phase == SnapPhase::Cut && seq == snap_epoch) {
          ++acks;
          if (kind == kSnapAckDecline) {
            cut_declined = true;
          } else {
            OTW_REQUIRE_MSG(cut_gvt == 0 || cut_gvt == a,
                            "shards disagree on the cut GVT");
            cut_gvt = a;
          }
          if (acks == num_shards) {
            if (cut_declined) {
              // Some shard cannot cut here (an LP finished, or a snapshot
              // at GVT 0); a taken cut is digest-neutral — abort, and retry
              // a snapshot after the initial gap.
              abort_epoch();
            } else {
              // The cut's rollbacks flushed fresh sends; settle again
              // before asking anyone to serialize or ship.
              snap_phase = SnapPhase::Resettle;
              snap_have_prev = false;
              begin_poll_round();
            }
          }
        } else if (kind == kSnapAckMoved && snap_phase == SnapPhase::Move &&
                   seq == snap_epoch) {
          if (++acks == num_shards) {
            // Every worker routes by the new owner and the destination
            // holds the LP: the move is committed.
            ++result.dist.migrations;
            owners[move->lp] = move->to_shard;
            end_epoch(kSnapResume);
          }
        }
        // Stale ACKs (a recovery voided the epoch mid-flight) drop here.
      } else if (header.tag == kTagSnapData) {
        OTW_REQUIRE_MSG(fault_on && header.payload_len >= 12,
                        "unexpected SNAP_DATA frame");
        WireReader reader(payload, header.payload_len);
        const std::uint32_t epoch = reader.u32();
        const std::uint64_t gvt = reader.u64();
        if (snap_phase == SnapPhase::Serialize && epoch == snap_epoch) {
          OTW_REQUIRE_MSG(gvt == cut_gvt,
                          "SNAP_DATA disagrees with the cut GVT");
          auto& blob = snap_blobs[s];
          blob.resize(reader.remaining());
          reader.bytes(blob.data(), blob.size());
          if (++snap_data_count == num_shards) {
            finalize_epoch();
          }
        }
        // Stale epochs (voided by a recovery) drop here.
      } else {
        OTW_REQUIRE_MSG(header.tag < kReservedTagBase,
                        "unexpected control frame from worker");
        // The data plane bypasses the coordinator entirely; only
        // control-plane (GVT) frames are relayed here.
        OTW_REQUIRE_MSG((header.flags & kFlagControl) != 0,
                        "data frame on a coordinator stream");
        OTW_REQUIRE(header.dst_lp < lps.size());
        const std::uint32_t dst_shard = owners[header.dst_lp];
        OTW_REQUIRE(dst_shard < num_shards);
        const std::size_t frame_len = kFrameHeaderBytes + header.payload_len;
        streams[dst_shard].queue_raw(frame, frame_len);
        static_cast<void>(streams[dst_shard].flush());
        ++result.dist.frames_relayed;
        if (kill_armed) {
          if (const std::optional<std::uint64_t> gvt = fault.announced_gvt(
                  header.tag, payload, header.payload_len)) {
            cluster_gvt = std::max(cluster_gvt, *gvt);
          }
        }
        if (live.bank != nullptr || live.on_relay) {
          // Relay residency: origin encode -> queued for the destination
          // (the upstream half of the end-to-end link latency).
          const std::uint64_t now = mono_ns();
          if (live.bank != nullptr) {
            live.bank->record_link(
                obs::hist::Seam::RelayResidency, s, dst_shard,
                now > header.send_ns ? now - header.send_ns : 0);
          }
          if (live.on_relay) {
            live.on_relay(s, dst_shard, header.tag,
                          static_cast<std::uint32_t>(frame_len),
                          header.send_ns, now);
          }
        }
      }
      return true;
    };

    // Phase 2: control loop. Only control frames arrive here — GVT
    // tokens/announces, relayed by the owner map — plus the termination,
    // epoch and recovery protocols (DONE/SNAP_*/RECOVERED in,
    // FINISH/SNAP_CTL/RECOVER out).
    std::vector<pollfd> pfds(num_shards);
    while (results < num_shards) {
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        pfds[s].fd = has_result[s] ? -1 : streams[s].fd();
        pfds[s].events = static_cast<short>(
            POLLIN | (streams[s].queued_bytes() > 0 ? POLLOUT : 0));
        pfds[s].revents = 0;
      }
      const bool may_snapshot = fault_on && recovering == 0 &&
                                snap_phase == SnapPhase::Idle &&
                                !finish_sent && !any_done && results == 0;
      // Moves start at most one per decide tick, never during another epoch
      // or after any shard's DONE (endgame).
      const bool may_decide = migration.enabled() &&
                              snap_phase == SnapPhase::Idle && !any_done &&
                              !finish_sent;
      int timeout_ms = -1;
      if (may_decide) {
        const std::uint64_t now = mono_ns();
        timeout_ms = next_decide_ns <= now
                         ? 0
                         : static_cast<int>((next_decide_ns - now) / 1'000'000 + 1);
      }
      if (fault_on) {
        // Capped so externally-requested kills (the watchdog path) are
        // noticed promptly even while every stream is quiet.
        int cap = kFaultPollCapMs;
        if (may_snapshot) {
          const std::uint64_t now = mono_ns();
          if (snapshot_due(now)) {
            cap = 0;
          } else if (!kill_armed) {
            cap = std::min(
                cap, static_cast<int>((next_snap_ns - now) / 1'000'000 + 1));
          }
          // An armed kill waits on relayed announces, which wake the poll
          // themselves: until one is due it sleeps the cap, never 0.
        }
        timeout_ms = timeout_ms < 0 ? cap : std::min(timeout_ms, cap);
      }
      const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("poll (relay)");
      }
      if (fault_on && fault.kill_request && recovering == 0) {
        const std::int32_t victim = fault.kill_request->exchange(-1);
        // Honored only when a restorable cut exists and the run is still in
        // flight; otherwise the request is dropped (recovery would fail).
        if (victim >= 0 && static_cast<std::uint32_t>(victim) < num_shards &&
            have_cut && !finish_sent &&
            !has_result[static_cast<std::uint32_t>(victim)]) {
          ::kill(children[static_cast<std::uint32_t>(victim)], SIGKILL);
        }
      }
      if (may_snapshot && snapshot_due(mono_ns())) {
        begin_epoch(std::nullopt);
      }
      if (may_decide && mono_ns() >= next_decide_ns) {
        next_decide_ns = mono_ns() + decide_period_ns;
        const std::optional<MigrationDecision> d = migration.decide(owners);
        if (d.has_value()) {
          OTW_REQUIRE_MSG(d->lp < lps.size() && d->to_shard < num_shards &&
                              owners[d->lp] != d->to_shard,
                          "invalid migration decision");
          begin_epoch(d);
        }
      }
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (has_result[s]) {
          continue;
        }
        FrameStream& stream = streams[s];
        if ((pfds[s].revents & POLLOUT) != 0) {
          static_cast<void>(stream.flush());
        }
        if ((pfds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        // Parse before acting on EOF: a worker may close right after its
        // RESULT, which may still sit unparsed in the stream.
        const bool open = stream.receive();
        stream.parse([&](const FrameHeader& header, const std::uint8_t* frame) {
          return on_frame(s, header, frame);
        });
        if (open || has_result[s]) {
          continue;
        }
        if (recovering > 0) {
          throw std::runtime_error("shard " + std::to_string(s) +
                                   " died during recovery (double fault is "
                                   "fatal)");
        }
        if (fault_on && have_cut && !finish_sent &&
            result.recoveries.size() <
                static_cast<std::size_t>(fault.max_recoveries)) {
          begin_recovery(s);
          continue;
        }
        throw std::runtime_error("shard " + std::to_string(s) +
                                 " exited before reporting a result");
      }
    }

    for (FrameStream& stream : streams) {
      stream.close();  // workers linger on this close before exiting
    }
    if (fault_on) {
      ::close(listen_fd);
    }
  } catch (...) {
    if (fault_on) {
      ::close(listen_fd);
    }
    for (pid_t child : children) {
      if (child > 0) {
        ::kill(child, SIGKILL);
        ::waitpid(child, nullptr, 0);
      }
    }
    throw;
  }

  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(children[shard], &status, 0);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      throw_errno("waitpid");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error(
          "DistributedEngine: shard " + std::to_string(shard) +
          (WIFSIGNALED(status)
               ? " killed by signal " + std::to_string(WTERMSIG(status))
               : " exited with status " + std::to_string(WEXITSTATUS(status))));
    }
  }

  // RESULT frames land in completion order; report tracks in shard order.
  std::sort(result.worker_traces.begin(), result.worker_traces.end(),
            [](const obs::LpTraceLog& a, const obs::LpTraceLog& b) {
              return a.lp < b.lp;
            });
  // Coordinator-side histograms (relay residency): stamped with the pseudo
  // shard id num_shards so they are distinguishable from worker entries.
  if (live.bank != nullptr) {
    for (obs::hist::Entry& e : live.bank->snapshot(num_shards)) {
      result.hists.push_back(std::move(e));
    }
  }
  result.execution_time_ns = mono_ns() - t_start;
  return result;
}

}  // namespace otw::platform
