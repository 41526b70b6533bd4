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
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "otw/obs/live.hpp"
#include "otw/platform/snapshot_file.hpp"
#include "otw/platform/wire.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/net.hpp"

namespace otw::platform {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// SNAP_CTL phases (payload: u8 phase + u32 epoch). DESIGN.md section 8c.
constexpr std::uint8_t kSnapStop = 0;       ///< enter the settle loop
constexpr std::uint8_t kSnapPoll = 1;       ///< report channel-op counters
constexpr std::uint8_t kSnapCut = 2;        ///< freeze every LP at the GVT cut
constexpr std::uint8_t kSnapSerialize = 3;  ///< encode + ship the shard blob
constexpr std::uint8_t kSnapResume = 4;     ///< epoch committed; run again
constexpr std::uint8_t kSnapAbort = 5;      ///< epoch discarded; run again

// SNAP_ACK kinds (payload: u8 kind + u64 a + u64 b).
constexpr std::uint8_t kSnapAckCounters = 0;  ///< a = sent, b = received
constexpr std::uint8_t kSnapAckAccept = 1;    ///< cut taken; a = cut GVT ticks
constexpr std::uint8_t kSnapAckDecline = 2;   ///< cut refused (done / GVT 0)

/// Under fault tolerance the coordinator's poll sleep is capped so watchdog
/// kill requests and snapshot deadlines are honored promptly.
constexpr int kFaultPollCapMs = 25;

/// Shortest gap between two clock-refresh pings from one worker. Pings are
/// triggered by received GVT announces, which can burst; the estimate only
/// improves on a lower-RTT sample, so pinging faster than this is waste.
constexpr std::uint64_t kTimePingMinGapNs = 50'000'000;

/// FrameHeader.flags bit for control-plane frames (EngineMessage::wire_control).
constexpr std::uint16_t kFlagControl = 0x0001;

// POSIX plumbing lives in util::net (shared with the obs::live endpoint);
// these shims pin the error-message prefix for this transport.
const std::string kNetCtx = "DistributedEngine";

using util::net::mono_ns;

[[noreturn]] void throw_errno(const std::string& what) {
  util::net::throw_errno(kNetCtx, what);
}

void set_nonblocking(int fd) { util::net::set_nonblocking(fd, kNetCtx); }

void set_nodelay(int fd) {
  // Nagle would serialize the latency the aggregation layer is measuring;
  // batching is DyMA's job, not the kernel's.
  util::net::set_nodelay(fd, kNetCtx);
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  util::net::write_all(fd, data, len, kNetCtx);
}

bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  return util::net::read_exact(fd, data, len, kNetCtx);
}

void send_frame(int fd, const FrameHeader& header, const std::uint8_t* payload) {
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  write_all(fd, raw, kFrameHeaderBytes);
  if (header.payload_len > 0) {
    write_all(fd, payload, header.payload_len);
  }
}

/// Appends a framed message to an outbound byte queue (for links flushed
/// non-blockingly: two peers writing to each other with blocking sockets
/// and full kernel buffers would deadlock; queued writes never block).
void queue_frame(std::vector<std::uint8_t>& out, const FrameHeader& header,
                 const std::uint8_t* payload) {
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  out.insert(out.end(), raw, raw + kFrameHeaderBytes);
  if (header.payload_len > 0) {
    out.insert(out.end(), payload, payload + header.payload_len);
  }
}

/// Writes as much queued output as the socket accepts without blocking;
/// POLLOUT resumes the rest.
void flush_out(int fd, std::vector<std::uint8_t>& out, std::size_t& out_pos,
               const char* what) {
  while (out_pos < out.size()) {
    const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // kernel buffer full; POLLOUT will resume
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    throw_errno(what);
  }
  out.clear();
  out_pos = 0;
}

/// flush_out, but a counterpart that died mid-write (its process was
/// SIGKILLed) reports failure instead of throwing: under fault tolerance the
/// link is torn down and re-dialed at recovery. Returns false on a broken
/// link; queued bytes stay put (they are discarded with the incarnation).
[[nodiscard]] bool flush_out_tolerant(int fd, std::vector<std::uint8_t>& out,
                                      std::size_t& out_pos) {
  while (out_pos < out.size()) {
    const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // EPIPE / ECONNRESET / ...: the counterpart is gone
  }
  out.clear();
  out_pos = 0;
  return true;
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

/// One direct worker-to-worker TCP stream (peer link). Output is queued
/// and flushed non-blockingly; input bytes accumulate until whole frames
/// parse out. One stream per ordered pair is exactly the per-(src,dst) FIFO
/// the kernel's non-overtaking contract needs.
struct PeerLink {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;

  [[nodiscard]] bool out_pending() const noexcept { return out_pos < out.size(); }
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
              const std::vector<LpRunner*>& all_lps, int fd,
              std::vector<PeerLink> links, const LiveStatsHooks& live,
              std::int64_t clock_offset_ns, std::uint64_t clock_rtt_ns,
              bool fault)
      : shard_(shard),
        config_(config),
        live_(live),
        clock_offset_ns_(clock_offset_ns),
        clock_rtt_ns_(clock_rtt_ns),
        num_lps_(static_cast<LpId>(all_lps.size())),
        fd_(fd),
        all_lps_(all_lps),
        links_(std::move(links)),
        fault_(fault),
        trace_(config.wire_trace_capacity ? config.wire_trace_capacity : 1),
        epoch_ns_(mono_ns()) {
    await_marker_.assign(config.num_shards, false);
    early_marker_.assign(config.num_shards, false);
    owners_.resize(num_lps_);
    epochs_.assign(num_lps_, 0);
    lp_index_.assign(num_lps_, SIZE_MAX);
    pending_in_.resize(num_lps_);
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

  /// Encodes the shard summary + harvest blob as the RESULT payload.
  void encode_result(WireWriter& w, const std::vector<std::uint8_t>& harvest) const;

  /// Replacement-worker entry: adopt a RESTORE payload as this shard's
  /// committed snapshot, rebuild every local LP from it and freeze until the
  /// coordinator's Resume. Called once, before run().
  void restore_from(std::uint32_t epoch, std::uint64_t gvt_ticks,
                    std::vector<std::uint8_t> blob);

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
  void drain_socket();
  void drain_links();
  void handle_coord_frame(const FrameHeader& header, const std::uint8_t* payload);
  void handle_peer_frame(std::uint32_t peer, const std::uint8_t* frame,
                         const FrameHeader& header);
  void route_inbound(const std::uint8_t* frame, const FrameHeader& header,
                     std::uint32_t src_shard_hint);
  void handle_migrate_cmd(const std::uint8_t* payload, std::uint32_t len);
  void handle_migrate_in(const FrameHeader& header, const std::uint8_t* payload);
  void handle_rebind(const std::uint8_t* payload, std::uint32_t len);
  void handle_time_echo(const FrameHeader& header, const std::uint8_t* payload);
  void handle_snap_ctl(const std::uint8_t* payload, std::uint32_t len);
  void handle_recover(const std::uint8_t* payload, std::uint32_t len);
  void send_snap_ack(std::uint8_t kind, std::uint64_t a, std::uint64_t b,
                     std::uint32_t seq);
  void serialize_shard(std::uint32_t epoch);
  void restore_local(WireReader& r);
  void settle_pass();
  void drop_peer_link(std::uint32_t peer);
  void flush_peer_link(std::uint32_t peer);
  void maybe_send_time_ping();
  void send_done();
  void flush_links();
  void forward_frame(const std::uint8_t* frame, const FrameHeader& header);
  void idle_wait();
  void maybe_send_stats();

  class Context;

  /// Snapshot-protocol execution mode. Run = normal stepping; Settle = no
  /// stepping, absorb + flush only (between SNAP_CTL stop and resume); Hold
  /// = frozen after serialize/restore until the coordinator's Resume.
  enum class SnapMode : std::uint8_t { Run, Settle, Hold };

  std::uint32_t shard_;
  const DistributedConfig& config_;
  const LiveStatsHooks& live_;
  std::int64_t clock_offset_ns_;   ///< worker -> coordinator clock shift
  std::uint64_t clock_rtt_ns_;     ///< RTT of the best (lowest) estimate so far
  std::uint64_t last_time_ping_ns_ = 0;  ///< driver-relative (now_ns())
  std::uint64_t next_stats_ns_ = 0;  ///< driver-relative deadline (now_ns())
  LpId num_lps_;
  int fd_;
  const std::vector<LpRunner*>& all_lps_;  ///< fork gave us a copy of every LP
  std::vector<PeerLink> links_;            ///< index = shard; self unused
  std::vector<ShardLp> lps_;
  std::vector<std::size_t> lp_index_;  ///< global LpId -> index in lps_
  std::vector<std::uint32_t> owners_;  ///< LP -> shard, current routing epoch
  std::vector<std::uint32_t> epochs_;  ///< LP -> highest rebind epoch seen
  /// Inbound messages for an LP this shard owns (per REBIND/MIGRATE) whose
  /// state has not arrived yet; drained into the inbox at migrate-in.
  std::vector<std::deque<std::unique_ptr<EngineMessage>>> pending_in_;
  std::size_t remaining_ = 0;       ///< local LPs not Done and not migrated out
  std::uint64_t migrations_in_ = 0;
  bool done_announced_ = false;
  bool finish_received_ = false;
  std::vector<std::uint8_t> in_buf_;   ///< unparsed coordinator-stream bytes
  std::vector<std::uint8_t> scratch_;  ///< payload encode buffer

  // --- fault tolerance (DESIGN.md section 8c) ---
  bool fault_ = false;
  SnapMode snap_mode_ = SnapMode::Run;
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
      if (driver_.lp_index_[dst] != SIZE_MAX) {
        driver_.deliver_local(dst, std::move(msg));
      } else {
        // Rebound here, state still in flight: park until migrate-in.
        ++driver_.snap_sent_;
        driver_.pending_in_[dst].push_back(std::move(msg));
      }
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
    send_frame(fd_, header, scratch_.data());
  } else {
    // Data plane: one hop on the direct (src,dst) peer link. A dead peer's
    // frames accumulate in the queue and are discarded with the incarnation
    // at recovery (the rollback re-generates them).
    const std::uint32_t peer = owners_[dst];
    queue_frame(links_[peer].out, header, scratch_.data());
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
  FrameHeader ping;
  ping.tag = kTagTime;
  ping.flags = kFlagControl;
  ping.src_lp = shard_;
  ping.send_ns = mono_ns();  // RAW local clock; echoed back verbatim
  send_frame(fd_, ping, nullptr);
}

void ShardDriver::forward_frame(const std::uint8_t* frame,
                                const FrameHeader& header) {
  // The sender's routing epoch was stale: re-ship the frame verbatim to the
  // shard we believe owns the LP. Owner maps only move to higher epochs, so
  // a forwarded frame always moves toward the migration's destination and
  // chains terminate (bounded by the number of rebinds).
  const std::uint32_t peer = owners_[header.dst_lp];
  PeerLink& link = links_[peer];
  link.out.insert(link.out.end(), frame,
                  frame + kFrameHeaderBytes + header.payload_len);
  ++snap_sent_;
  flush_peer_link(peer);
  ++totals_.dist.frames_forwarded;
}

void ShardDriver::route_inbound(const std::uint8_t* frame,
                                const FrameHeader& header,
                                std::uint32_t src_shard_hint) {
  const LpId dst = header.dst_lp;
  OTW_REQUIRE_MSG(dst < num_lps_, "frame routed to an unknown LP");
  ++snap_recv_;
  if (owners_[dst] != shard_) {
    forward_frame(frame, header);
    return;
  }
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
  if (lp_index_[dst] == SIZE_MAX) {
    // We own the LP (rebind seen) but its state is still in flight.
    pending_in_[dst].push_back(std::move(msg));
  } else {
    deliver_local(dst, std::move(msg));
  }
}

void ShardDriver::handle_rebind(const std::uint8_t* payload, std::uint32_t len) {
  WireReader r(payload, len);
  const LpId lp = r.u32();
  const std::uint32_t owner = r.u32();
  const std::uint32_t epoch = r.u32();
  OTW_REQUIRE_MSG(r.done() && lp < num_lps_ && owner < config_.num_shards,
                  "malformed REBIND frame");
  if (epoch > epochs_[lp]) {  // epoch-monotonic: stale rebinds are no-ops
    epochs_[lp] = epoch;
    owners_[lp] = owner;
  }
}

void ShardDriver::handle_migrate_cmd(const std::uint8_t* payload,
                                     std::uint32_t len) {
  WireReader r(payload, len);
  const LpId lp = r.u32();
  const std::uint32_t to = r.u32();
  const std::uint32_t epoch = r.u32();
  OTW_REQUIRE_MSG(r.done() && lp < num_lps_ && to < config_.num_shards &&
                      to != shard_,
                  "malformed MIGRATE_CMD frame");
  OTW_REQUIRE_MSG(owners_[lp] == shard_ && lp_index_[lp] != SIZE_MAX,
                  "migrate command for an LP this shard does not hold");
  ShardLp& s = lps_[lp_index_[lp]];
  auto* migratable = dynamic_cast<MigratableLp*>(s.runner);
  std::uint8_t accepted = 1;
  if (s.status == StepStatus::Done || migratable == nullptr) {
    // Endgame race (the LP finished while the command was in flight) or a
    // runner that cannot move: decline, the coordinator drops the epoch.
    accepted = 0;
  } else {
    // NOT scratch_: migrate_out ships the LP's held sends and aggregation
    // batches through send_remote mid-serialization, and that path reuses
    // scratch_ as its encode buffer.
    std::vector<std::uint8_t> blob;
    WireWriter w(blob);
    w.u32(epoch);
    const std::uint64_t t0 = mono_ns();
    bool frozen = false;
    {
      Context ctx(*this, s);
      frozen = migratable->migrate_out(ctx, w);
    }
    if (!frozen) {
      // The LP completed while migrate_out drained its backlog; its next
      // step() reports Done through the normal path. Decline the move.
      accepted = 0;
    } else {
      if (live_.bank != nullptr) {
        live_.bank->record(obs::hist::Seam::MigrationFreeze, mono_ns() - t0);
      }
      OTW_ASSERT(s.inbox.empty());  // migrate_out must drain via ctx.poll()
      FrameHeader h;
      h.payload_len = static_cast<std::uint32_t>(blob.size());
      h.tag = kTagMigrate;
      h.flags = kFlagControl;
      h.src_lp = shard_;
      h.dst_lp = lp;
      h.send_ns = aligned_now_ns();
      // Peer link, not the coordinator: frames already forwarded toward the
      // destination sit ahead of the LP state on the same FIFO stream.
      PeerLink& link = links_[to];
      queue_frame(link.out, h, blob.data());
      flush_out(link.fd, link.out, link.out_pos, "send (peer link)");
      ++totals_.dist.frames_sent;
      totals_.dist.bytes_sent += kFrameHeaderBytes + blob.size();

      s.runner = nullptr;
      if (s.status != StepStatus::Done) {
        --remaining_;
      }
      s.status = StepStatus::Done;
      lp_index_[lp] = SIZE_MAX;
      owners_[lp] = to;
      epochs_[lp] = epoch;
    }
  }
  // Report to the coordinator, which rebinds everyone else on acceptance.
  scratch_.clear();
  WireWriter w(scratch_);
  w.u32(lp);
  w.u32(to);
  w.u32(epoch);
  w.u8(accepted);
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(scratch_.size());
  h.tag = kTagMigrated;
  h.flags = kFlagControl;
  h.src_lp = shard_;
  h.send_ns = aligned_now_ns();
  send_frame(fd_, h, scratch_.data());
}

void ShardDriver::handle_migrate_in(const FrameHeader& header,
                                    const std::uint8_t* payload) {
  const LpId lp = header.dst_lp;
  OTW_REQUIRE_MSG(lp < num_lps_, "MIGRATE frame for an unknown LP");
  WireReader r(payload, header.payload_len);
  const std::uint32_t epoch = r.u32();
  if (epoch > epochs_[lp]) {
    // The MIGRATE beat the REBIND broadcast here; it implies ownership.
    epochs_[lp] = epoch;
    owners_[lp] = shard_;
  }
  OTW_REQUIRE_MSG(owners_[lp] == shard_ && lp_index_[lp] == SIZE_MAX,
                  "MIGRATE frame for an LP this shard already holds");
  auto* migratable = dynamic_cast<MigratableLp*>(all_lps_[lp]);
  OTW_REQUIRE_MSG(migratable != nullptr, "LP runner is not migratable");
  lp_index_[lp] = lps_.size();
  lps_.emplace_back();
  ShardLp& s = lps_.back();
  s.id = lp;
  s.runner = all_lps_[lp];  // fork copy, about to be overwritten from the wire
  s.status = StepStatus::Active;
  const std::uint64_t t0 = mono_ns();
  {
    Context ctx(*this, s);
    migratable->migrate_in(ctx, r);
  }
  OTW_REQUIRE_MSG(r.done(), "trailing bytes after MIGRATE payload");
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::MigrationRestore, mono_ns() - t0);
  }
  ++totals_.dist.frames_received;
  totals_.dist.bytes_received += kFrameHeaderBytes + header.payload_len;
  ++migrations_in_;
  ++remaining_;
  done_announced_ = false;  // active set grew; the last DONE is stale
  // Frames that raced ahead of the LP state resume delivery in FIFO order.
  std::deque<std::unique_ptr<EngineMessage>>& stash = pending_in_[lp];
  while (!stash.empty()) {
    deliver_local(lp, std::move(stash.front()));
    stash.pop_front();
  }
}

void ShardDriver::send_snap_ack(std::uint8_t kind, std::uint64_t a,
                                std::uint64_t b, std::uint32_t seq) {
  scratch_.clear();
  WireWriter w(scratch_);
  w.u8(kind);
  w.u64(a);
  w.u64(b);
  w.u32(seq);
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(scratch_.size());
  h.tag = kTagSnapAck;
  h.flags = kFlagControl;
  h.src_lp = shard_;
  h.send_ns = aligned_now_ns();
  send_frame(fd_, h, scratch_.data());
}

void ShardDriver::settle_pass() {
  for (ShardLp& lp : lps_) {
    if (lp.runner == nullptr) {
      continue;
    }
    auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
    if (migratable == nullptr) {
      continue;
    }
    Context ctx(*this, lp);
    migratable->snapshot_settle(ctx);
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
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(scratch_.size());
  h.tag = kTagSnapData;
  h.flags = kFlagControl;
  h.src_lp = shard_;
  h.send_ns = aligned_now_ns();
  send_frame(fd_, h, scratch_.data());
  totals_.dist.bytes_sent += kFrameHeaderBytes + scratch_.size();
  pending_blob_ = std::move(blob);
  pending_epoch_ = epoch;
  pending_gvt_ = gvt;
  pending_valid_ = true;
}

void ShardDriver::handle_snap_ctl(const std::uint8_t* payload,
                                  std::uint32_t len) {
  OTW_REQUIRE_MSG(fault_, "SNAP_CTL frame without fault tolerance enabled");
  WireReader r(payload, len);
  const std::uint8_t phase = r.u8();
  const std::uint32_t epoch = r.u32();
  OTW_REQUIRE_MSG(r.done(), "malformed SNAP_CTL frame");
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
      bool accepted = true;
      for (ShardLp& lp : lps_) {
        if (lp.runner == nullptr) {
          continue;
        }
        auto* migratable = dynamic_cast<MigratableLp*>(lp.runner);
        bool ok = false;
        if (migratable != nullptr) {
          Context ctx(*this, lp);
          ok = migratable->snapshot_cut(ctx);
        }
        if (!ok) {
          // No undo needed: a taken cut is a digest-neutral rollback, the
          // frozen LPs simply resume from it after the coordinator's Abort.
          accepted = false;
          break;
        }
      }
      flush_links();  // the cut flushed held sends + batches toward peers
      // The cut rolled every runtime back to the GVT cut; the driver-side
      // step state (status, wake hints) predates that rollback, and a cut
      // that produces no anti-messages wakes nobody — the whole mesh would
      // sleep forever after Resume. Mark everything runnable so each LP is
      // re-stepped (one with nothing to redo parks itself again), and
      // revive LPs whose completion was itself speculative.
      for (ShardLp& lp : lps_) {
        if (lp.runner == nullptr) {
          continue;
        }
        if (lp.status == StepStatus::Done) {
          ++remaining_;
        }
        lp.status = StepStatus::Active;
        lp.wake_hint_ns = kNever;
      }
      if (accepted) {
        std::uint64_t gvt = 0;
        for (ShardLp& lp : lps_) {
          if (lp.runner == nullptr) {
            continue;
          }
          gvt = dynamic_cast<MigratableLp*>(lp.runner)->snapshot_gvt_ticks();
          break;  // at quiescence every LP agrees on the cut GVT
        }
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
  for (std::deque<std::unique_ptr<EngineMessage>>& stash : pending_in_) {
    stash.clear();
  }
  remaining_ = lps_.size();  // a committed cut never contains a Done LP
  done_announced_ = false;
  if (live_.bank != nullptr) {
    live_.bank->record(obs::hist::Seam::RestoreReplay, mono_ns() - t0);
  }
}

void ShardDriver::restore_from(std::uint32_t epoch, std::uint64_t gvt_ticks,
                               std::vector<std::uint8_t> blob) {
  OTW_REQUIRE_MSG(fault_, "restore_from without fault tolerance enabled");
  self_blob_ = std::move(blob);
  self_epoch_ = epoch;
  self_gvt_ = gvt_ticks;
  WireReader r(self_blob_.data(), self_blob_.size());
  restore_local(r);
  snap_sent_ = 0;
  snap_recv_ = 0;
  snap_mode_ = SnapMode::Hold;  // frozen until the coordinator's Resume
}

void ShardDriver::drop_peer_link(std::uint32_t peer) {
  PeerLink& link = links_[peer];
  if (link.fd >= 0) {
    ::close(link.fd);
  }
  link.fd = -1;
  link.in.clear();
  link.out.clear();
  link.out_pos = 0;
}

void ShardDriver::flush_peer_link(std::uint32_t peer) {
  PeerLink& link = links_[peer];
  if (link.fd < 0 || !link.out_pending()) {
    return;  // fd < 0: dead incarnation, bytes discarded at recovery
  }
  if (fault_) {
    if (!flush_out_tolerant(link.fd, link.out, link.out_pos)) {
      drop_peer_link(peer);  // SIGKILLed peer; recovery re-dials it
    }
  } else {
    flush_out(link.fd, link.out, link.out_pos, "send (peer link)");
  }
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
    if (p == shard_ || p == dead || links_[p].fd < 0) {
      continue;
    }
    FrameHeader mark;
    mark.tag = kTagRecoverMark;
    mark.flags = kFlagControl;
    mark.src_lp = shard_;
    mark.send_ns = aligned_now_ns();
    queue_frame(links_[p].out, mark, nullptr);
    if (early_marker_[p]) {
      early_marker_[p] = false;  // the peer's marker already arrived
    } else {
      await_marker_[p] = true;
    }
  }
  drop_peer_link(dead);
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
  const int pfd = util::net::connect_loopback(new_port, kNetCtx);
  set_nodelay(pfd);
  FrameHeader ph;
  ph.tag = kTagPeerHello;
  ph.src_lp = shard_;
  send_frame(pfd, ph, nullptr);
  set_nonblocking(pfd);
  links_[dead].fd = pfd;
  // Fresh incarnation: counters restart from zero on every shard, keeping
  // the conservation proof exact (discarded frames are never counted).
  snap_sent_ = 0;
  snap_recv_ = 0;
  snap_poll_pending_ = false;
  snap_mode_ = SnapMode::Hold;
  FrameHeader done;
  done.tag = kTagRecovered;
  done.flags = kFlagControl;
  done.src_lp = shard_;
  done.send_ns = aligned_now_ns();
  send_frame(fd_, done, nullptr);
}

void ShardDriver::handle_coord_frame(const FrameHeader& header,
                                     const std::uint8_t* payload) {
  switch (header.tag) {
    case kTagTime:
      handle_time_echo(header, payload);
      return;
    case kTagMigrateCmd:
      handle_migrate_cmd(payload, header.payload_len);
      return;
    case kTagRebind:
      handle_rebind(payload, header.payload_len);
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
  // Relayed (control-plane) frame: attribute the link to the sender's shard
  // per our current owner map — best effort under migration, exact otherwise.
  const std::uint32_t src_shard =
      header.src_lp < num_lps_ ? owners_[header.src_lp] : shard_;
  route_inbound(reinterpret_cast<const std::uint8_t*>(payload) -
                    kFrameHeaderBytes,
                header, src_shard);
}

void ShardDriver::handle_peer_frame(std::uint32_t peer,
                                    const std::uint8_t* frame,
                                    const FrameHeader& header) {
  if (header.tag == kTagMigrate) {
    handle_migrate_in(header, frame + kFrameHeaderBytes);
    return;
  }
  OTW_REQUIRE_MSG(header.tag < kReservedTagBase,
                  "worker received a transport control frame");
  route_inbound(frame, header, peer);
}

void ShardDriver::drain_socket() {
  // Pull whatever is available without blocking, then parse complete frames.
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_buf_.insert(in_buf_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      throw std::runtime_error("coordinator closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    throw_errno("recv");
  }
  std::size_t pos = 0;
  while (in_buf_.size() - pos >= kFrameHeaderBytes) {
    const FrameHeader header = decode_frame_header(in_buf_.data() + pos);
    if (in_buf_.size() - pos < kFrameHeaderBytes + header.payload_len) {
      break;  // incomplete frame; keep the tail for the next drain
    }
    handle_coord_frame(header, in_buf_.data() + pos + kFrameHeaderBytes);
    pos += kFrameHeaderBytes + header.payload_len;
  }
  in_buf_.erase(in_buf_.begin(),
                in_buf_.begin() + static_cast<std::ptrdiff_t>(pos));
}

void ShardDriver::drain_links() {
  std::uint8_t chunk[16384];
  for (std::uint32_t peer = 0; peer < links_.size(); ++peer) {
    PeerLink& link = links_[peer];
    if (link.fd < 0) {
      continue;
    }
    bool dead = false;
    for (;;) {
      const ssize_t n = ::recv(link.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        link.in.insert(link.in.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) {
        if (fault_) {
          // The peer's process died. Parse what it already sent (frames from
          // before its death are valid until the rollback discards them),
          // then tear the link down; RECOVER re-dials the replacement.
          dead = true;
          break;
        }
        throw std::runtime_error("peer shard " + std::to_string(peer) +
                                 " closed its link");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (fault_ && (errno == ECONNRESET || errno == EPIPE)) {
        dead = true;
        break;
      }
      throw_errno("recv (peer link)");
    }
    std::size_t pos = 0;
    while (link.fd >= 0 && link.in.size() - pos >= kFrameHeaderBytes) {
      const FrameHeader header = decode_frame_header(link.in.data() + pos);
      if (link.in.size() - pos < kFrameHeaderBytes + header.payload_len) {
        break;
      }
      if (fault_ && await_marker_[peer]) {
        // Dead-incarnation frame: dropped, uncounted. The marker rides the
        // same FIFO stream, so the discard window is exact.
        if (header.tag == kTagRecoverMark) {
          await_marker_[peer] = false;
        }
      } else if (header.tag == kTagRecoverMark) {
        // The peer's marker beat our own RECOVER here (the two travel on
        // different streams); remember it so RECOVER does not await another.
        early_marker_[peer] = true;
      } else {
        handle_peer_frame(peer, link.in.data() + pos, header);
      }
      pos += kFrameHeaderBytes + header.payload_len;
    }
    pos = std::min(pos, link.in.size());  // a handler may have dropped the link
    link.in.erase(link.in.begin(),
                  link.in.begin() + static_cast<std::ptrdiff_t>(pos));
    if (dead) {
      drop_peer_link(peer);
    }
  }
}

void ShardDriver::flush_links() {
  for (std::uint32_t peer = 0; peer < links_.size(); ++peer) {
    flush_peer_link(peer);
  }
}

void ShardDriver::send_done() {
  FrameHeader h;
  h.payload_len = 8;
  h.tag = kTagDone;
  h.flags = kFlagControl;
  h.src_lp = shard_;
  h.send_ns = aligned_now_ns();
  std::uint8_t payload[8];
  std::memcpy(payload, &migrations_in_, 8);
  send_frame(fd_, h, payload);
  done_announced_ = true;
}

void ShardDriver::idle_wait() {
  // Everyone local is Idle with an empty inbox: sleep until a frame arrives
  // or the earliest self-requested wakeup, capped at idle_poll_us. An armed
  // STATS deadline also caps the sleep: an idle shard must keep reporting,
  // or the coordinator's silent-shard watchdog would see a healthy-but-quiet
  // worker as dead.
  std::uint64_t next_wake = kNever;
  for (const ShardLp& lp : lps_) {
    if (lp.status != StepStatus::Done) {
      next_wake = std::min(next_wake, lp.wake_hint_ns);
    }
  }
  if (live_.enabled()) {
    next_wake = std::min(next_wake, next_stats_ns_);
  }
  std::uint64_t timeout_us = config_.idle_poll_us;
  if (next_wake != kNever) {
    const std::uint64_t now = now_ns();
    timeout_us = next_wake <= now
                     ? 0
                     : std::min<std::uint64_t>(timeout_us,
                                               (next_wake - now) / 1000 + 1);
  }
  std::vector<pollfd> pfds;
  pfds.push_back({fd_, POLLIN, 0});
  for (PeerLink& link : links_) {
    if (link.fd >= 0) {
      pfds.push_back({link.fd,
                      static_cast<short>(POLLIN |
                                         (link.out_pending() ? POLLOUT : 0)),
                      0});
    }
  }
  const int rc = ::poll(pfds.data(), pfds.size(),
                        static_cast<int>(timeout_us / 1000 + 1));
  if (rc < 0 && errno != EINTR) {
    throw_errno("poll");
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
  FrameHeader header;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.tag = kTagStats;
  header.flags = kFlagControl;
  header.src_lp = shard_;
  header.send_ns = aligned_now_ns();
  send_frame(fd_, header, payload.data());
  ++totals_.dist.frames_sent;
  totals_.dist.bytes_sent += kFrameHeaderBytes + payload.size();
}

void ShardDriver::run() {
  // Ownership can move and frames may need forwarding even after the local
  // set drains, so run until the coordinator says FINISH (it waits for every
  // shard's DONE with settled migration counts).
  for (;;) {
    drain_socket();
    drain_links();
    if (finish_received_) {
      break;
    }
    maybe_send_stats();
    flush_links();
    if (fault_ && snap_mode_ != SnapMode::Run) {
      // Snapshot protocol engaged: no event stepping. Settle absorbs and
      // flushes until the coordinator sees global quiescence; Hold freezes
      // the shard (post-serialize or post-restore) until Resume. STATS keep
      // flowing either way so the watchdog sees a live shard.
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
      if (++totals_.steps > config_.max_steps) {
        throw std::runtime_error("shard exceeded max_steps=" +
                                 std::to_string(config_.max_steps));
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
  for (const std::deque<std::unique_ptr<EngineMessage>>& stash : pending_in_) {
    OTW_ASSERT(stash.empty());
    static_cast<void>(stash);
  }
}

void ShardDriver::encode_result(WireWriter& w,
                                const std::vector<std::uint8_t>& harvest) const {
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
    const int fd = util::net::connect_loopback(port, kNetCtx);
    set_nodelay(fd);

    // HELLO must be the first (and, until the driver runs, only) frame on
    // this stream: the coordinator reads exactly one frame per connection
    // to learn which shard it is talking to. The payload carries our peer
    // listener port. send_ns carries our raw clock (t0); the coordinator
    // answers with a HELLO-ACK whose send_ns is ITS clock (t_c) and whose
    // payload is the peer directory, read here while the socket is still
    // blocking. Midpoint estimate: offset = t_c - (t0 + t1)/2. The ACK
    // is batched behind every worker's HELLO (the directory needs them all),
    // so the initial RTT bound is loose; TIME pings tighten it when the
    // attribution plane is armed.
    FrameHeader hello;
    hello.tag = kTagHello;
    hello.src_lp = shard;
    hello.payload_len = 2;
    const std::uint64_t t0 = mono_ns();
    hello.send_ns = t0;
    std::uint8_t port_payload[2];
    std::memcpy(port_payload, &peer_port, 2);
    send_frame(fd, hello, port_payload);
    std::uint8_t ack_raw[kFrameHeaderBytes];
    if (!read_exact(fd, ack_raw, kFrameHeaderBytes)) {
      throw std::runtime_error("coordinator closed before HELLO-ACK");
    }
    const std::uint64_t t1 = mono_ns();
    const FrameHeader ack = decode_frame_header(ack_raw);
    OTW_REQUIRE_MSG(ack.tag == kTagHelloAck,
                    "expected HELLO-ACK as the first coordinator frame");
    std::vector<std::uint8_t> dir(ack.payload_len);
    if (ack.payload_len > 0 &&
        !read_exact(fd, dir.data(), ack.payload_len)) {
      throw std::runtime_error("coordinator closed mid HELLO-ACK");
    }
    const std::uint64_t rtt = t1 - t0;
    const std::int64_t offset = static_cast<std::int64_t>(ack.send_ns) -
                                static_cast<std::int64_t>(t0 + rtt / 2);

    // Dial phase, deterministic: shard i dials every j < i (the TCP accept
    // backlog guarantees those connects succeed even before shard j reaches
    // accept()), then accepts every j > i. One stream per pair.
    std::vector<PeerLink> links(config.num_shards);
    WireReader r(dir.data(), dir.size());
    const std::uint32_t n = r.u32();
    OTW_REQUIRE_MSG(n == config.num_shards,
                    "peer directory size mismatch in HELLO-ACK");
    std::vector<std::uint16_t> ports(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      ports[j] = r.u16();
    }
    OTW_REQUIRE_MSG(r.done(), "trailing bytes after peer directory");
    if (!recover) {
      for (std::uint32_t j = 0; j < shard; ++j) {
        const int pfd = util::net::connect_loopback(ports[j], kNetCtx);
        set_nodelay(pfd);
        FrameHeader peer_hello;
        peer_hello.tag = kTagPeerHello;
        peer_hello.src_lp = shard;
        send_frame(pfd, peer_hello, nullptr);
        links[j].fd = pfd;
      }
    }
    // Fresh start: accept every higher-numbered shard's dial. Recovery:
    // every survivor (re-)dials us, in whatever order they process the
    // RECOVER broadcast.
    const std::uint32_t expect_dials =
        recover ? config.num_shards - 1 : config.num_shards - shard - 1;
    for (std::uint32_t j = 0; j < expect_dials; ++j) {
      int afd;
      do {
        afd = ::accept(peer_listen_fd, nullptr, nullptr);
      } while (afd < 0 && errno == EINTR);
      if (afd < 0) {
        throw_errno("accept (peer link)");
      }
      set_nodelay(afd);
      std::uint8_t raw[kFrameHeaderBytes];
      if (!read_exact(afd, raw, kFrameHeaderBytes)) {
        throw std::runtime_error("peer disconnected before PEER-HELLO");
      }
      const FrameHeader ph = decode_frame_header(raw);
      OTW_REQUIRE_MSG(ph.tag == kTagPeerHello && ph.payload_len == 0 &&
                          (recover ? ph.src_lp != shard : ph.src_lp > shard) &&
                          ph.src_lp < config.num_shards &&
                          links[ph.src_lp].fd < 0,
                      "malformed PEER-HELLO");
      links[ph.src_lp].fd = afd;
    }
    ::close(peer_listen_fd);
    for (PeerLink& link : links) {
      if (link.fd >= 0) {
        set_nonblocking(link.fd);
      }
    }
    ShardDriver driver(shard, config, lps, fd, std::move(links), live, offset,
                       rtt, fault);
    if (recover) {
      // fd is still blocking: the RESTORE frame (u32 epoch + u64 gvt + shard
      // blob) is the next thing the coordinator sends on this stream.
      std::uint8_t raw[kFrameHeaderBytes];
      if (!read_exact(fd, raw, kFrameHeaderBytes)) {
        throw std::runtime_error("coordinator closed before RESTORE");
      }
      const FrameHeader rh = decode_frame_header(raw);
      OTW_REQUIRE_MSG(rh.tag == kTagRestore && rh.payload_len >= 12,
                      "expected RESTORE as the first post-mesh frame");
      std::vector<std::uint8_t> restore_payload(rh.payload_len);
      if (!read_exact(fd, restore_payload.data(), restore_payload.size())) {
        throw std::runtime_error("coordinator closed mid RESTORE");
      }
      WireReader rr(restore_payload.data(), restore_payload.size());
      const std::uint32_t epoch = rr.u32();
      const std::uint64_t gvt = rr.u64();
      std::vector<std::uint8_t> blob(rr.remaining());
      rr.bytes(blob.data(), blob.size());
      driver.restore_from(epoch, gvt, std::move(blob));
      FrameHeader recovered;
      recovered.tag = kTagRecovered;
      recovered.flags = kFlagControl;
      recovered.src_lp = shard;
      send_frame(fd, recovered, nullptr);
    }
    set_nonblocking(fd);
    driver.run();

    const std::vector<std::uint8_t> blob =
        harvest ? harvest(shard, driver.owners()) : std::vector<std::uint8_t>{};
    std::vector<std::uint8_t> payload;
    WireWriter writer(payload);
    driver.encode_result(writer, blob);
    FrameHeader result;
    result.payload_len = static_cast<std::uint32_t>(payload.size());
    result.tag = kTagResult;
    result.src_lp = shard;
    send_frame(fd, result, payload.data());
    // Linger until the coordinator closes (it does once every RESULT is
    // in): our peer links must stay open as long as any other worker might
    // still flush toward us, or its writes would die on ECONNRESET.
    std::uint8_t sink[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, sink, sizeof sink, 0);
      if (n > 0) {
        continue;  // discard: nothing meaningful follows our RESULT
      }
      if (n == 0) {
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, -1);
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      break;  // coordinator already gone; exiting is the right response
    }
    ::close(fd);
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

struct Conn {
  int fd = -1;
  std::uint32_t shard = 0;
  std::vector<std::uint8_t> in;  ///< unparsed inbound bytes
  std::vector<std::uint8_t> out; ///< queued outbound bytes (non-blocking flush)
  std::size_t out_pos = 0;
  bool done = false;        ///< RESULT received
  bool done_valid = false;  ///< a DONE is the latest active-set report
  std::uint64_t done_migrations_in = 0;  ///< migrations_in from that DONE

  [[nodiscard]] bool out_pending() const noexcept { return out_pos < out.size(); }
};

void flush_conn(Conn& conn) {
  flush_out(conn.fd, conn.out, conn.out_pos, "send (relay)");
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
    // Phase 1: accept every worker and read its HELLO (always the first
    // frame on the stream, payload = that worker's peer listener port) to
    // map connection -> shard. Only once ALL HELLOs are in can the peer
    // directory be assembled, so the HELLO-ACKs — stamped with our clock
    // for the offset estimate and carrying the directory — go out in a
    // second sweep.
    std::vector<Conn> conns(num_shards);
    std::vector<int> shard_conn(num_shards, -1);  // shard -> index in conns
    std::vector<std::uint16_t> peer_ports(num_shards, 0);
    for (std::uint32_t i = 0; i < num_shards; ++i) {
      int fd;
      do {
        fd = ::accept(listen_fd, nullptr, nullptr);
      } while (fd < 0 && errno == EINTR);
      if (fd < 0) {
        throw_errno("accept");
      }
      std::uint8_t raw[kFrameHeaderBytes];
      if (!read_exact(fd, raw, kFrameHeaderBytes)) {
        throw std::runtime_error("worker disconnected before HELLO");
      }
      const FrameHeader hello = decode_frame_header(raw);
      OTW_REQUIRE_MSG(hello.tag == kTagHello && hello.payload_len == 2,
                      "first frame on a worker stream must be HELLO");
      OTW_REQUIRE_MSG(hello.src_lp < num_shards && shard_conn[hello.src_lp] < 0,
                      "duplicate or out-of-range shard HELLO");
      std::uint8_t port_raw[2];
      if (!read_exact(fd, port_raw, 2)) {
        throw std::runtime_error("worker disconnected mid HELLO");
      }
      std::memcpy(&peer_ports[hello.src_lp], port_raw, 2);
      set_nodelay(fd);
      conns[i].fd = fd;
      conns[i].shard = hello.src_lp;
      shard_conn[hello.src_lp] = static_cast<int>(i);
    }
    if (!fault_on) {
      ::close(listen_fd);  // fault keeps it: a replacement worker must HELLO
    }
    std::vector<std::uint8_t> dir;
    {
      WireWriter w(dir);
      w.u32(num_shards);
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        w.u16(peer_ports[s]);
      }
    }
    for (Conn& conn : conns) {
      FrameHeader ack;
      ack.payload_len = static_cast<std::uint32_t>(dir.size());
      ack.tag = kTagHelloAck;
      ack.src_lp = conn.shard;
      ack.send_ns = mono_ns();
      send_frame(conn.fd, ack, dir.data());  // still blocking: writes through
      set_nonblocking(conn.fd);
    }

    // Control-plane state: the authoritative owner map (placement + applied
    // rebinds) and the migration protocol.
    std::vector<std::uint32_t>& owners = result.final_owners;
    std::vector<std::uint32_t> epochs(lps.size(), 0);
    std::vector<std::uint64_t> expected_in(num_shards, 0);
    std::uint32_t next_epoch = 1;
    bool migration_inflight = false;
    bool any_done = false;
    bool finish_sent = false;
    const std::uint64_t decide_period_ns =
        static_cast<std::uint64_t>(migration.period_ms) * 1'000'000;
    std::uint64_t next_decide_ns =
        migration.enabled() ? mono_ns() + decide_period_ns : kNever;

    // Snapshot / recovery control state (fault tolerance; DESIGN.md 8c).
    // The protocol is stop-the-world: Settle polls channel-op counters until
    // they are identical across two rounds AND globally balanced (the
    // quiescence proof), Cut freezes every LP at the shared GVT, Resettle
    // absorbs the traffic the cut's flushes produced, Serialize collects the
    // per-shard blobs, then Resume (commit) or Abort (discard) releases.
    enum class SnapPhase : std::uint8_t { Idle, Settle, Cut, Resettle,
                                          Serialize };
    SnapPhase snap_phase = SnapPhase::Idle;
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
    std::uint32_t cut_acks = 0;
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
    bool inject_done = false;

    const auto flush_c = [&](Conn& conn) {
      if (fault_on) {
        // A worker SIGKILLed mid-write must not take the coordinator down;
        // its queued bytes die with the incarnation once recovery runs.
        static_cast<void>(flush_out_tolerant(conn.fd, conn.out, conn.out_pos));
      } else {
        flush_conn(conn);
      }
    };
    const auto broadcast = [&](const FrameHeader& h,
                               const std::uint8_t* payload) {
      for (Conn& conn : conns) {
        if (conn.done) {
          continue;
        }
        queue_frame(conn.out, h, payload);
        flush_c(conn);
      }
    };
    // FINISH once every worker's latest DONE is present and its reported
    // migrations_in matches the number of LPs rebound TO it — an
    // order-independent settledness check: a destination's stale DONE (sent
    // before its MIGRATE arrived) can never satisfy it.
    const auto try_finish = [&] {
      if (finish_sent || migration_inflight ||
          snap_phase != SnapPhase::Idle) {
        return;
      }
      for (const Conn& conn : conns) {
        if (!conn.done_valid ||
            conn.done_migrations_in != expected_in[conn.shard]) {
          return;
        }
      }
      FrameHeader fin;
      fin.tag = kTagFinish;
      fin.flags = kFlagControl;
      broadcast(fin, nullptr);
      finish_sent = true;
    };

    const auto broadcast_snap_ctl = [&](std::uint8_t code,
                                        std::uint32_t epoch) {
      std::vector<std::uint8_t> p;
      WireWriter w(p);
      w.u8(code);
      w.u32(epoch);
      FrameHeader h;
      h.payload_len = static_cast<std::uint32_t>(p.size());
      h.tag = kTagSnapCtl;
      h.flags = kFlagControl;
      h.send_ns = mono_ns();
      broadcast(h, p.data());
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
    const auto abort_epoch = [&] {
      broadcast_snap_ctl(kSnapAbort, snap_epoch);
      snap_phase = SnapPhase::Idle;
      snap_have_prev = false;
      snap_data_count = 0;
      for (auto& b : snap_blobs) {
        b.clear();
      }
      next_snap_ns = mono_ns() + initial_gap_ns;
      try_finish();
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
      broadcast_snap_ctl(committed ? kSnapResume : kSnapAbort, snap_epoch);
      snap_phase = SnapPhase::Idle;
      snap_have_prev = false;
      snap_data_count = 0;
      try_finish();
      if (committed && !inject_done && fault.inject_kill_shard >= 0 &&
          snap_epoch >= fault.inject_kill_after_epoch) {
        // Test hook: lose a shard right after a committed cut.
        inject_done = true;
        const auto victim = static_cast<std::uint32_t>(fault.inject_kill_shard);
        ::kill(children[victim], SIGKILL);
      }
    };
    // A worker died (EOF): fork a replacement, replay the handshake, restore
    // it from the last complete cut, and roll every survivor back to that
    // cut. The world is frozen until all num_shards RECOVERED frames arrive.
    const auto run_recovery = [&](std::uint32_t ci) {
      Conn& dead_conn = conns[ci];
      const std::uint32_t dead = dead_conn.shard;
      const std::uint64_t t0 = mono_ns();
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
      ::close(dead_conn.fd);
      dead_conn.fd = -1;
      dead_conn.in.clear();
      dead_conn.out.clear();
      dead_conn.out_pos = 0;
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
        for (SnapshotShardBlob& s : img.shards) {
          if (s.shard == dead) {
            blob = std::move(s.blob);
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
        for (Conn& c : conns) {
          if (c.fd >= 0) {
            ::close(c.fd);
          }
        }
        worker_main(dead, config_, lps, port, harvest, live, /*fault=*/true,
                    /*recover=*/true);  // never returns
      }
      children[dead] = pid;
      // Replay phase 1 for the replacement alone: HELLO in, directory out.
      int nfd;
      do {
        nfd = ::accept(listen_fd, nullptr, nullptr);
      } while (nfd < 0 && errno == EINTR);
      if (nfd < 0) {
        throw_errno("accept (recovery)");
      }
      std::uint8_t raw[kFrameHeaderBytes];
      if (!read_exact(nfd, raw, kFrameHeaderBytes)) {
        throw std::runtime_error("replacement worker died before HELLO");
      }
      const FrameHeader hello = decode_frame_header(raw);
      OTW_REQUIRE_MSG(hello.tag == kTagHello && hello.payload_len == 2 &&
                          hello.src_lp == dead,
                      "expected the replacement worker's HELLO");
      std::uint8_t port_raw[2];
      if (!read_exact(nfd, port_raw, 2)) {
        throw std::runtime_error("replacement worker died mid HELLO");
      }
      std::uint16_t new_port = 0;
      std::memcpy(&new_port, port_raw, 2);
      peer_ports[dead] = new_port;
      set_nodelay(nfd);
      dead_conn.fd = nfd;
      std::vector<std::uint8_t> dir2;
      {
        WireWriter w(dir2);
        w.u32(num_shards);
        for (std::uint32_t s = 0; s < num_shards; ++s) {
          w.u16(peer_ports[s]);
        }
      }
      FrameHeader ack;
      ack.payload_len = static_cast<std::uint32_t>(dir2.size());
      ack.tag = kTagHelloAck;
      ack.src_lp = dead;
      ack.send_ns = mono_ns();
      send_frame(nfd, ack, dir2.data());  // still blocking: writes through
      // RESTORE is queued non-blocking: the blob can exceed the socket
      // buffer, and the replacement only reads it after accepting the
      // survivors' re-dials — a blocking write here could jam forever.
      {
        std::vector<std::uint8_t> p;
        WireWriter w(p);
        w.u32(last_cut.epoch);
        w.u64(restore_gvt);
        w.bytes(blob.data(), blob.size());
        FrameHeader h;
        h.payload_len = static_cast<std::uint32_t>(p.size());
        h.tag = kTagRestore;
        h.flags = kFlagControl;
        h.send_ns = mono_ns();
        queue_frame(dead_conn.out, h, p.data());
      }
      set_nonblocking(nfd);
      flush_c(dead_conn);
      // Tell the survivors: roll back to the cut, mark your links, re-dial
      // the new incarnation.
      {
        std::vector<std::uint8_t> p;
        WireWriter w(p);
        w.u32(last_cut.epoch);
        w.u32(dead);
        w.u16(new_port);
        FrameHeader h;
        h.payload_len = static_cast<std::uint32_t>(p.size());
        h.tag = kTagRecover;
        h.flags = kFlagControl;
        h.send_ns = mono_ns();
        for (Conn& c : conns) {
          if (c.shard == dead) {
            continue;
          }
          queue_frame(c.out, h, p.data());
          flush_c(c);
        }
      }
      // Mini relay loop until every shard (survivors + replacement) reports
      // RECOVERED. Anything relayable in flight belongs to the dead
      // incarnation's future and is dropped — the restored cut predates it.
      std::uint32_t recovered = 0;
      std::vector<pollfd> rfds(num_shards);
      while (recovered < num_shards) {
        for (std::uint32_t k = 0; k < num_shards; ++k) {
          rfds[k].fd = conns[k].fd;
          rfds[k].events = static_cast<short>(
              POLLIN | (conns[k].out_pending() ? POLLOUT : 0));
          rfds[k].revents = 0;
        }
        const int prc = ::poll(rfds.data(), rfds.size(), 1000);
        if (prc < 0) {
          if (errno == EINTR) {
            continue;
          }
          throw_errno("poll (recovery)");
        }
        for (std::uint32_t k = 0; k < num_shards; ++k) {
          Conn& c = conns[k];
          if ((rfds[k].revents & POLLOUT) != 0) {
            flush_c(c);
          }
          if ((rfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
            continue;
          }
          std::uint8_t chunk[16384];
          bool died = false;
          for (;;) {
            const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
            if (n > 0) {
              c.in.insert(c.in.end(), chunk, chunk + n);
              continue;
            }
            if (n == 0) {
              died = true;
              break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
              break;
            }
            if (errno == EINTR) {
              continue;
            }
            died = true;
            break;
          }
          std::size_t pos = 0;
          while (c.in.size() - pos >= kFrameHeaderBytes) {
            const FrameHeader h2 = decode_frame_header(c.in.data() + pos);
            if (c.in.size() - pos < kFrameHeaderBytes + h2.payload_len) {
              break;
            }
            const std::uint8_t* f2 = c.in.data() + pos;
            if (h2.tag == kTagRecovered) {
              ++recovered;
            } else if (h2.tag == kTagStats) {
              if (live.on_stats) {
                live.on_stats(c.shard, f2 + kFrameHeaderBytes, h2.payload_len);
              }
              ++result.dist.stats_frames;
            } else if (h2.tag == kTagTime) {
              FrameHeader echo;
              echo.payload_len = 8;
              echo.tag = kTagTime;
              echo.flags = kFlagControl;
              echo.src_lp = c.shard;
              echo.send_ns = mono_ns();
              std::uint8_t echo_frame[kFrameHeaderBytes + 8];
              encode_frame_header(echo, echo_frame);
              std::memcpy(echo_frame + kFrameHeaderBytes, &h2.send_ns, 8);
              c.out.insert(c.out.end(), echo_frame,
                           echo_frame + sizeof echo_frame);
              flush_c(c);
            }
            // else: dropped (stale SNAP_ACK/SNAP_DATA/DONE, relayed GVT
            // frames of the dead incarnation).
            pos += kFrameHeaderBytes + h2.payload_len;
          }
          c.in.erase(c.in.begin(),
                     c.in.begin() + static_cast<std::ptrdiff_t>(pos));
          if (died) {
            throw std::runtime_error(
                "shard " + std::to_string(c.shard) +
                " died during recovery (double fault is fatal)");
          }
        }
      }
      // Every shard is frozen at the cut: stale endgame state is void.
      for (Conn& c : conns) {
        c.done_valid = false;
        c.done_migrations_in = 0;
      }
      any_done = false;
      RecoveryIncident incident;
      incident.epoch = last_cut.epoch;
      incident.lost_shard = dead;
      incident.restore_ns = mono_ns() - t0;
      incident.bytes = blob.size();
      incident.gvt_ticks = restore_gvt;
      result.recoveries.push_back(incident);
      broadcast_snap_ctl(kSnapResume, last_cut.epoch);
      next_snap_ns = mono_ns() + initial_gap_ns;
    };

    // Phase 2: control loop. Only control frames arrive here — GVT
    // tokens/announces, relayed by the owner map — plus the termination,
    // migration and snapshot protocols (DONE/MIGRATED/SNAP_* in,
    // MIGRATE_CMD/REBIND/FINISH/SNAP_CTL out).
    std::uint32_t results = 0;
    std::vector<pollfd> pfds(num_shards);
    while (results < num_shards) {
      for (std::uint32_t i = 0; i < num_shards; ++i) {
        pfds[i].fd = conns[i].done ? -1 : conns[i].fd;
        pfds[i].events =
            static_cast<short>(POLLIN | (conns[i].out_pending() ? POLLOUT : 0));
        pfds[i].revents = 0;
      }
      int timeout_ms = -1;
      if (migration.enabled() && !any_done && !finish_sent &&
          !migration_inflight) {
        const std::uint64_t now = mono_ns();
        timeout_ms = next_decide_ns <= now
                         ? 0
                         : static_cast<int>((next_decide_ns - now) / 1'000'000 + 1);
      }
      if (fault_on) {
        // Capped so externally-requested kills (the watchdog path) are
        // noticed promptly even while every stream is quiet.
        int cap = kFaultPollCapMs;
        if (snap_phase == SnapPhase::Idle && !finish_sent && !any_done &&
            results == 0) {
          const std::uint64_t now = mono_ns();
          const auto until_ms =
              next_snap_ns <= now
                  ? 0
                  : static_cast<int>((next_snap_ns - now) / 1'000'000 + 1);
          cap = std::min(cap, until_ms);
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
      if (fault_on && fault.kill_request) {
        const std::int32_t victim = fault.kill_request->exchange(-1);
        // Honored only when a restorable cut exists and the run is still in
        // flight; otherwise the request is dropped (recovery would fail).
        if (victim >= 0 && static_cast<std::uint32_t>(victim) < num_shards &&
            have_cut && !finish_sent &&
            !conns[static_cast<std::size_t>(
                       shard_conn[static_cast<std::uint32_t>(victim)])]
                 .done) {
          ::kill(children[static_cast<std::uint32_t>(victim)], SIGKILL);
        }
      }
      if (fault_on && snap_phase == SnapPhase::Idle && !finish_sent &&
          !any_done && results == 0 && mono_ns() >= next_snap_ns) {
        snap_epoch = next_snap_epoch++;
        snap_started_ns = mono_ns();
        snap_phase = SnapPhase::Settle;
        snap_have_prev = false;
        for (auto& b : snap_blobs) {
          b.clear();
        }
        broadcast_snap_ctl(kSnapStop, snap_epoch);
        begin_poll_round();
      }
      if (migration.enabled() && !any_done && !finish_sent &&
          !migration_inflight && mono_ns() >= next_decide_ns) {
        next_decide_ns = mono_ns() + decide_period_ns;
        const std::optional<MigrationDecision> d = migration.decide(owners);
        if (d.has_value()) {
          OTW_REQUIRE_MSG(d->lp < lps.size() && d->to_shard < num_shards &&
                              owners[d->lp] != d->to_shard,
                          "invalid migration decision");
          std::vector<std::uint8_t> cmd;
          WireWriter w(cmd);
          w.u32(d->lp);
          w.u32(d->to_shard);
          w.u32(next_epoch++);
          FrameHeader h;
          h.payload_len = static_cast<std::uint32_t>(cmd.size());
          h.tag = kTagMigrateCmd;
          h.flags = kFlagControl;
          h.dst_lp = d->lp;
          Conn& src =
              conns[static_cast<std::size_t>(shard_conn[owners[d->lp]])];
          queue_frame(src.out, h, cmd.data());
          flush_conn(src);
          migration_inflight = true;
        }
      }
      for (std::uint32_t i = 0; i < num_shards; ++i) {
        Conn& conn = conns[i];
        if (conn.done) {
          continue;
        }
        if ((pfds[i].revents & POLLOUT) != 0) {
          flush_c(conn);
        }
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        std::uint8_t chunk[16384];
        bool eof = false;
        for (;;) {
          const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
          if (n > 0) {
            conn.in.insert(conn.in.end(), chunk, chunk + n);
            continue;
          }
          if (n == 0) {
            // The worker may close right after its RESULT; the frame may
            // still be sitting unparsed in conn.in, so only fail after
            // parsing.
            eof = true;
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          if (errno == EINTR) {
            continue;
          }
          if (fault_on && errno == ECONNRESET) {
            // A SIGKILLed worker resets rather than closing; same as EOF
            // for the recovery path below.
            eof = true;
            break;
          }
          throw_errno("recv (relay)");
        }
        // Parse complete frames from this connection, in arrival order.
        std::size_t pos = 0;
        while (!conn.done && conn.in.size() - pos >= kFrameHeaderBytes) {
          const FrameHeader header = decode_frame_header(conn.in.data() + pos);
          if (conn.in.size() - pos < kFrameHeaderBytes + header.payload_len) {
            break;
          }
          const std::uint8_t* frame = conn.in.data() + pos;
          const std::size_t frame_len = kFrameHeaderBytes + header.payload_len;
          if (header.tag == kTagResult) {
            WireReader reader(frame + kFrameHeaderBytes, header.payload_len);
            ShardTotals totals;
            reader.bytes(&totals, sizeof totals);
            result.steps += totals.steps;
            result.physical_messages += totals.physical_messages;
            result.wire_bytes += totals.wire_bytes;
            result.dist.add(totals.dist);
            const std::uint32_t blob_len = reader.u32();
            payloads_[conn.shard].resize(blob_len);
            reader.bytes(payloads_[conn.shard].data(), blob_len);
            // Clock alignment: shift = (worker epoch in coordinator domain)
            // - our run start. Adding it to a driver-relative timestamp
            // yields a coordinator-run-relative one.
            const std::uint64_t epoch_ns = reader.u64();
            ShardClock clock;
            clock.offset_ns = static_cast<std::int64_t>(reader.u64());
            clock.rtt_ns = reader.u64();
            result.shard_clocks[conn.shard] = clock;
            const std::int64_t shift =
                static_cast<std::int64_t>(epoch_ns) + clock.offset_ns -
                static_cast<std::int64_t>(t_start);
            result.shard_trace_shift_ns[conn.shard] = shift;
            std::vector<std::uint8_t> hists(reader.u32());
            reader.bytes(hists.data(), hists.size());
            std::size_t hists_pos = 0;
            OTW_REQUIRE_MSG(
                obs::live::decode_hists(hists.data(), hists.size(), hists_pos,
                                        conn.shard, result.hists) &&
                    hists_pos == hists.size(),
                "RESULT carries a malformed histogram section");
            obs::LpTraceLog wire_log;
            wire_log.lp = conn.shard;
            wire_log.dropped = reader.u64();
            wire_log.name = "shard " + std::to_string(conn.shard) + " wire";
            const std::uint32_t n_records = reader.u32();
            wire_log.records.resize(n_records);
            reader.bytes(wire_log.records.data(),
                         n_records * sizeof(obs::TraceRecord));
            for (obs::TraceRecord& rec : wire_log.records) {
              const std::int64_t shifted =
                  static_cast<std::int64_t>(rec.wall_ns) + shift;
              rec.wall_ns =
                  shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
            }
            if (n_records > 0 || wire_log.dropped > 0) {
              result.worker_traces.push_back(std::move(wire_log));
            }
            conn.done = true;
            ++results;
          } else if (header.tag == kTagStats) {
            // Live health snapshot: absorbed here, never relayed. The hook
            // may legitimately be absent (a stale child racing shutdown
            // cannot happen — workers only stream while running — but a
            // defensive null check costs nothing).
            if (live.on_stats) {
              live.on_stats(conn.shard, frame + kFrameHeaderBytes,
                            header.payload_len);
            }
            ++result.dist.stats_frames;
          } else if (header.tag == kTagTime) {
            // Clock refresh ping: echo the worker's raw t0 back alongside
            // our own clock. Never relayed, never counted as data.
            FrameHeader echo;
            echo.payload_len = 8;
            echo.tag = kTagTime;
            echo.flags = kFlagControl;
            echo.src_lp = conn.shard;
            echo.send_ns = mono_ns();
            std::uint8_t echo_frame[kFrameHeaderBytes + 8];
            encode_frame_header(echo, echo_frame);
            std::memcpy(echo_frame + kFrameHeaderBytes, &header.send_ns, 8);
            conn.out.insert(conn.out.end(), echo_frame,
                            echo_frame + sizeof echo_frame);
            flush_c(conn);
          } else if (header.tag == kTagDone) {
            OTW_REQUIRE_MSG(header.payload_len == 8, "malformed DONE frame");
            conn.done_valid = true;
            std::memcpy(&conn.done_migrations_in, frame + kFrameHeaderBytes, 8);
            any_done = true;
            if (fault_on && snap_phase != SnapPhase::Idle) {
              // A shard finished before our Stop reached it (its DONE
              // precedes its settle ACKs in stream order, so we always see
              // it before the cut fires). Cutting would roll completion
              // back — drop the epoch instead; the run is nearly over.
              abort_epoch();
            }
            try_finish();
          } else if (header.tag == kTagMigrated) {
            OTW_REQUIRE_MSG(migration_inflight, "unexpected MIGRATED frame");
            WireReader reader(frame + kFrameHeaderBytes, header.payload_len);
            const LpId lp = reader.u32();
            const std::uint32_t to = reader.u32();
            const std::uint32_t epoch = reader.u32();
            const std::uint8_t accepted = reader.u8();
            OTW_REQUIRE_MSG(reader.done() && lp < lps.size() &&
                                to < num_shards,
                            "malformed MIGRATED frame");
            migration_inflight = false;
            if (accepted != 0) {
              ++result.dist.migrations;
              if (epoch > epochs[lp]) {
                epochs[lp] = epoch;
                owners[lp] = to;
              }
              ++expected_in[to];
              std::vector<std::uint8_t> rebind;
              WireWriter w(rebind);
              w.u32(lp);
              w.u32(to);
              w.u32(epoch);
              FrameHeader h;
              h.payload_len = static_cast<std::uint32_t>(rebind.size());
              h.tag = kTagRebind;
              h.flags = kFlagControl;
              h.dst_lp = lp;
              broadcast(h, rebind.data());
            }
            try_finish();
          } else if (header.tag == kTagSnapAck) {
            OTW_REQUIRE_MSG(fault_on && header.payload_len == 21,
                            "unexpected SNAP_ACK frame");
            WireReader reader(frame + kFrameHeaderBytes, header.payload_len);
            const std::uint8_t kind = reader.u8();
            const std::uint64_t a = reader.u64();
            const std::uint64_t b = reader.u64();
            // Round id for counters ACKs, epoch for accept/decline.
            const std::uint32_t seq = reader.u32();
            if (kind == kSnapAckCounters && seq == snap_poll_round &&
                (snap_phase == SnapPhase::Settle ||
                 snap_phase == SnapPhase::Resettle)) {
              if (!snap_reported[conn.shard]) {
                snap_reported[conn.shard] = true;
                ++snap_report_count;
              }
              snap_counts[conn.shard] = {a, b};
              if (snap_report_count == num_shards) {
                // Quiescent iff the counter vector repeated across two
                // rounds AND is globally balanced: repetition alone can be a
                // coincidence of in-flight frames, balance alone can hold
                // while frames are still moving.
                bool identical = snap_have_prev;
                std::uint64_t sum_sent = 0;
                std::uint64_t sum_recv = 0;
                for (std::uint32_t s = 0; s < num_shards; ++s) {
                  sum_sent += snap_counts[s].first;
                  sum_recv += snap_counts[s].second;
                  if (identical && snap_counts[s] != snap_prev[s]) {
                    identical = false;
                  }
                }
                if (identical && sum_sent == sum_recv) {
                  snap_have_prev = false;
                  if (snap_phase == SnapPhase::Settle) {
                    snap_phase = SnapPhase::Cut;
                    cut_acks = 0;
                    cut_declined = false;
                    cut_gvt = 0;
                    broadcast_snap_ctl(kSnapCut, snap_epoch);
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
              ++cut_acks;
              if (kind == kSnapAckDecline) {
                cut_declined = true;
              } else {
                OTW_REQUIRE_MSG(cut_gvt == 0 || cut_gvt == a,
                                "shards disagree on the cut GVT");
                cut_gvt = a;
              }
              if (cut_acks == num_shards) {
                if (cut_declined) {
                  // Some shard cannot cut here (done, or GVT still 0);
                  // nothing was mutated — retry after the initial gap.
                  abort_epoch();
                } else {
                  // The cut's rollbacks flushed fresh sends; settle again
                  // before asking anyone to serialize.
                  snap_phase = SnapPhase::Resettle;
                  snap_have_prev = false;
                  begin_poll_round();
                }
              }
            }
            // Stale ACKs (a recovery voided the epoch mid-flight) drop here.
          } else if (header.tag == kTagSnapData) {
            OTW_REQUIRE_MSG(fault_on && header.payload_len >= 12,
                            "unexpected SNAP_DATA frame");
            WireReader reader(frame + kFrameHeaderBytes, header.payload_len);
            const std::uint32_t epoch = reader.u32();
            const std::uint64_t gvt = reader.u64();
            if (snap_phase == SnapPhase::Serialize && epoch == snap_epoch) {
              OTW_REQUIRE_MSG(gvt == cut_gvt,
                              "SNAP_DATA disagrees with the cut GVT");
              auto& blob = snap_blobs[conn.shard];
              blob.resize(reader.remaining());
              reader.bytes(blob.data(), blob.size());
              if (++snap_data_count == num_shards) {
                finalize_epoch();
              }
            }
            // Stale epochs (voided by a recovery) drop here.
          } else if (header.tag == kTagRecovered) {
            // A straggler from a recovery window that already closed.
            OTW_REQUIRE_MSG(fault_on, "unexpected RECOVERED frame");
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
            Conn& target = conns[static_cast<std::size_t>(shard_conn[dst_shard])];
            target.out.insert(target.out.end(), frame, frame + frame_len);
            flush_c(target);  // opportunistic; POLLOUT handles the rest
            ++result.dist.frames_relayed;
            if (live.bank != nullptr || live.on_relay) {
              // Relay residency: origin encode -> queued for the destination
              // (the upstream half of the end-to-end link latency).
              const std::uint64_t now = mono_ns();
              if (live.bank != nullptr) {
                live.bank->record_link(
                    obs::hist::Seam::RelayResidency, conn.shard, dst_shard,
                    now > header.send_ns ? now - header.send_ns : 0);
              }
              if (live.on_relay) {
                live.on_relay(conn.shard, dst_shard, header.tag,
                              static_cast<std::uint32_t>(frame_len),
                              header.send_ns, now);
              }
            }
          }
          pos += frame_len;
        }
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() + static_cast<std::ptrdiff_t>(pos));
        if (eof && !conn.done) {
          if (fault_on && have_cut && !finish_sent &&
              result.recoveries.size() <
                  static_cast<std::size_t>(fault.max_recoveries)) {
            run_recovery(i);
            continue;  // conn now points at the replacement's stream
          }
          throw std::runtime_error("shard " + std::to_string(conn.shard) +
                                   " exited before reporting a result");
        }
      }
    }

    for (Conn& conn : conns) {
      ::close(conn.fd);  // workers linger on this close before exiting
      conn.fd = -1;
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
