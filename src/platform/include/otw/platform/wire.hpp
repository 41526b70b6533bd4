// Wire format for cross-process engine messages.
//
// Every EngineMessage subclass that can leave the process carries a
// registered type tag (WireTag) and implements encode_wire(); a process-wide
// WireRegistry maps the tag back to a decoder on the receiving side. This
// replaces the old "downcast on receipt" scheme: transports (and the kernel)
// dispatch on the tag, and a message type nobody registered simply cannot
// travel between processes — the failure is a descriptive exception at the
// send site, not a silent drop at the receiver.
//
// Encoding is explicit little-endian field-by-field (WireWriter/WireReader):
// no struct memcpy, so the frame layout is independent of padding and is
// documented per message type (DESIGN.md section 8). Frames on the socket
// are length-prefixed:
//
//   u32 payload_len | u16 tag | u16 flags | u32 src_lp | u32 dst_lp
//   | u64 send_ns | payload
//
// (24-byte header, see FrameHeader). `send_ns` stamps the sender's
// steady_clock at encode time, pre-shifted into the coordinator's clock
// domain by the sender's estimated offset (see DESIGN.md section 10) — it
// feeds the per-link latency and relay-residency histograms and is ignored
// by the event path, so it is telemetry, never ordering. The same header
// carries the transport's own control frames (hello/result), which use
// tags above kReservedTagBase.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "otw/util/assert.hpp"

namespace otw::platform {

class EngineMessage;

/// Registered message-type tag. 0 means "not wire-capable" (local-only
/// message); tags >= kReservedTagBase are reserved for the transport itself.
using WireTag = std::uint16_t;
inline constexpr WireTag kNoWireTag = 0;
inline constexpr WireTag kReservedTagBase = 0xFF00;

// Transport-reserved control tags (>= kReservedTagBase, never in the
// registry). DESIGN.md section 8b documents this table; tools/check_docs.py
// fails the build when they drift apart.
inline constexpr WireTag kTagHello = 0xFF01;       ///< worker -> coordinator: src_lp = shard, payload u16 mesh port
inline constexpr WireTag kTagResult = 0xFF02;      ///< worker -> coordinator: shard summary + harvest blob
inline constexpr WireTag kTagStats = 0xFF03;       ///< worker -> coordinator: live snapshot
inline constexpr WireTag kTagHelloAck = 0xFF04;    ///< coordinator -> worker: send_ns = t_c, payload = peer directory
inline constexpr WireTag kTagTime = 0xFF05;        ///< clock refresh ping / echo
inline constexpr WireTag kTagMigrate = 0xFF07;     ///< source -> destination peer link: serialized LP of a move epoch (dst_lp = LP id)
inline constexpr WireTag kTagPeerHello = 0xFF0A;   ///< identity frame on a freshly dialed peer link (src_lp = shard)
inline constexpr WireTag kTagDone = 0xFF0B;        ///< worker -> coordinator: local active set drained (no payload)
inline constexpr WireTag kTagFinish = 0xFF0C;      ///< coordinator -> all workers: harvest and report RESULT
inline constexpr WireTag kTagSnapCtl = 0xFF0D;     ///< coordinator -> all workers: epoch phase change (payload u8 phase + u32 epoch + u32 lp + u32 to)
inline constexpr WireTag kTagSnapAck = 0xFF0E;     ///< worker -> coordinator: settle counters / cut outcome / move installed
inline constexpr WireTag kTagSnapData = 0xFF0F;    ///< worker -> coordinator: serialized shard blob for one snapshot epoch
inline constexpr WireTag kTagRecover = 0xFF10;     ///< coordinator -> survivors: dead shard id + replacement mesh port + epoch
inline constexpr WireTag kTagRestore = 0xFF11;     ///< coordinator -> replacement worker: shard blob of the last complete cut
inline constexpr WireTag kTagRecovered = 0xFF12;   ///< worker -> coordinator: local restore finished, frozen until resume
inline constexpr WireTag kTagRecoverMark = 0xFF13; ///< survivor -> surviving peers: incarnation boundary on a peer link

/// Field names of the MIGRATE frame payload, in wire order (nested: the
/// `runtimes` group repeats per object runtime, `pending` is that runtime's
/// unprocessed event list). DESIGN.md section 8b documents the layout;
/// tools/check_docs.py cross-checks every name listed here against it.
inline constexpr const char* kMigrateFrameFields[] = {
    "epoch",      "gvt",          "gvt_agent",    "lp_stats",
    "events_total", "samples",    "runtimes",     "object",
    "lvt",        "last_position", "instance_seq", "state",
    "object_stats", "object_samples", "pending",
};

/// Field names of the snapshot file container ("OTWSNAP1", written by
/// tw::snapshot and by the coordinator's spill-to-disk path), in file order.
/// The `shard` group repeats num_shards times; each `blob` holds that
/// shard's LPs in the MIGRATE revival layout (one `lp_id`/`lp_bytes` framed
/// record per LP). DESIGN.md section 8c documents the layout;
/// tools/check_docs.py cross-checks every name listed here against it.
inline constexpr const char* kSnapshotManifestFields[] = {
    "magic",     "version",  "engine", "epoch",    "gvt",
    "num_lps",   "num_shards", "shard", "lp_count", "blob_bytes",
    "lp_id",     "lp_bytes", "blob",
};

/// Append-only little-endian encoder.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void bytes(const void* data, std::size_t len) { append(data, len); }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  void append(const void* data, std::size_t len) {
    if (len == 0) {
      return;  // data may be null for empty spans
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + len);
  }
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian decoder over a received payload.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  [[nodiscard]] std::uint8_t u8() { return take<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return take<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return take<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return take<std::uint64_t>(); }
  void bytes(void* out, std::size_t len) {
    if (len == 0) {
      return;  // out may be null for empty spans
    }
    OTW_REQUIRE_MSG(pos_ + len <= len_, "wire frame truncated");
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == len_; }

 private:
  template <typename T>
  [[nodiscard]] T take() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Length-prefixed frame header, exactly as laid out on the socket.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  WireTag tag = kNoWireTag;
  std::uint16_t flags = 0;
  std::uint32_t src_lp = 0;
  std::uint32_t dst_lp = 0;
  /// Sender steady_clock at encode time, in the coordinator clock domain
  /// (sender adds its estimated offset). Telemetry only.
  std::uint64_t send_ns = 0;
};
inline constexpr std::size_t kFrameHeaderBytes = 24;

void encode_frame_header(const FrameHeader& h, std::uint8_t out[kFrameHeaderBytes]);
[[nodiscard]] FrameHeader decode_frame_header(const std::uint8_t in[kFrameHeaderBytes]);

/// Process-wide tag -> decoder table. Registration happens once at startup
/// (idempotent per tag as long as the decoder is the same logical type);
/// lookups are lock-free reads after that. register_decoder REQUIREs that a
/// tag is not re-registered to a different decoder identity.
class WireRegistry {
 public:
  using Decoder = std::function<std::unique_ptr<EngineMessage>(WireReader&)>;

  /// The singleton instance (one registry per process; forked workers
  /// inherit it, which is what makes coordinator and shards agree).
  static WireRegistry& instance();

  /// Registers `decoder` for `tag`. `name` identifies the message type for
  /// diagnostics and idempotence (re-registering the same tag+name is a
  /// no-op; same tag with a different name is a contract violation).
  void register_decoder(WireTag tag, const char* name, Decoder decoder);

  /// Decodes one payload. Throws ContractViolation on an unknown tag.
  [[nodiscard]] std::unique_ptr<EngineMessage> decode(WireTag tag,
                                                      WireReader& reader) const;

  [[nodiscard]] bool knows(WireTag tag) const noexcept;
  [[nodiscard]] const char* name_of(WireTag tag) const noexcept;

 private:
  struct Entry {
    WireTag tag = kNoWireTag;
    const char* name = nullptr;
    Decoder decoder;
  };
  std::vector<Entry> entries_;
  [[nodiscard]] const Entry* find(WireTag tag) const noexcept;
};

}  // namespace otw::platform
