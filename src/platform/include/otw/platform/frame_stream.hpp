// One framed byte stream: the transport under every socket the distributed
// engine holds (worker <-> coordinator and worker <-> worker). Frames are
// the length-prefixed FrameHeader + payload units of wire.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "otw/platform/wire.hpp"

namespace otw::platform {

/// A connected stream socket with its unparsed inbound bytes and its queued
/// outbound bytes. It holds the engine's only non-blocking receive loop,
/// frame-reassembly loop and flush. A counterpart that closed or reset the
/// stream is reported as a return value, never thrown, so each caller
/// decides whether that is fatal or a shard death to recover from. No write
/// raises SIGPIPE. Move-only; owns the fd and closes it on destruction.
class FrameStream {
 public:
  FrameStream() = default;
  /// Adopts a connected socket and switches it to non-blocking mode.
  explicit FrameStream(int fd);
  FrameStream(FrameStream&& other) noexcept;
  FrameStream& operator=(FrameStream&& other) noexcept;
  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;
  ~FrameStream() { close(); }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  /// Queued bytes the socket has not taken yet.
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return out_.size() - out_pos_;
  }

  /// Closes the socket and discards both buffers. A parse() running on this
  /// stream stops once the handler that called close() returns.
  void close() noexcept;

  /// Appends one frame to the outbound queue; no I/O.
  void queue(const FrameHeader& header, const std::uint8_t* payload);
  /// Appends one already-encoded frame (header and payload) verbatim.
  void queue_raw(const std::uint8_t* frame, std::size_t len);

  /// Writes as much of the queue as the socket takes without blocking.
  /// Returns false when the counterpart is gone; the unwritten bytes stay
  /// queued.
  [[nodiscard]] bool flush();

  /// Queues one frame and blocks until the whole queue is written. Throws
  /// when the counterpart is gone.
  void send(const FrameHeader& header, const std::uint8_t* payload);

  /// Reads everything the socket holds without blocking. Returns false once
  /// the counterpart has closed or reset the stream; the bytes that arrived
  /// before that stay buffered for parse(). Throws on any other error.
  [[nodiscard]] bool receive();

  /// Hands each whole buffered frame, in arrival order, to
  /// `handler(const FrameHeader&, const std::uint8_t* frame)`; `frame`
  /// points at the encoded header, the payload follows it. The handler
  /// returns false to stop after that frame (later frames stay buffered).
  /// It may close() this stream, which also stops parsing, but must not
  /// receive() or parse() it.
  template <typename Handler>
  void parse(Handler&& handler);

  /// Blocks until one whole frame is buffered and consumes it: returns the
  /// header and copies the payload into `payload`. Throws, naming `what`,
  /// when the counterpart closes first.
  FrameHeader read_frame(std::vector<std::uint8_t>& payload, const char* what);

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;   ///< received, not yet parsed
  std::vector<std::uint8_t> out_;  ///< queued; written up to out_pos_
  std::size_t out_pos_ = 0;
  std::uint64_t generation_ = 0;   ///< bumped by close(); parse() checks it
};

template <typename Handler>
void FrameStream::parse(Handler&& handler) {
  const std::uint64_t generation = generation_;
  std::size_t pos = 0;
  bool more = true;
  while (more && in_.size() - pos >= kFrameHeaderBytes) {
    const FrameHeader header = decode_frame_header(in_.data() + pos);
    const std::size_t len = kFrameHeaderBytes + header.payload_len;
    if (in_.size() - pos < len) {
      break;  // partial frame; a later receive() completes it
    }
    const std::uint8_t* frame = in_.data() + pos;
    more = handler(header, frame);
    if (generation != generation_) {
      return;  // the handler closed this stream and its bytes are gone
    }
    pos += len;
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace otw::platform
