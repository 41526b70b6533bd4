// FrameStream: the distributed engine's one framed-socket type, exercised
// over a socketpair (no TCP, no fork). Reassembly across arbitrary read
// boundaries, parse-before-close on a counterpart that writes and exits, and
// a flush toward a dead counterpart that reports instead of throwing.
#include "otw/platform/frame_stream.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace otw::platform {
namespace {

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// A socketpair: `a` is handed to a FrameStream, `b` stays a raw fd.
struct SocketPair {
  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (b >= 0) {
      ::close(b);
    }
  }
  void close_b() {
    ::close(b);
    b = -1;
  }
  int a = -1;
  int b = -1;
};

std::vector<std::uint8_t> encode(const Frame& f) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes);
  encode_frame_header(f.header, out.data());
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

void write_raw(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void wait_readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&p, 1, 5'000), 1);
}

void expect_same(const Frame& want, const FrameHeader& got_header,
                 const std::uint8_t* got_frame) {
  EXPECT_EQ(got_header.payload_len, want.header.payload_len);
  EXPECT_EQ(got_header.tag, want.header.tag);
  EXPECT_EQ(got_header.flags, want.header.flags);
  EXPECT_EQ(got_header.src_lp, want.header.src_lp);
  EXPECT_EQ(got_header.dst_lp, want.header.dst_lp);
  EXPECT_EQ(got_header.send_ns, want.header.send_ns);
  const std::vector<std::uint8_t> payload(
      got_frame + kFrameHeaderBytes,
      got_frame + kFrameHeaderBytes + got_header.payload_len);
  EXPECT_EQ(payload, want.payload);
}

TEST(FrameStream, ReassemblesFramesWrittenInRandomPieces) {
  std::mt19937_64 rng(20261017);
  // Empty payloads, the header boundary, and payloads past the 16 KiB recv
  // chunk, then random sizes in between.
  std::vector<std::uint32_t> sizes = {0,     1,     23,    24,    25,
                                      16383, 16384, 16385, 40000, 0};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<std::uint32_t>(rng() % 20000));
  }
  std::vector<Frame> frames;
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Frame f;
    f.header.payload_len = sizes[i];
    f.header.tag = static_cast<WireTag>(rng());
    f.header.flags = static_cast<std::uint16_t>(rng());
    f.header.src_lp = static_cast<std::uint32_t>(rng());
    f.header.dst_lp = static_cast<std::uint32_t>(rng());
    f.header.send_ns = rng();
    f.payload.resize(sizes[i]);
    for (std::uint8_t& byte : f.payload) {
      byte = static_cast<std::uint8_t>(rng());
    }
    const std::vector<std::uint8_t> encoded = encode(f);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
    frames.push_back(std::move(f));
  }

  SocketPair sp;
  FrameStream stream(sp.a);
  std::size_t next = 0;  // index of the next frame parse() must produce
  const auto drain = [&] {
    ASSERT_TRUE(stream.receive());
    stream.parse([&](const FrameHeader& header, const std::uint8_t* frame) {
      EXPECT_LT(next, frames.size()) << "a frame came out twice";
      if (next < frames.size()) {
        expect_same(frames[next], header, frame);
      }
      ++next;
      return true;
    });
  };
  std::size_t written = 0;
  std::size_t unread = 0;
  while (written < bytes.size()) {
    const std::size_t piece =
        std::min<std::size_t>(1 + rng() % 24000, bytes.size() - written);
    write_raw(sp.b, bytes.data() + written, piece);
    written += piece;
    unread += piece;
    // Sometimes let pieces pile up so one receive() spans several frames;
    // never enough to fill the socket buffer.
    if (unread > 64 * 1024 || rng() % 2 == 0) {
      wait_readable(sp.a);
      drain();
      unread = 0;
    }
  }
  while (next < frames.size()) {
    wait_readable(sp.a);
    drain();
  }
  EXPECT_EQ(next, frames.size());
}

TEST(FrameStream, FrameBeforeCloseIsParsedBeforeTheCloseIsActedOn) {
  Frame result;
  result.header.payload_len = 100;
  result.header.tag = kTagResult;
  result.header.src_lp = 3;
  result.payload.assign(100, 0x5A);
  const std::vector<std::uint8_t> bytes = encode(result);

  // Through receive() + parse(): the close is reported, the frame is still
  // there to parse.
  {
    SocketPair sp;
    FrameStream stream(sp.a);
    write_raw(sp.b, bytes.data(), bytes.size());
    sp.close_b();
    wait_readable(sp.a);
    EXPECT_FALSE(stream.receive());
    int seen = 0;
    stream.parse([&](const FrameHeader& header, const std::uint8_t* frame) {
      expect_same(result, header, frame);
      ++seen;
      return true;
    });
    EXPECT_EQ(seen, 1);
  }
  // Through the blocking read: the frame first, the close on the next read.
  {
    SocketPair sp;
    FrameStream stream(sp.a);
    write_raw(sp.b, bytes.data(), bytes.size());
    sp.close_b();
    std::vector<std::uint8_t> payload;
    const FrameHeader header = stream.read_frame(payload, "RESULT");
    EXPECT_EQ(header.tag, kTagResult);
    EXPECT_EQ(header.src_lp, 3u);
    EXPECT_EQ(payload, result.payload);
    EXPECT_THROW(static_cast<void>(stream.read_frame(payload, "anything")),
                 std::runtime_error);
  }
}

TEST(FrameStream, FlushTowardClosedPeerReportsDeadAndKeepsBytes) {
  SocketPair sp;
  FrameStream stream(sp.a);
  sp.close_b();
  FrameHeader header;
  header.payload_len = 32;
  header.tag = kTagStats;
  const std::vector<std::uint8_t> payload(32, 7);
  stream.queue(header, payload.data());
  ASSERT_EQ(stream.queued_bytes(), kFrameHeaderBytes + 32);
  // SIGPIPE's default action would kill this process; the flush must report.
  bool alive = true;
  EXPECT_NO_THROW(alive = stream.flush());
  EXPECT_FALSE(alive);
  EXPECT_EQ(stream.queued_bytes(), kFrameHeaderBytes + 32);
  EXPECT_TRUE(stream.is_open());
  // The blocking send is the one write that does throw.
  EXPECT_THROW(stream.send(header, payload.data()), std::runtime_error);
}

TEST(FrameStream, HandlerStopsTheBatchOrClosesTheStream) {
  SocketPair sp;
  FrameStream stream(sp.a);
  std::vector<std::uint8_t> bytes;
  for (WireTag tag = 1; tag <= 3; ++tag) {
    Frame f;
    f.header.tag = tag;
    const std::vector<std::uint8_t> encoded = encode(f);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  write_raw(sp.b, bytes.data(), bytes.size());
  wait_readable(sp.a);
  ASSERT_TRUE(stream.receive());

  // Returning false consumes that frame and leaves the rest buffered.
  std::vector<WireTag> seen;
  stream.parse([&](const FrameHeader& header, const std::uint8_t*) {
    seen.push_back(header.tag);
    return false;
  });
  EXPECT_EQ(seen, (std::vector<WireTag>{1}));
  stream.parse([&](const FrameHeader& header, const std::uint8_t*) {
    seen.push_back(header.tag);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<WireTag>{1, 2, 3}));

  // A handler that closes the stream ends the batch; nothing is left.
  write_raw(sp.b, bytes.data(), bytes.size());
  wait_readable(sp.a);
  ASSERT_TRUE(stream.receive());
  seen.clear();
  stream.parse([&](const FrameHeader& header, const std::uint8_t*) {
    seen.push_back(header.tag);
    stream.close();
    return true;
  });
  EXPECT_EQ(seen, (std::vector<WireTag>{1}));
  EXPECT_FALSE(stream.is_open());
  EXPECT_EQ(stream.queued_bytes(), 0u);
}

}  // namespace
}  // namespace otw::platform
