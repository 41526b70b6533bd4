#include "otw/platform/frame_stream.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string>
#include <utility>

#include "otw/util/net.hpp"

namespace otw::platform {

namespace {

const std::string kContext = "FrameStream";

}  // namespace

FrameStream::FrameStream(int fd) : fd_(fd) {
  util::net::set_nonblocking(fd_, kContext);
}

FrameStream::FrameStream(FrameStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      in_(std::move(other.in_)),
      out_(std::move(other.out_)),
      out_pos_(std::exchange(other.out_pos_, 0)) {
  other.in_.clear();
  other.out_.clear();
}

FrameStream& FrameStream::operator=(FrameStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    in_ = std::move(other.in_);
    out_ = std::move(other.out_);
    out_pos_ = std::exchange(other.out_pos_, 0);
    other.in_.clear();
    other.out_.clear();
  }
  return *this;
}

void FrameStream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = -1;
  in_.clear();
  out_.clear();
  out_pos_ = 0;
  ++generation_;
}

void FrameStream::queue(const FrameHeader& header, const std::uint8_t* payload) {
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  out_.insert(out_.end(), raw, raw + kFrameHeaderBytes);
  if (header.payload_len > 0) {
    out_.insert(out_.end(), payload, payload + header.payload_len);
  }
}

void FrameStream::queue_raw(const std::uint8_t* frame, std::size_t len) {
  out_.insert(out_.end(), frame, frame + len);
}

bool FrameStream::flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // socket buffer full; the rest waits for POLLOUT
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // EPIPE, ECONNRESET, ...: the counterpart is gone
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

void FrameStream::send(const FrameHeader& header, const std::uint8_t* payload) {
  queue(header, payload);
  for (;;) {
    if (!flush()) {
      util::net::throw_errno(kContext, "send");
    }
    if (queued_bytes() == 0) {
      return;
    }
    util::net::wait_for(fd_, POLLOUT, kContext);
  }
}

bool FrameStream::receive() {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_.insert(in_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return false;  // a SIGKILLed counterpart resets rather than closing
    }
    util::net::throw_errno(kContext, "recv");
  }
}

FrameHeader FrameStream::read_frame(std::vector<std::uint8_t>& payload,
                                    const char* what) {
  for (;;) {
    const bool open = receive();
    bool got = false;
    FrameHeader header;
    parse([&](const FrameHeader& h, const std::uint8_t* frame) {
      got = true;
      header = h;
      payload.assign(frame + kFrameHeaderBytes,
                     frame + kFrameHeaderBytes + h.payload_len);
      return false;
    });
    if (got) {
      return header;
    }
    if (!open) {
      throw std::runtime_error(kContext + ": counterpart closed before " + what);
    }
    util::net::wait_for(fd_, POLLIN, kContext);
  }
}

}  // namespace otw::platform
