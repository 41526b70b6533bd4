#include "otw/obs/live_server.hpp"

#if OTW_OBS_LIVE
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <utility>

#include "otw/util/net.hpp"
#endif

namespace otw::obs::live {

#if OTW_OBS_LIVE

namespace {
const std::string kCtx = "LiveServer";
}  // namespace

LiveServer::LiveServer(LiveServerConfig config, SnapshotFn snapshots)
    : config_(std::move(config)),
      snapshots_(std::move(snapshots)),
      watchdog_(config_.watchdog) {}

LiveServer::~LiveServer() { stop(); }

void LiveServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  listen_fd_ = util::net::listen_loopback(config_.port, /*backlog=*/8, port_,
                                          kCtx);
  util::net::set_nonblocking(listen_fd_, kCtx);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  if (config_.on_endpoint) {
    config_.on_endpoint(port_);
  }
}

void LiveServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::uint16_t LiveServer::port() const noexcept { return port_; }

std::vector<HealthEvent> LiveServer::health() const {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  return watchdog_.history();
}

void LiveServer::serve() {
  std::uint64_t last_feed_ns = 0;
  const std::uint64_t period_ns =
      static_cast<std::uint64_t>(config_.monitor_period_ms) * 1'000'000;
  while (running_.load(std::memory_order_acquire)) {
    const std::uint64_t now = util::net::mono_ns();
    if (now - last_feed_ns >= period_ns) {
      last_feed_ns = now;
      const std::vector<LiveSnapshot> shards = snapshots_();
      std::vector<HealthEvent> transitions;
      {
        std::lock_guard<std::mutex> lock(watchdog_mutex_);
        transitions = watchdog_.feed(shards, now);
      }
      if (config_.on_health) {
        for (const HealthEvent& event : transitions) {
          config_.on_health(event);
        }
      }
    }
    pollfd p{listen_fd_, POLLIN, 0};
    // Short poll keeps both the accept and the monitor cadence responsive
    // without a second thread.
    const int timeout_ms =
        static_cast<int>(config_.monitor_period_ms > 20
                             ? 20
                             : (config_.monitor_period_ms ? config_.monitor_period_ms : 1));
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc <= 0) {
      continue;  // timeout or EINTR; errors surface on accept
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;  // raced another wakeup / transient error; keep serving
    }
    try {
      handle_client(fd);
    } catch (...) {
      // A misbehaving scraper must never take the run down.
    }
    // End the connection itself, not just this descriptor: a worker the
    // distributed engine fork()s while a client is being served inherits
    // a copy of `fd`, and close() alone leaves the client waiting for EOF
    // until that worker exits.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void LiveServer::handle_client(int fd) {
  // Read until the end of the request head (or a small cap); only the
  // request line matters. The client may legally still be sending when we
  // respond — we close after one response anyway.
  std::string head;
  char buf[1024];
  while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos &&
         head.find('\n') == std::string::npos) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 1000) <= 0) {
      return;  // slow or dead client; drop it
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    head.append(buf, static_cast<std::size_t>(n));
  }
  std::string path = "/";
  const std::size_t sp1 = head.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = head.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      path = head.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  const std::string response = render(path);
  util::net::write_all(fd, reinterpret_cast<const std::uint8_t*>(response.data()),
                       response.size(), kCtx);
}

std::string LiveServer::render(const std::string& path) {
  std::string body;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string status = "200 OK";
  if (path == "/metrics") {
    std::ostringstream os;
    write_prometheus(os, build_live_metrics(snapshots_()));
    body = os.str();
  } else if (path == "/snapshot" || path == "/") {
    std::ostringstream os;
    std::vector<std::pair<HealthRule, std::uint32_t>> active;
    std::vector<HealthEvent> events;
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex_);
      active = watchdog_.active();
      events = watchdog_.history();
    }
    write_live_json(os, snapshots_(), active, events, util::net::mono_ns());
    body = os.str();
    content_type = "application/json";
  } else if (path == "/health") {
    std::ostringstream os;
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex_);
      write_health_jsonl(os, watchdog_.history());
    }
    body = os.str();
    content_type = "application/x-ndjson";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

#else  // !OTW_OBS_LIVE

LiveServer::LiveServer(LiveServerConfig config, SnapshotFn snapshots)
    : config_(std::move(config)), snapshots_(std::move(snapshots)) {}

LiveServer::~LiveServer() = default;

void LiveServer::start() {}
void LiveServer::stop() {}
std::uint16_t LiveServer::port() const noexcept { return 0; }
std::vector<HealthEvent> LiveServer::health() const { return {}; }

#endif  // OTW_OBS_LIVE

}  // namespace otw::obs::live
