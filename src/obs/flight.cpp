#include "otw/obs/flight.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "otw/util/net.hpp"

namespace otw::obs::flight {

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void write_health_event(std::ostream& os, const live::HealthEvent& e) {
  os << "{\"rule\":\"" << live::health_rule_name(e.rule) << "\","
     << "\"raised\":" << (e.raised ? "true" : "false") << ","
     << "\"shard\":" << e.shard << ","
     << "\"wall_ns\":" << e.wall_ns << ",\"detail\":\"";
  json_escape(os, e.detail);
  os << "\"}";
}

template <typename T>
void push_ring(std::deque<T>& ring, const T& value, std::size_t cap) {
  if (cap == 0) {
    return;
  }
  if (ring.size() == cap) {
    ring.pop_front();
  }
  ring.push_back(value);
}

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig config, std::uint32_t num_shards)
    : config_(std::move(config)),
      num_shards_(num_shards),
      snapshots_(num_shards),
      frames_(num_shards) {}

void FlightRecorder::on_snapshot(const live::LiveSnapshot& snap) {
  if (!config_.enabled || snap.shard >= num_shards_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  push_ring(snapshots_[snap.shard], snap, config_.snapshot_ring);
}

void FlightRecorder::on_health(const live::HealthEvent& event) {
  if (!config_.enabled) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    push_ring(health_, event, config_.health_ring);
    last_event_ = event;
    has_last_event_ = true;
    const auto key = std::make_pair(event.rule, event.shard);
    const auto it = std::find(active_.begin(), active_.end(), key);
    if (event.raised && it == active_.end()) {
      active_.push_back(key);
    } else if (!event.raised && it != active_.end()) {
      active_.erase(it);
    }
  }
  if (event.raised) {
    dump(event.shard < num_shards_ ? event.shard : 0,
         std::string("watchdog raised ") + live::health_rule_name(event.rule) +
             " on shard " + std::to_string(event.shard));
  }
}

void FlightRecorder::on_frame(const FrameEvent& event) {
  if (!config_.enabled || event.src_shard >= num_shards_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  push_ring(frames_[event.src_shard], event, config_.frame_ring);
}

std::string FlightRecorder::render(std::uint32_t shard,
                                   const std::string& reason,
                                   std::uint64_t now_ns) const {
  std::ostringstream os;
  os << "{\"schema\":\"otw-flight-v1\",\"shard\":" << shard << ",\"reason\":\"";
  json_escape(os, reason);
  os << "\",\"dumped_at_ns\":" << now_ns << ",";

  // Last-known watchdog state: what was raised when the box went dark.
  os << "\"watchdog\":{\"active\":[";
  for (std::size_t i = 0; i < active_.size(); ++i) {
    os << (i ? "," : "") << "{\"rule\":\""
       << live::health_rule_name(active_[i].first)
       << "\",\"shard\":" << active_[i].second << "}";
  }
  os << "],\"last_event\":";
  if (has_last_event_) {
    write_health_event(os, last_event_);
  } else {
    os << "null";
  }
  os << "},";

  os << "\"health_events\":[";
  for (std::size_t i = 0; i < health_.size(); ++i) {
    if (i) {
      os << ",";
    }
    write_health_event(os, health_[i]);
  }
  os << "],";

  os << "\"snapshots\":[";
  const std::deque<live::LiveSnapshot>& ring = snapshots_[shard];
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const live::LiveSnapshot& snap = ring[i];
    if (i) {
      os << ",";
    }
    os << "{\"wall_ns\":" << snap.wall_ns
       << ",\"gvt_ticks\":" << snap.gvt_ticks
       << ",\"processed\":" << snap.total(live::Counter::events_processed)
       << ",\"committed\":" << snap.total(live::Counter::events_committed)
       << ",\"rolled_back\":" << snap.total(live::Counter::events_rolled_back)
       << ",\"hists\":[";
    for (std::size_t h = 0; h < snap.hists.size(); ++h) {
      const hist::Entry& e = snap.hists[h];
      os << (h ? "," : "") << "{\"seam\":\"" << hist::seam_name(e.seam) << "\"";
      if (hist::seam_is_link(e.seam)) {
        os << ",\"src\":" << e.src << ",\"dst\":" << e.dst;
      }
      os << ",\"count\":" << e.hist.count << ",\"sum\":" << e.hist.sum
         << ",\"p50\":" << e.hist.quantile_upper_bound(0.50)
         << ",\"p95\":" << e.hist.quantile_upper_bound(0.95)
         << ",\"p99\":" << e.hist.quantile_upper_bound(0.99) << "}";
    }
    os << "]}";
  }
  os << "],";

  os << "\"frames\":[";
  const std::deque<FrameEvent>& frames = frames_[shard];
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const FrameEvent& f = frames[i];
    os << (i ? "," : "") << "{\"src\":" << f.src_shard
       << ",\"dst\":" << f.dst_shard << ",\"tag\":" << f.tag
       << ",\"len\":" << f.frame_len << ",\"send_ns\":" << f.send_ns
       << ",\"relay_ns\":" << f.coord_now_ns << "}";
  }
  os << "]}";
  return os.str();
}

std::string FlightRecorder::dump(std::uint32_t shard,
                                 const std::string& reason) {
  if (!config_.enabled || shard >= num_shards_) {
    return "";
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string path =
      config_.dir + "/flight-" + std::to_string(shard) + ".json";
  const std::string body = render(shard, reason, util::net::mono_ns());
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return "";  // evidence is best-effort; never take the run down
  }
  out << body << "\n";
  out.flush();
  if (std::find(dumped_.begin(), dumped_.end(), path) == dumped_.end()) {
    dumped_.push_back(path);
  }
  return path;
}

void FlightRecorder::dump_all(const std::string& reason) {
  for (std::uint32_t shard = 0; shard < num_shards_; ++shard) {
    dump(shard, reason);
  }
}

std::vector<std::string> FlightRecorder::dumped_paths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumped_;
}

// ---------------------------------------------------------------------------
// Worker-side fatal-signal dump (async-signal-safe).
// ---------------------------------------------------------------------------

namespace {

// Fixed at install time; the handler only calls open/write/close/raise.
char g_fatal_path[512];
char g_fatal_prefix[256];
volatile std::sig_atomic_t g_fatal_armed = 0;

extern "C" void otw_flight_fatal_handler(int sig) {
  if (g_fatal_armed != 0) {
    const int fd = ::open(g_fatal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const std::size_t prefix_len = ::strlen(g_fatal_prefix);
      ssize_t ignored = ::write(fd, g_fatal_prefix, prefix_len);
      char digits[16];
      int n = 0;
      int v = sig;
      do {
        digits[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
      } while (v > 0 && n < 15);
      for (int i = n - 1; i >= 0; --i) {
        ignored = ::write(fd, &digits[i], 1);
      }
      const char suffix[] = "\"}\n";
      ignored = ::write(fd, suffix, sizeof suffix - 1);
      static_cast<void>(ignored);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_worker_fatal_dump(const std::string& dir, std::uint32_t shard) {
  if (dir.empty()) {
    return;
  }
  const std::string path =
      dir + "/flight-" + std::to_string(shard) + ".json";
  if (path.size() >= sizeof g_fatal_path) {
    return;
  }
  std::memcpy(g_fatal_path, path.c_str(), path.size() + 1);
  const std::string prefix =
      "{\"schema\":\"otw-flight-v1\",\"shard\":" + std::to_string(shard) +
      ",\"reason\":\"fatal signal ";
  if (prefix.size() >= sizeof g_fatal_prefix) {
    return;
  }
  std::memcpy(g_fatal_prefix, prefix.c_str(), prefix.size() + 1);
  g_fatal_armed = 1;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = otw_flight_fatal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
  ::sigaction(SIGFPE, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace otw::obs::flight
