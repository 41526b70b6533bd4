// Black-box flight recorder (otw::obs::flight): bounded rings of the most
// recent live snapshots, watchdog transitions and relayed-frame metadata,
// dumped as one JSON document per shard when something goes wrong — a
// watchdog alarm, an abnormal shard exit, or a fatal signal.
//
// The recorder lives in the COORDINATOR process in distributed runs: a
// SIGKILLed worker cannot dump anything, so the evidence has to accumulate
// on the surviving side of the socket. Feeds ride the existing telemetry
// paths (STATS payload decode, watchdog monitor loop, relay loop) and take
// a plain mutex — none of them are on an LP hot path. In-process engines
// can feed the same recorder from their snapshot callback.
//
// Dump schema ("otw-flight-v1", DESIGN.md section 10; check_docs.py guards
// the key set against drift):
//
//   { "schema": "otw-flight-v1", "shard": k, "reason": "...",
//     "dumped_at_ns": t, "watchdog": {"active": [...], "last_event": {...}},
//     "health_events": [...], "snapshots": [...], "frames": [...] }
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "otw/obs/live.hpp"

namespace otw::obs::flight {

struct FlightConfig {
  /// Master switch; a disabled recorder ignores every feed and dump.
  bool enabled = false;
  /// Directory receiving flight-<shard>.json dumps.
  std::string dir = ".";
  /// Most recent live snapshots retained per shard.
  std::size_t snapshot_ring = 32;
  /// Most recent relayed-frame records retained per (src) shard.
  std::size_t frame_ring = 256;
  /// Most recent watchdog transitions retained (global).
  std::size_t health_ring = 128;
};

/// Metadata of one relayed control frame (coordinator relay loop feed).
struct FrameEvent {
  std::uint32_t src_shard = 0;
  std::uint32_t dst_shard = 0;
  std::uint16_t tag = 0;
  std::uint32_t frame_len = 0;
  std::uint64_t send_ns = 0;       ///< origin encode time, coordinator domain
  std::uint64_t coord_now_ns = 0;  ///< relay time, coordinator clock
};

class FlightRecorder {
 public:
  FlightRecorder(FlightConfig config, std::uint32_t num_shards);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  [[nodiscard]] const FlightConfig& config() const noexcept { return config_; }

  /// Retains a decoded live snapshot in its shard's ring.
  void on_snapshot(const live::LiveSnapshot& snap);
  /// Retains a watchdog transition and tracks the active-rule set. Dumps
  /// the affected shard when a rule is RAISED (edge-triggered; at most one
  /// dump per shard per run unless the shard dumps again for a new reason).
  void on_health(const live::HealthEvent& event);
  /// Retains relayed-frame metadata in the source shard's ring.
  void on_frame(const FrameEvent& event);

  /// Writes flight-<shard>.json and returns its path ("" when disabled or
  /// the write failed; a flight dump must never take the run down). Always
  /// overwrites: the latest reason is the one that matters.
  std::string dump(std::uint32_t shard, const std::string& reason);
  /// Dumps every shard with the same reason (abnormal run teardown).
  void dump_all(const std::string& reason);

  /// Paths written so far (test/tool convenience).
  [[nodiscard]] std::vector<std::string> dumped_paths() const;

 private:
  std::string render(std::uint32_t shard, const std::string& reason,
                     std::uint64_t now_ns) const;  // caller holds mutex_

  FlightConfig config_;
  std::uint32_t num_shards_;
  mutable std::mutex mutex_;
  std::vector<std::deque<live::LiveSnapshot>> snapshots_;  ///< per shard
  std::vector<std::deque<FrameEvent>> frames_;             ///< per src shard
  std::deque<live::HealthEvent> health_;
  std::vector<std::pair<live::HealthRule, std::uint32_t>> active_;
  bool has_last_event_ = false;
  live::HealthEvent last_event_;
  std::vector<std::string> dumped_;
};

/// Installs minimal async-signal-safe handlers for catchable fatal signals
/// (SIGSEGV/SIGBUS/SIGFPE/SIGABRT) in a WORKER process: the handler writes a
/// tiny flight-<shard>.json naming the signal, then re-raises it so the exit
/// status stays honest. The path is fixed at install time (no allocation in
/// the handler). Call after fork, once per worker; no-op when dir is empty.
void install_worker_fatal_dump(const std::string& dir, std::uint32_t shard);

}  // namespace otw::obs::flight
