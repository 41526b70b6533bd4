// Telemetry: time series of the on-line controllers' decisions.
//
// The paper's motivation is that the optimal configuration *changes over the
// lifetime of the simulation*; these traces make the controllers' tracking
// of those phases observable. Sampling is by locally processed events (the
// same clock the controllers tick on) and is off by default — recording is
// itself intrusive.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "otw/core/cancellation_controller.hpp"
#include "otw/tw/virtual_time.hpp"

namespace otw::tw {

struct TelemetryConfig {
  bool enabled = false;
  /// Locally processed events between samples (per object / per LP).
  std::uint64_t sample_period_events = 256;
};

/// One sample of a simulation object's controller state.
struct ObjectSample {
  std::uint64_t events_processed = 0;  ///< sample clock
  VirtualTime lvt{};
  std::uint32_t checkpoint_interval = 1;
  double hit_ratio = 0.0;
  core::CancellationMode mode = core::CancellationMode::Aggressive;
  std::uint64_t rollbacks = 0;       ///< cumulative
  std::uint64_t memory_bytes = 0;    ///< object footprint (MemoryStats::total)
};

/// One sample of an LP's kernel state.
struct LpSample {
  std::uint64_t events_processed = 0;  ///< sample clock
  VirtualTime gvt{};
  double aggregation_window_us = 0.0;
  std::uint64_t optimism_window = 0;  ///< 0 = unbounded
  std::uint64_t memory_bytes = 0;  ///< LP footprint at the sample
  std::uint8_t pressure = 0;       ///< PressureState (0 = Normal / no budget)
};

struct ObjectTrace {
  std::uint32_t object = 0;
  std::vector<ObjectSample> samples;
};

struct LpTrace {
  std::uint32_t lp = 0;
  std::vector<LpSample> samples;
};

struct Telemetry {
  std::vector<ObjectTrace> objects;  ///< one per object, indexed by ObjectId
  std::vector<LpTrace> lps;          ///< one per LP

  [[nodiscard]] bool empty() const noexcept {
    return objects.empty() && lps.empty();
  }

  /// Writes all traces as one CSV table with a fixed 12-column header:
  ///
  ///   kind,id,events,time,chi,hit_ratio,mode,rollbacks,window_us,optimism,mem_bytes,pressure
  ///
  /// Every row has exactly 12 fields; columns that do not apply to a row's
  /// kind are left empty. Two row kinds share the table:
  ///
  ///   kind=object  id=ObjectId  events=sample clock  time=LVT ticks
  ///                chi=checkpoint interval  hit_ratio=HR in [0,1]
  ///                mode=Aggressive|Lazy  rollbacks=cumulative count
  ///                window_us,optimism empty  mem_bytes=object footprint
  ///                pressure empty
  ///   kind=lp      id=LpId      events=sample clock  time=GVT ticks
  ///                chi,hit_ratio,mode,rollbacks empty
  ///                window_us=aggregation window  optimism=window ticks
  ///                (0 = unbounded)  mem_bytes=LP footprint
  ///                pressure=normal|throttle|emergency
  ///
  /// `time` prints VirtualTime via operator<< ("inf" when infinite). The
  /// schema is asserted by a parse-back test in tw_telemetry_test.cpp.
  void write_csv(std::ostream& os) const;
};

}  // namespace otw::tw
