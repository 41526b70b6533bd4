#include "otw/obs/live.hpp"

#include <cstring>
#include <ostream>
#include <sstream>

namespace otw::obs::live {

namespace {

// Snapshot wire format. Little-endian throughout:
//   u32 magic 'OTWL' | u32 version | u32 shard | u64 wall_ns | u64 gvt_ticks
//   u32 n_engine | u64 * n_engine
//   u32 n_lps    | per LP: u32 lp | u32 n_counters | u64 * | u32 n_gauges | u64 *
//   u32 n_hists  | per hist: u32 seam | u32 src | u32 dst | u64 count | u64 sum
//                | u32 n_buckets | u64 * n_buckets
// Every slot count must equal this build's: workers are fork()s of the
// coordinator, so a mismatch can only mean a corrupt payload.
constexpr std::uint32_t kMagic = 0x4C57544Fu;  // 'OTWL'
constexpr std::uint32_t kVersion = 2;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// u32 slot count, then the slots.
template <std::size_t N>
void put_slots(std::vector<std::uint8_t>& out,
               const std::array<std::uint64_t, N>& slots) {
  put_u32(out, static_cast<std::uint32_t>(N));
  for (std::uint64_t v : slots) {
    put_u64(out, v);
  }
}

struct Cursor {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t pos = 0;

  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (len - pos < 4) {
      return false;
    }
    v = static_cast<std::uint32_t>(data[pos]) |
        static_cast<std::uint32_t>(data[pos + 1]) << 8 |
        static_cast<std::uint32_t>(data[pos + 2]) << 16 |
        static_cast<std::uint32_t>(data[pos + 3]) << 24;
    pos += 4;
    return true;
  }

  [[nodiscard]] bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!u32(lo) || !u32(hi)) {
      return false;
    }
    v = static_cast<std::uint64_t>(lo) | static_cast<std::uint64_t>(hi) << 32;
    return true;
  }

  /// A put_slots() block whose count must be exactly N.
  template <std::size_t N>
  [[nodiscard]] bool slots(std::array<std::uint64_t, N>& out) {
    std::uint32_t n = 0;
    if (!u32(n) || n != N) {
      return false;
    }
    for (std::uint64_t& v : out) {
      if (!u64(v)) {
        return false;
      }
    }
    return true;
  }
};

/// -1 for the infinity sentinel, the tick count otherwise (JSON-friendly).
void append_ticks(std::ostream& os, std::uint64_t ticks) {
  if (ticks == kTicksInfinity) {
    os << -1;
  } else {
    os << ticks;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

void encode_snapshot(const LiveSnapshot& snap, std::vector<std::uint8_t>& out) {
  out.clear();
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, snap.shard);
  put_u64(out, snap.wall_ns);
  put_u64(out, snap.gvt_ticks);
  put_slots(out, snap.engine);
  put_u32(out, static_cast<std::uint32_t>(snap.lps.size()));
  for (const LpLive& lp : snap.lps) {
    put_u32(out, lp.lp);
    put_slots(out, lp.counters);
    put_slots(out, lp.gauges);
  }
  encode_hists(snap.hists, out);
}

bool decode_snapshot(const std::uint8_t* data, std::size_t len,
                     LiveSnapshot& out) {
  Cursor cur{data, len};
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!cur.u32(magic) || magic != kMagic || !cur.u32(version) ||
      version != kVersion) {
    return false;
  }
  out = LiveSnapshot{};
  std::uint32_t n_lps = 0;
  if (!cur.u32(out.shard) || !cur.u64(out.wall_ns) ||
      !cur.u64(out.gvt_ticks) || !cur.slots(out.engine) || !cur.u32(n_lps)) {
    return false;
  }
  // 16 bytes is the floor for one serialized LP; rejects absurd counts
  // before the resize rather than after an allocation failure.
  if (static_cast<std::size_t>(n_lps) > len / 16 + 1) {
    return false;
  }
  out.lps.resize(n_lps);
  for (LpLive& lp : out.lps) {
    if (!cur.u32(lp.lp) || !cur.slots(lp.counters) || !cur.slots(lp.gauges)) {
      return false;
    }
  }
  return decode_hists(data, len, cur.pos, out.shard, out.hists) &&
         cur.pos == len;
}

void encode_hists(const std::vector<hist::Entry>& entries,
                  std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const hist::Entry& e : entries) {
    put_u32(out, static_cast<std::uint32_t>(e.seam));
    put_u32(out, e.src);
    put_u32(out, e.dst);
    put_u64(out, e.hist.count);
    put_u64(out, e.hist.sum);
    put_slots(out, e.hist.buckets);
  }
}

bool decode_hists(const std::uint8_t* data, std::size_t len, std::size_t& pos,
                  std::uint32_t shard, std::vector<hist::Entry>& out) {
  Cursor cur{data, len, pos};
  std::uint32_t n_hists = 0;
  // 32 bytes is a generous floor for one serialized histogram entry.
  if (!cur.u32(n_hists) || static_cast<std::size_t>(n_hists) > len / 32 + 1) {
    return false;
  }
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    hist::Entry e;
    std::uint32_t seam = 0;
    if (!cur.u32(seam) || seam >= static_cast<std::uint32_t>(hist::kNumSeams) ||
        !cur.u32(e.src) || !cur.u32(e.dst) || !cur.u64(e.hist.count) ||
        !cur.u64(e.hist.sum) || !cur.slots(e.hist.buckets)) {
      return false;
    }
    e.seam = static_cast<hist::Seam>(seam);
    e.shard = shard;
    out.push_back(e);
  }
  pos = cur.pos;
  return true;
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

const char* health_rule_name(HealthRule rule) noexcept {
  switch (rule) {
    case HealthRule::GvtStall:
      return "GvtStall";
    case HealthRule::RollbackStorm:
      return "RollbackStorm";
    case HealthRule::OccupancyPinned:
      return "OccupancyPinned";
    case HealthRule::ShardSilent:
      return "ShardSilent";
    case HealthRule::kCount:
      break;
  }
  return "Unknown";
}

void Watchdog::transition(ShardState& state, HealthRule rule, bool now_raised,
                          std::uint32_t shard, std::uint64_t now_ns,
                          std::string detail, std::vector<HealthEvent>& out) {
  bool& flag = state.raised[static_cast<std::size_t>(rule)];
  if (flag == now_raised) {
    return;
  }
  flag = now_raised;
  HealthEvent event;
  event.rule = rule;
  event.raised = now_raised;
  event.shard = shard;
  event.wall_ns = now_ns;
  event.detail = std::move(detail);
  history_.push_back(event);
  out.push_back(std::move(event));
}

std::vector<HealthEvent> Watchdog::feed(const std::vector<LiveSnapshot>& shards,
                                        std::uint64_t now_ns) {
  std::vector<HealthEvent> out;
  for (const LiveSnapshot& snap : shards) {
    if (snap.shard >= states_.size()) {
      states_.resize(snap.shard + 1);
    }
    ShardState& st = states_[snap.shard];

    // --- ShardSilent: end-to-end staleness of the latest snapshot. ---
    const std::uint64_t age =
        now_ns > snap.wall_ns ? now_ns - snap.wall_ns : 0;
    transition(st, HealthRule::ShardSilent, age > config_.shard_silent_ns,
               snap.shard, now_ns,
               "snapshot age " + std::to_string(age) + " ns", out);

    const std::uint64_t processed = snap.total(Counter::events_processed);
    const std::uint64_t committed = snap.total(Counter::events_committed);
    const std::uint64_t rolled_back = snap.total(Counter::events_rolled_back);

    if (st.seen) {
      // --- GvtStall: GVT frozen across feeds while the shard kept busy. ---
      const bool worked = processed > st.last_processed;
      if (snap.gvt_ticks != st.last_gvt) {
        st.gvt_stall_feeds = 0;
      } else if (worked) {
        ++st.gvt_stall_feeds;
      }
      transition(st, HealthRule::GvtStall,
                 st.gvt_stall_feeds >= config_.gvt_stall_feeds, snap.shard,
                 now_ns,
                 "gvt unchanged for " + std::to_string(st.gvt_stall_feeds) +
                     " feeds",
                 out);

      // --- RollbackStorm: wasted work dominating the delta window. ---
      const std::uint64_t d_committed = committed - st.last_committed;
      const std::uint64_t d_rolled = rolled_back - st.last_rolled_back;
      if (d_committed + d_rolled >= config_.rollback_min_events) {
        const bool storm =
            static_cast<double>(d_rolled) >
            config_.rollback_ratio * static_cast<double>(d_committed);
        transition(st, HealthRule::RollbackStorm, storm, snap.shard, now_ns,
                   "delta rolled_back=" + std::to_string(d_rolled) +
                       " committed=" + std::to_string(d_committed),
                   out);
      }
    }

    // --- OccupancyPinned: footprint riding the governance budget. ---
    const std::uint64_t footprint = snap.sum_gauge(Gauge::MemoryBytes);
    const std::uint64_t budget = snap.sum_gauge(Gauge::MemoryBudgetBytes);
    const bool pinned_now =
        budget > 0 && static_cast<double>(footprint) >=
                          config_.occupancy_fraction * static_cast<double>(budget);
    st.occupancy_feeds = pinned_now ? st.occupancy_feeds + 1 : 0;
    transition(st, HealthRule::OccupancyPinned,
               st.occupancy_feeds >= config_.occupancy_feeds, snap.shard,
               now_ns,
               "footprint " + std::to_string(footprint) + " of budget " +
                   std::to_string(budget),
               out);

    st.seen = true;
    st.last_gvt = snap.gvt_ticks;
    st.last_processed = processed;
    st.last_committed = committed;
    st.last_rolled_back = rolled_back;
  }
  return out;
}

std::vector<std::pair<HealthRule, std::uint32_t>> Watchdog::active() const {
  std::vector<std::pair<HealthRule, std::uint32_t>> out;
  for (std::size_t shard = 0; shard < states_.size(); ++shard) {
    for (std::size_t r = 0; r < static_cast<std::size_t>(HealthRule::kCount);
         ++r) {
      if (states_[shard].raised[r]) {
        out.emplace_back(static_cast<HealthRule>(r),
                         static_cast<std::uint32_t>(shard));
      }
    }
  }
  return out;
}

void write_health_jsonl(std::ostream& os,
                        const std::vector<HealthEvent>& events) {
  for (const HealthEvent& e : events) {
    os << "{\"rule\":\"" << health_rule_name(e.rule) << "\",\"state\":\""
       << (e.raised ? "raised" : "cleared") << "\",\"shard\":" << e.shard
       << ",\"wall_ns\":" << e.wall_ns << ",\"detail\":\""
       << json_escape(e.detail) << "\"}\n";
  }
}

// ---------------------------------------------------------------------------
// ClusterView.
// ---------------------------------------------------------------------------

void ClusterView::update(LiveSnapshot snap, std::uint64_t arrival_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t shard = snap.shard;
  if (shard >= shards_.size()) {
    shards_.resize(shard + 1);
    seen_.resize(shard + 1, false);
  }
  snap.wall_ns = arrival_ns;
  shards_[shard] = std::move(snap);
  seen_[shard] = true;
}

std::vector<LiveSnapshot> ClusterView::shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LiveSnapshot> out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (seen_[i]) {
      out.push_back(shards_[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exposition.
// ---------------------------------------------------------------------------

MetricsSnapshot build_live_metrics(const std::vector<LiveSnapshot>& shards) {
  MetricsSnapshot snapshot;
  std::uint64_t cluster_gvt = kTicksInfinity;
  for (const LiveSnapshot& s : shards) {
    if (s.gvt_ticks != kTicksInfinity &&
        (cluster_gvt == kTicksInfinity || s.gvt_ticks < cluster_gvt)) {
      cluster_gvt = s.gvt_ticks;
    }
  }
  snapshot.add("otw_live_shards", static_cast<double>(shards.size()),
               Metric::Type::Gauge);
  snapshot.add("otw_live_gvt_ticks", static_cast<double>(cluster_gvt),
               Metric::Type::Gauge);

  for (const LiveSnapshot& s : shards) {
    const std::pair<std::string, std::string> label{"shard",
                                                    std::to_string(s.shard)};
    auto add = [&](std::string name, double value, Metric::Type type) {
      snapshot.add(std::move(name), value, type).labels.push_back(label);
    };
    using T = Metric::Type;
    add("otw_live_lps", static_cast<double>(s.lps.size()), T::Gauge);
    add("otw_live_shard_gvt_ticks", static_cast<double>(s.gvt_ticks), T::Gauge);
    add("otw_live_snapshot_wall_ns", static_cast<double>(s.wall_ns), T::Gauge);
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      add(std::string("otw_live_") + kCounterNames[c] + "_total",
          static_cast<double>(s.total(static_cast<Counter>(c))), T::Counter);
    }
    add("otw_live_memory_bytes",
        static_cast<double>(s.sum_gauge(Gauge::MemoryBytes)), T::Gauge);
    add("otw_live_memory_budget_bytes",
        static_cast<double>(s.sum_gauge(Gauge::MemoryBudgetBytes)), T::Gauge);
    add("otw_live_pressure_state_max",
        static_cast<double>(s.max_gauge(Gauge::PressureState)), T::Gauge);
    add("otw_live_last_rollback_depth_max",
        static_cast<double>(s.max_gauge(Gauge::LastRollbackDepth)), T::Gauge);
    add("otw_live_mailbox_occupancy",
        static_cast<double>(s.engine_gauge(EngineGauge::MailboxOccupancy)),
        T::Gauge);
    add("otw_live_workers_parked",
        static_cast<double>(s.engine_gauge(EngineGauge::WorkersParked)),
        T::Gauge);

    // Attribution histograms: one family per seam ("otw_hist_<seam>"),
    // cumulative le buckets trimmed at the highest non-empty bucket (the
    // implicit +Inf bucket is appended by the writer).
    for (const hist::Entry& e : s.hists) {
      HistogramMetric h;
      h.name = std::string("otw_hist_") + hist::seam_name(e.seam);
      h.labels.emplace_back("shard", std::to_string(s.shard));
      if (hist::seam_is_link(e.seam)) {
        h.labels.emplace_back("src", std::to_string(e.src));
        h.labels.emplace_back("dst", std::to_string(e.dst));
      }
      h.count = e.hist.count;
      h.sum = static_cast<double>(e.hist.sum);
      std::size_t top = 0;
      for (std::size_t i = 0; i < hist::kNumBuckets; ++i) {
        if (e.hist.buckets[i] != 0) {
          top = i;
        }
      }
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= top; ++i) {
        cumulative += e.hist.buckets[i];
        h.buckets.emplace_back(
            static_cast<double>(hist::bucket_upper_bound(i)), cumulative);
      }
      snapshot.histograms.push_back(std::move(h));
    }
  }
  return snapshot;
}

void write_live_json(std::ostream& os, const std::vector<LiveSnapshot>& shards,
                     const std::vector<std::pair<HealthRule, std::uint32_t>>& active,
                     const std::vector<HealthEvent>& recent_events,
                     std::uint64_t now_ns) {
  std::uint64_t cluster_gvt = kTicksInfinity;
  for (const LiveSnapshot& s : shards) {
    if (s.gvt_ticks != kTicksInfinity &&
        (cluster_gvt == kTicksInfinity || s.gvt_ticks < cluster_gvt)) {
      cluster_gvt = s.gvt_ticks;
    }
  }
  os << "{\"wall_ns\":" << now_ns << ",\"num_shards\":" << shards.size()
     << ",\"gvt_ticks\":";
  append_ticks(os, cluster_gvt);
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const LiveSnapshot& s = shards[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"shard\":" << s.shard << ",\"wall_ns\":" << s.wall_ns
       << ",\"num_lps\":" << s.lps.size() << ",\"gvt_ticks\":";
    append_ticks(os, s.gvt_ticks);
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      os << ",\"" << kCounterNames[c]
         << "\":" << s.total(static_cast<Counter>(c));
    }
    os << ",\"memory_bytes\":" << s.sum_gauge(Gauge::MemoryBytes)
       << ",\"memory_budget_bytes\":" << s.sum_gauge(Gauge::MemoryBudgetBytes)
       << ",\"pressure_state_max\":" << s.max_gauge(Gauge::PressureState)
       << ",\"last_rollback_depth_max\":"
       << s.max_gauge(Gauge::LastRollbackDepth)
       << ",\"mailbox_occupancy\":"
       << s.engine_gauge(EngineGauge::MailboxOccupancy)
       << ",\"workers_parked\":" << s.engine_gauge(EngineGauge::WorkersParked)
       << ",\"hists\":[";
    for (std::size_t h = 0; h < s.hists.size(); ++h) {
      const hist::Entry& e = s.hists[h];
      if (h > 0) {
        os << ",";
      }
      os << "{\"seam\":\"" << hist::seam_name(e.seam) << "\"";
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
  os << "],\"watchdog\":{\"active\":[";
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << "{\"rule\":\"" << health_rule_name(active[i].first)
       << "\",\"shard\":" << active[i].second << "}";
  }
  os << "],\"events\":[";
  for (std::size_t i = 0; i < recent_events.size(); ++i) {
    const HealthEvent& e = recent_events[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"rule\":\"" << health_rule_name(e.rule) << "\",\"state\":\""
       << (e.raised ? "raised" : "cleared") << "\",\"shard\":" << e.shard
       << ",\"wall_ns\":" << e.wall_ns << ",\"detail\":\""
       << json_escape(e.detail) << "\"}";
  }
  os << "]}}";
}

}  // namespace otw::obs::live
