// Latency attribution histograms (otw::obs::hist): fixed-size, lock-free
// log2-bucket histograms that hot paths record into while a run is in
// flight. Bucket 0 holds value 0 and bucket i counts values in
// [2^(i-1), 2^i). The cells are relaxed atomics: a record() is two relaxed
// fetch_adds plus a sum accumulate, safe from any thread, and a scrape
// thread can snapshot concurrently without a lock.
//
// Digest neutrality follows the same argument as obs::live: recording
// never allocates, never takes a lock and never feeds back into kernel
// control flow, so enabling the attribution plane cannot perturb committed
// results. With OTW_OBS_LIVE=0 the storage is never allocated and every
// record site compiles down to a null-pointer branch.
//
// Seams (one histogram per seam per shard, link seams keyed (src, dst)):
//   WireEncode     ns to serialize one frame payload (sender side)
//   WireDecode     ns to deserialize one frame payload (receiver side)
//   LinkLatency    ns from send-stamp to decode per (src, dst) shard link,
//                  measured on the coordinator-aligned clock
//   RelayResidency ns from send-stamp to coordinator relay per (src, dst)
//   GvtRound       ns from GVT epoch start to completion (initiating LP)
//   MailboxDwell   ns a message sat in a mailbox/inbox before poll()
//   RollbackDepth  events undone by one rollback (unitless, not ns)
//   StealLatency   ns one successful steal sweep took (threaded scheduler)
//   MigrationFreeze   ns to freeze + serialize one LP for migration (source)
//   MigrationRestore  ns to deserialize + revive one migrated LP (destination)
//   SnapshotEncode    ns to serialize one LP into a snapshot cut (worker)
//   RestoreReplay     ns to revive one LP from a snapshot blob (recovery)
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#ifndef OTW_OBS_LIVE
#define OTW_OBS_LIVE 1
#endif

namespace otw::obs::hist {

/// Instrumented hot seams. Documented in DESIGN.md section 10
/// (check_docs.py guards against drift).
enum class Seam : std::uint8_t {
  WireEncode,
  WireDecode,
  LinkLatency,
  RelayResidency,
  GvtRound,
  MailboxDwell,
  RollbackDepth,
  StealLatency,
  MigrationFreeze,
  MigrationRestore,
  SnapshotEncode,
  RestoreReplay,
  kCount,
};

inline constexpr std::size_t kNumSeams = static_cast<std::size_t>(Seam::kCount);

/// Exposition name fragment, e.g. "link_latency_ns" (units baked into the
/// name so dashboards never have to guess; RollbackDepth is event-valued).
[[nodiscard]] const char* seam_name(Seam seam) noexcept;

/// True for seams recorded per (src, dst) shard link.
[[nodiscard]] constexpr bool seam_is_link(Seam seam) noexcept {
  return seam == Seam::LinkLatency || seam == Seam::RelayResidency;
}

/// Bucket count: value 0 plus [2^(i-1), 2^i) for i in [1, 40) covers
/// sub-nanosecond through ~9 minutes in ns; larger values clamp into the
/// last bucket (quantiles then report its upper bound, which is honest
/// about "at least this long").
inline constexpr std::size_t kNumBuckets = 40;

/// Bucket index for a value (shared by the atomic and plain histograms).
[[nodiscard]] std::size_t bucket_index(std::uint64_t value) noexcept;

/// Inclusive upper bound of bucket i: 0 for bucket 0, 2^i - 1 otherwise.
[[nodiscard]] std::uint64_t bucket_upper_bound(std::size_t i) noexcept;

/// Plain (non-atomic) copy of one histogram: what snapshots, wire codecs
/// and exposition operate on.
struct Snapshot {
  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  void add(std::uint64_t value) noexcept;
  void merge(const Snapshot& other) noexcept;
  /// Smallest bucket upper bound v such that >= q (in [0,1]) of the mass
  /// is <= v.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double q) const noexcept;
};

/// One labelled histogram in a snapshot/export: scalar seams carry
/// src = dst = 0, link seams the (src, dst) shard pair. `shard` is the
/// shard that recorded it (stamped at snapshot/merge time).
struct Entry {
  Seam seam = Seam::WireEncode;
  std::uint32_t shard = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  Snapshot hist;
};

/// Lock-free fixed-size log2 histogram. Writers do relaxed fetch_adds;
/// the snapshot reader does relaxed loads, so a concurrent snapshot may
/// be torn across cells (count from record n, a bucket from n-1) but
/// every cell is individually monotone — exactly what a Prometheus
/// histogram scrape tolerates.
class LatencyHistogram {
 public:
  void record(std::uint64_t value) noexcept {
#if OTW_OBS_LIVE
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
#else
    static_cast<void>(value);
#endif
  }

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot out;
#if OTW_OBS_LIVE
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    out.count = count_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
#endif
    return out;
  }

  /// Zeroes every cell. Only safe when no concurrent writer exists (used by
  /// a freshly fork()ed worker to shed the parent's recorded values).
  void reset() noexcept {
#if OTW_OBS_LIVE
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
#endif
  }

 private:
#if OTW_OBS_LIVE
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
#endif
};

/// One shard's full set of attribution histograms: one per scalar seam
/// plus a (num_shards x num_shards) matrix per link seam. Allocated once
/// (pre-fork in the distributed engine, so every shard inherits the same
/// layout and writes its own copy); recording is wait-free.
class Bank {
 public:
  explicit Bank(std::uint32_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {
#if OTW_OBS_LIVE
    links_ = std::make_unique<LatencyHistogram[]>(
        kNumLinkSeams * static_cast<std::size_t>(num_shards_) * num_shards_);
#endif
  }

  Bank(const Bank&) = delete;
  Bank& operator=(const Bank&) = delete;

  [[nodiscard]] std::uint32_t num_shards() const noexcept { return num_shards_; }

  /// Records into a scalar seam (not LinkLatency/RelayResidency).
  void record(Seam seam, std::uint64_t value) noexcept {
#if OTW_OBS_LIVE
    scalars_[static_cast<std::size_t>(seam)].record(value);
#else
    static_cast<void>(seam);
    static_cast<void>(value);
#endif
  }

  /// Records into a link seam; out-of-range shard ids are dropped (can
  /// only happen on a malformed frame, which the transport rejects later).
  void record_link(Seam seam, std::uint32_t src, std::uint32_t dst,
                   std::uint64_t value) noexcept {
#if OTW_OBS_LIVE
    if (src >= num_shards_ || dst >= num_shards_) {
      return;
    }
    links_[link_slot(seam, src, dst)].record(value);
#else
    static_cast<void>(seam);
    static_cast<void>(src);
    static_cast<void>(dst);
    static_cast<void>(value);
#endif
  }

  /// Non-empty histograms as labelled entries, `shard` stamped through.
  [[nodiscard]] std::vector<Entry> snapshot(std::uint32_t shard) const {
    std::vector<Entry> out;
#if OTW_OBS_LIVE
    for (std::size_t s = 0; s < kNumSeams; ++s) {
      const Seam seam = static_cast<Seam>(s);
      if (seam_is_link(seam)) {
        continue;
      }
      Snapshot snap = scalars_[s].snapshot();
      if (!snap.empty()) {
        out.push_back(Entry{seam, shard, 0, 0, snap});
      }
    }
    for (const Seam seam : {Seam::LinkLatency, Seam::RelayResidency}) {
      for (std::uint32_t src = 0; src < num_shards_; ++src) {
        for (std::uint32_t dst = 0; dst < num_shards_; ++dst) {
          Snapshot snap = links_[link_slot(seam, src, dst)].snapshot();
          if (!snap.empty()) {
            out.push_back(Entry{seam, shard, src, dst, snap});
          }
        }
      }
    }
#else
    static_cast<void>(shard);
#endif
    return out;
  }

  /// Zeroes every histogram in the bank. A replacement worker fork()ed
  /// mid-run inherits the coordinator's bank — which by then holds
  /// coordinator-side entries (relay residency) — and must start clean so
  /// its RESULT reports only its own incarnation. Single-writer only.
  void reset() noexcept {
#if OTW_OBS_LIVE
    for (auto& hist : scalars_) {
      hist.reset();
    }
    const std::size_t n_links =
        kNumLinkSeams * static_cast<std::size_t>(num_shards_) * num_shards_;
    for (std::size_t i = 0; i < n_links; ++i) {
      links_[i].reset();
    }
#endif
  }

 private:
  static constexpr std::size_t kNumLinkSeams = 2;

#if OTW_OBS_LIVE
  [[nodiscard]] std::size_t link_slot(Seam seam, std::uint32_t src,
                                      std::uint32_t dst) const noexcept {
    const std::size_t plane = seam == Seam::LinkLatency ? 0 : 1;
    return (plane * num_shards_ + src) * num_shards_ + dst;
  }

  std::array<LatencyHistogram, kNumSeams> scalars_{};
  std::unique_ptr<LatencyHistogram[]> links_;
#endif
  std::uint32_t num_shards_;
};

}  // namespace otw::obs::hist
