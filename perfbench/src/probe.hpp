// Outside-in instrumentation for the repo benchmark.
//
// Every model object is wrapped in a forwarding TimedObject before the
// model reaches tw::run / tw::run_sequential, so the benchmark can observe
// the application layer without touching the library:
//
//  * the wall time of the engine's first process_event call (setup_s);
//  * in a traced run, the wall time of every process_event call
//    (apps.execute_ns_per_ev) and a sampled span per 4096 calls;
//  * in the capture pass (one sequential run), a sample of real events and
//    the mean pending-event population, which size the layer micro-probes;
//  * each shard child's peak resident memory, read when its objects are
//    finalized (peak_rss_mb on the distributed engine).
//
// The counters live in one MAP_SHARED anonymous mapping created before the
// first run, so the distributed engine's forked shard processes write into
// the same block the benchmark process reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "otw/tw/kernel.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names; the benchmark records one span per call into a layer.
enum class SpanName : std::uint8_t {
  Iteration,
  ModelBuild,
  Sequential,
  TwRun,
  ProcessEvent,
  ProbePendingSet,
  ProbeCodec,
  ProbeStateSave,
  kCount,
};

[[nodiscard]] const char* to_string(SpanName name) noexcept;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int32_t pid = 0;
  SpanName name = SpanName::Iteration;
};

/// Mode bits of SharedProbe::mode.
inline constexpr std::uint32_t kModeTime = 1;     ///< time process_event
inline constexpr std::uint32_t kModeCapture = 2;  ///< sample events + population

inline constexpr std::size_t kExecSlots = 64;
inline constexpr std::size_t kChildSlots = 16;
inline constexpr std::size_t kSpanCapacity = 1u << 15;
inline constexpr std::uint64_t kSpanSampleEvery = 4096;

struct alignas(64) ExecSlot {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

struct ChildMemory {
  std::atomic<std::int32_t> pid{0};
  std::atomic<std::uint64_t> hwm_kb{0};
};

/// The block shared with forked shard processes.
struct SharedProbe {
  std::atomic<std::uint64_t> first_event_ns{0};
  std::atomic<std::uint32_t> mode{0};
  std::atomic<std::int32_t> span_parent{-1};
  std::atomic<std::uint32_t> span_count{0};
  std::atomic<std::uint32_t> next_exec_slot{0};
  std::int32_t parent_pid = 0;
  ExecSlot exec[kExecSlots];
  ChildMemory children[kChildSlots];
  Span spans[kSpanCapacity];
};

/// The process-wide block (mapped on first use; call before any run).
[[nodiscard]] SharedProbe& shared_probe();

/// What the capture pass (one sequential run) observed. Parent-only.
struct CaptureStats {
  std::uint64_t sends = 0;
  std::uint64_t processed = 0;
  double pending_sum = 0.0;  ///< sum over events of (sends - processed)
  std::vector<otw::tw::Event> samples;

  [[nodiscard]] double mean_pending() const noexcept {
    return processed == 0 ? 0.0 : pending_sum / static_cast<double>(processed);
  }
};

[[nodiscard]] CaptureStats& capture_stats();

/// Copy of `model` whose factories wrap each object in a TimedObject.
[[nodiscard]] otw::tw::Model wrap_model(const otw::tw::Model& model);

/// Totals of the exec slots (apps layer time and call count).
struct ExecTotals {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};
[[nodiscard]] ExecTotals exec_totals();
void reset_exec();

/// Opens a span in the shared ring; returns its index (-1 when full).
std::int32_t span_begin(SpanName name, std::int32_t parent);
void span_end(std::int32_t index);

/// RAII span around one call into a layer. No-op unless `enabled`.
class ScopedSpan {
 public:
  ScopedSpan(bool enabled, SpanName name, std::int32_t parent = -1)
      : index_(enabled ? span_begin(name, parent) : -1) {}
  ~ScopedSpan() { span_end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  std::int32_t index_;
};

/// Writes every recorded span as one JSON object per line. Returns false
/// when the file cannot be written.
bool write_spans(const std::string& path);

/// One line per span name: count, total and self time (duration minus the
/// part covered by child spans; sampled process_event spans excluded).
[[nodiscard]] std::vector<std::string> span_summary();

// --- resident memory ---

/// Releases freed heap to the OS and restarts this process's VmHWM, and
/// forgets the shard children recorded by the previous run.
void reset_peak_rss();

/// This process's VmHWM plus every shard child's recorded VmHWM, in MB.
[[nodiscard]] double peak_rss_mb();

/// False when the kernel refused to restart VmHWM (the peak is then the
/// process lifetime's).
[[nodiscard]] bool peak_rss_resettable();

}  // namespace perfbench
