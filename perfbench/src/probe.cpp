#include "probe.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <stdexcept>

namespace perfbench {

namespace tw = otw::tw;

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::Iteration: return "iteration";
    case SpanName::ModelBuild: return "apps.model_build";
    case SpanName::Sequential: return "timewarp.run_sequential";
    case SpanName::TwRun: return "timewarp.run";
    case SpanName::ProcessEvent: return "apps.process_event";
    case SpanName::ProbePendingSet: return "probe.pending_set";
    case SpanName::ProbeCodec: return "probe.event_codec";
    case SpanName::ProbeStateSave: return "probe.state_save";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

SharedProbe* g_probe = nullptr;
thread_local int tls_exec_slot = -1;

void forget_exec_slot_in_child() { tls_exec_slot = -1; }

SharedProbe& probe() {
  if (g_probe == nullptr) {
    void* mem = mmap(nullptr, sizeof(SharedProbe), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::runtime_error("mmap of the shared probe block failed");
    }
    g_probe = new (mem) SharedProbe();
    g_probe->parent_pid = static_cast<std::int32_t>(getpid());
    // A forked shard inherits the forking thread's slot; give it its own.
    pthread_atfork(nullptr, nullptr, forget_exec_slot_in_child);
  }
  return *g_probe;
}

ExecSlot& exec_slot(SharedProbe& p) {
  if (tls_exec_slot < 0) {
    tls_exec_slot = static_cast<int>(
        p.next_exec_slot.fetch_add(1, std::memory_order_relaxed) % kExecSlots);
  }
  return p.exec[tls_exec_slot];
}

/// One "Name:   <n> kB" field of /proc/self/status, or 0.
std::uint64_t status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kb = std::strtoull(line + len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Records this shard child's VmHWM (a no-op in the benchmark process).
void note_child_memory(SharedProbe& p) {
  const auto pid = static_cast<std::int32_t>(getpid());
  if (pid == p.parent_pid) {
    return;
  }
  const std::uint64_t kb = status_kb("VmHWM:");
  for (ChildMemory& child : p.children) {
    std::int32_t owner = child.pid.load(std::memory_order_relaxed);
    if (owner == 0 &&
        child.pid.compare_exchange_strong(owner, pid, std::memory_order_relaxed)) {
      owner = pid;
    }
    if (owner == pid) {
      if (kb > child.hwm_kb.load(std::memory_order_relaxed)) {
        child.hwm_kb.store(kb, std::memory_order_relaxed);
      }
      return;
    }
  }
}

void record_span(SharedProbe& p, SpanName name, std::uint64_t start,
                 std::uint64_t end, std::int32_t parent) {
  const std::uint32_t i = p.span_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kSpanCapacity) {
    return;
  }
  p.spans[i] = Span{start, end, parent, static_cast<std::int32_t>(getpid()), name};
}

/// Forwards every call and counts sends (capture pass only).
class CountingContext final : public tw::ObjectContext {
 public:
  CountingContext(tw::ObjectContext& inner, std::uint64_t& sends)
      : inner_(inner), sends_(sends) {}

  [[nodiscard]] tw::ObjectId self() const noexcept override { return inner_.self(); }
  [[nodiscard]] tw::VirtualTime now() const noexcept override { return inner_.now(); }
  [[nodiscard]] tw::ObjectState& state() noexcept override { return inner_.state(); }
  void send(tw::ObjectId dest, tw::VirtualTime::rep delay,
            const tw::Payload& payload) override {
    ++sends_;
    inner_.send(dest, delay, payload);
  }
  void charge(std::uint64_t ns) noexcept override { inner_.charge(ns); }

 private:
  tw::ObjectContext& inner_;
  std::uint64_t& sends_;
};

/// Forwarding wrapper around one model object.
class TimedObject final : public tw::SimulationObject {
 public:
  explicit TimedObject(std::unique_ptr<tw::SimulationObject> inner)
      : inner_(std::move(inner)), probe_(&probe()) {}

  [[nodiscard]] std::unique_ptr<tw::ObjectState> initial_state() const override {
    return inner_->initial_state();
  }

  void initialize(tw::ObjectContext& ctx) override {
    if ((probe_->mode.load(std::memory_order_relaxed) & kModeCapture) != 0) {
      CountingContext counting(ctx, capture_stats().sends);
      inner_->initialize(counting);
      return;
    }
    inner_->initialize(ctx);
  }

  void process_event(tw::ObjectContext& ctx, const tw::Event& event) override {
    SharedProbe& p = *probe_;
    if (p.first_event_ns.load(std::memory_order_relaxed) == 0) {
      std::uint64_t none = 0;
      p.first_event_ns.compare_exchange_strong(none, mono_ns(),
                                               std::memory_order_relaxed);
    }
    const std::uint32_t mode = p.mode.load(std::memory_order_relaxed);
    if (mode == 0) {
      inner_->process_event(ctx, event);
      return;
    }
    if ((mode & kModeCapture) != 0) {
      capture(ctx, event);
      return;
    }
    const std::uint64_t start = mono_ns();
    inner_->process_event(ctx, event);
    const std::uint64_t end = mono_ns();
    ExecSlot& slot = exec_slot(p);
    slot.ns.fetch_add(end - start, std::memory_order_relaxed);
    if ((slot.calls.fetch_add(1, std::memory_order_relaxed) + 1) % kSpanSampleEvery ==
        0) {
      record_span(p, SpanName::ProcessEvent, start, end,
                  p.span_parent.load(std::memory_order_relaxed));
    }
  }

  void finalize(tw::ObjectContext& ctx) override {
    inner_->finalize(ctx);
    note_child_memory(*probe_);
  }

  [[nodiscard]] const char* kind() const noexcept override { return inner_->kind(); }

 private:
  void capture(tw::ObjectContext& ctx, const tw::Event& event) {
    CaptureStats& c = capture_stats();
    if (c.samples.size() < 512) {
      c.samples.push_back(event);
    }
    c.pending_sum += static_cast<double>(c.sends - c.processed);
    ++c.processed;
    CountingContext counting(ctx, c.sends);
    inner_->process_event(counting, event);
  }

  std::unique_ptr<tw::SimulationObject> inner_;
  SharedProbe* probe_;
};

bool g_rss_resettable = true;

}  // namespace

SharedProbe& shared_probe() { return probe(); }

CaptureStats& capture_stats() {
  static CaptureStats stats;
  return stats;
}

tw::Model wrap_model(const tw::Model& model) {
  tw::Model out;
  out.edges = model.edges;
  for (const tw::Model::ObjectSpec& spec : model.objects) {
    auto inner = spec.factory;
    out.add(spec.lp, [inner] { return std::make_unique<TimedObject>(inner()); });
  }
  return out;
}

ExecTotals exec_totals() {
  ExecTotals t;
  for (const ExecSlot& slot : probe().exec) {
    t.ns += slot.ns.load(std::memory_order_relaxed);
    t.calls += slot.calls.load(std::memory_order_relaxed);
  }
  return t;
}

void reset_exec() {
  for (ExecSlot& slot : probe().exec) {
    slot.ns.store(0, std::memory_order_relaxed);
    slot.calls.store(0, std::memory_order_relaxed);
  }
}

std::int32_t span_begin(SpanName name, std::int32_t parent) {
  SharedProbe& p = probe();
  const std::uint32_t i = p.span_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kSpanCapacity) {
    return -1;
  }
  p.spans[i] = Span{mono_ns(), 0, parent, static_cast<std::int32_t>(getpid()), name};
  return static_cast<std::int32_t>(i);
}

void span_end(std::int32_t index) {
  if (index >= 0) {
    probe().spans[index].end_ns = mono_ns();
  }
}

bool write_spans(const std::string& path) {
  const SharedProbe& p = probe();
  const std::uint32_t recorded = p.span_count.load(std::memory_order_relaxed);
  const std::uint32_t n = recorded < kSpanCapacity ? recorded : kSpanCapacity;
  std::ofstream out(path);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = p.spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << to_string(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"pid\":" << s.pid << "}\n";
  }
  out << "{\"recorded\":" << recorded << ",\"dropped\":" << (recorded - n) << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::string> span_summary() {
  const SharedProbe& p = probe();
  const std::uint32_t recorded = p.span_count.load(std::memory_order_relaxed);
  const std::uint32_t n = recorded < kSpanCapacity ? recorded : kSpanCapacity;
  std::vector<std::uint64_t> child_ns(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = p.spans[i];
    if (s.name != SpanName::ProcessEvent && s.parent >= 0 &&
        static_cast<std::uint32_t>(s.parent) < n) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Total {
    std::uint64_t count = 0, ns = 0, self_ns = 0;
  };
  std::vector<Total> totals(static_cast<std::size_t>(SpanName::kCount));
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = p.spans[i];
    const std::uint64_t ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    Total& t = totals[static_cast<std::size_t>(s.name)];
    ++t.count;
    t.ns += ns;
    t.self_ns += ns > child_ns[i] ? ns - child_ns[i] : 0;
  }
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < totals.size(); ++k) {
    if (totals[k].count == 0) {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof line, "span %-24s n=%llu total_ms=%.3f self_ms=%.3f",
                  to_string(static_cast<SpanName>(k)),
                  static_cast<unsigned long long>(totals[k].count),
                  static_cast<double>(totals[k].ns) / 1e6,
                  static_cast<double>(totals[k].self_ns) / 1e6);
    lines.emplace_back(line);
  }
  return lines;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  g_rss_resettable = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) {
    g_rss_resettable = (std::fclose(f) == 0) && g_rss_resettable;
  }
  for (ChildMemory& child : probe().children) {
    child.pid.store(0, std::memory_order_relaxed);
    child.hwm_kb.store(0, std::memory_order_relaxed);
  }
}

double peak_rss_mb() {
  std::uint64_t kb = status_kb("VmHWM:");
  for (const ChildMemory& child : probe().children) {
    kb += child.hwm_kb.load(std::memory_order_relaxed);
  }
  return static_cast<double>(kb) * 1024.0 / 1e6;
}

bool peak_rss_resettable() { return g_rss_resettable; }

}  // namespace perfbench
