#include "layer_probes.hpp"

#include <memory>

#include "otw/platform/wire.hpp"
#include "otw/tw/wire.hpp"
#include "otw/util/rng.hpp"
#include "probe.hpp"

namespace perfbench {

namespace tw = otw::tw;

namespace {

/// Minimum wall time each probe measures for.
constexpr std::uint64_t kProbeNs = 20'000'000;

tw::Event make_event(std::uint64_t recv, std::uint64_t n) {
  tw::Event e;
  e.recv_time = tw::VirtualTime{recv};
  e.sender = static_cast<tw::ObjectId>(n % 16);
  e.receiver = 0;
  e.seq = n;
  e.instance = n;
  return e;
}

std::uint64_t g_sink = 0;  // keeps decoded values observable

}  // namespace

PendingSetTiming probe_pending_set(tw::QueueKind kind, std::size_t population,
                                   std::uint64_t seed) {
  PendingSetTiming out;
  tw::SlabPool pool;
  otw::util::Xoshiro256 rng(seed);
  std::uint64_t n = 0;

  std::uint64_t busy_ns = 0;
  std::uint64_t events = 0;
  while (busy_ns < kProbeNs) {
    auto set = tw::make_pending_set(kind, &pool);
    const std::uint64_t start = mono_ns();
    for (std::size_t i = 0; i < population; ++i) {
      set->insert(make_event(rng.next_below(1'000'000), n++));
    }
    while (set->peek_next() != nullptr) {
      g_sink += set->advance().seq;
    }
    busy_ns += mono_ns() - start;
    events += population;
  }
  out.insert_advance_ns = static_cast<double>(busy_ns) / static_cast<double>(events);

  // Steady state: annihilate one unprocessed event and re-insert it, so the
  // population never drifts.
  std::vector<tw::Event> live;
  live.reserve(population);
  auto set = tw::make_pending_set(kind, &pool);
  for (std::size_t i = 0; i < population; ++i) {
    live.push_back(make_event(rng.next_below(1'000'000), n++));
    set->insert(live.back());
  }
  std::uint64_t ops = 0;
  const std::uint64_t start = mono_ns();
  std::uint64_t now = start;
  while (now - start < kProbeNs) {
    for (int k = 0; k < 64; ++k) {
      const tw::Event& victim = live[ops++ % population];
      set->erase_match(victim.make_anti());
      set->insert(victim);
    }
    now = mono_ns();
  }
  out.annihilate_ns = static_cast<double>(now - start) / static_cast<double>(ops);
  return out;
}

CodecTiming probe_event_codec(const std::vector<tw::Event>& samples,
                              std::size_t batch) {
  std::vector<tw::Event> events = samples;
  if (events.empty()) {
    events.push_back(make_event(1, 1));
  }
  batch = batch == 0 ? 1 : batch;
  const std::size_t frames_per_lap = 4096 / batch + 1;

  CodecTiming out;
  std::vector<std::uint8_t> buffer;
  std::size_t next = 0;
  std::uint64_t encoded = 0;
  const std::uint64_t enc_start = mono_ns();
  std::uint64_t now = enc_start;
  while (now - enc_start < kProbeNs) {
    for (std::size_t f = 0; f < frames_per_lap; ++f) {
      buffer.clear();
      otw::platform::WireWriter writer(buffer);
      for (std::size_t i = 0; i < batch; ++i) {
        tw::encode_event(writer, events[next]);
        next = (next + 1) % events.size();
      }
      encoded += batch;
    }
    now = mono_ns();
  }
  out.encode_ns = static_cast<double>(now - enc_start) / static_cast<double>(encoded);

  // One frame payload of `batch` events, decoded repeatedly.
  buffer.clear();
  otw::platform::WireWriter writer(buffer);
  for (std::size_t i = 0; i < batch; ++i) {
    tw::encode_event(writer, events[i % events.size()]);
  }
  std::uint64_t decoded = 0;
  const std::uint64_t dec_start = mono_ns();
  now = dec_start;
  while (now - dec_start < kProbeNs) {
    for (std::size_t f = 0; f < frames_per_lap; ++f) {
      otw::platform::WireReader reader(buffer.data(), buffer.size());
      for (std::size_t i = 0; i < batch; ++i) {
        g_sink += tw::decode_event(reader).seq;
      }
      decoded += batch;
    }
    now = mono_ns();
  }
  out.decode_ns = static_cast<double>(now - dec_start) / static_cast<double>(decoded);
  return out;
}

double probe_state_save(const tw::Model& model) {
  std::vector<std::unique_ptr<tw::ObjectState>> current;
  std::vector<std::unique_ptr<tw::ObjectState>> saved;
  for (const tw::Model::ObjectSpec& spec : model.objects) {
    current.push_back(spec.factory()->initial_state());
    saved.push_back(current.back()->clone());
  }
  std::uint64_t saves = 0;
  const std::uint64_t start = mono_ns();
  std::uint64_t now = start;
  while (now - start < kProbeNs) {
    for (int lap = 0; lap < 16; ++lap) {
      for (std::size_t i = 0; i < current.size(); ++i) {
        if (!saved[i]->assign_from(*current[i])) {
          saved[i] = current[i]->clone();
        }
      }
      saves += current.size();
    }
    now = mono_ns();
  }
  return static_cast<double>(now - start) / static_cast<double>(saves);
}

}  // namespace perfbench
