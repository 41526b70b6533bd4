// Layer micro-probes: the benchmark times single-layer operations directly
// through their public functions, sized from what the traced run observed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "otw/tw/kernel.hpp"
#include "otw/tw/pending_set.hpp"

namespace perfbench {

struct PendingSetTiming {
  double insert_advance_ns = 0.0;  ///< one insert plus one advance, per event
  double annihilate_ns = 0.0;      ///< one erase_match plus its re-insert
};

/// Times make_pending_set(kind) at `population` live events per object.
[[nodiscard]] PendingSetTiming probe_pending_set(otw::tw::QueueKind kind,
                                                 std::size_t population,
                                                 std::uint64_t seed);

struct CodecTiming {
  double encode_ns = 0.0;  ///< tw::encode_event, per event
  double decode_ns = 0.0;  ///< tw::decode_event, per event
};

/// Times the event wire codec on `samples` (real events of the workload),
/// `batch` events per frame payload.
[[nodiscard]] CodecTiming probe_event_codec(const std::vector<otw::tw::Event>& samples,
                                            std::size_t batch);

/// Times one state save (ObjectState::assign_from into a retired copy,
/// falling back to clone) across the model's objects, per save.
[[nodiscard]] double probe_state_save(const otw::tw::Model& model);

}  // namespace perfbench
