// Shared POD wire codec for the kernel's cross-process payloads: the shard
// harvest blobs (distributed.cpp) and the MIGRATE frame body
// (lp.cpp/object_runtime.cpp) encode with the same helpers, so the two
// paths cannot drift. Fork guarantees one ABI per run, so trivially
// copyable types (every stats struct included) ship as raw bytes.
// Include-path private to src/timewarp; not installed.
#pragma once

#include <type_traits>
#include <vector>

#include "otw/platform/wire.hpp"

namespace otw::tw::detail {

template <typename T>
void write_pod(platform::WireWriter& w, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.bytes(&value, sizeof value);
}

template <typename T>
[[nodiscard]] T read_pod(platform::WireReader& r) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  r.bytes(&value, sizeof value);
  return value;
}

template <typename T>
void write_pod_vector(platform::WireWriter& w, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.u32(static_cast<std::uint32_t>(values.size()));
  w.bytes(values.data(), values.size() * sizeof(T));
}

template <typename T>
[[nodiscard]] std::vector<T> read_pod_vector(platform::WireReader& r) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> values(r.u32());
  r.bytes(values.data(), values.size() * sizeof(T));
  return values;
}

}  // namespace otw::tw::detail
