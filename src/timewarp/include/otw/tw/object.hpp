// The application programming interface: simulation objects and their state.
//
// Mirrors the WARPED model: all Time Warp machinery (state saving, rollback,
// cancellation, GVT) is invisible to the application. An object implements
// process_event(); the kernel owns the object's state, checkpoints it
// periodically and restores it on rollback. Everything an application wants
// preserved across rollbacks — including its RNG — must live inside the
// state object.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "otw/tw/event.hpp"
#include "otw/util/assert.hpp"

namespace otw::tw {

/// Checkpointable object state. byte_size() feeds the state-saving cost
/// model; digest() lets tests compare committed results across kernels.
/// raw_bytes()/mutable_raw_bytes() expose the flat byte view that
/// checkpointing needs: both checkpoint stores save and restore byte images
/// (copy and delta saves alike), as LP migration and snapshots ship them. A
/// state that returns nullptr here cannot run under the Time Warp kernel.
class ObjectState {
 public:
  virtual ~ObjectState() = default;
  [[nodiscard]] virtual std::unique_ptr<ObjectState> clone() const = 0;
  [[nodiscard]] virtual std::size_t byte_size() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t digest() const noexcept = 0;
  [[nodiscard]] virtual const std::byte* raw_bytes() const noexcept {
    return nullptr;
  }
  [[nodiscard]] virtual std::byte* mutable_raw_bytes() noexcept { return nullptr; }

  /// Overwrites this state with the value of `other` WITHOUT allocating.
  /// Returns false when the two states are not layout-compatible; the
  /// caller must fall back to other.clone(). The default covers flat states
  /// (both expose raw_bytes) of equal size via memcpy; states with
  /// out-of-line resources may override.
  [[nodiscard]] virtual bool assign_from(const ObjectState& other) noexcept {
    if (byte_size() != other.byte_size()) {
      return false;
    }
    std::byte* dst = mutable_raw_bytes();
    const std::byte* src = other.raw_bytes();
    if (dst == nullptr || src == nullptr) {
      return false;
    }
    std::memcpy(dst, src, byte_size());
    return true;
  }
};

namespace detail {
/// FNV-1a over a trivially copyable value.
inline std::uint64_t fnv1a(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x00000100000001B3ULL;
  }
  return hash;
}
}  // namespace detail

/// Ready-made state wrapper for trivially copyable application state.
template <typename T>
class PodState final : public ObjectState {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodState requires trivially copyable state");

 public:
  PodState() = default;
  explicit PodState(const T& value) : value_(value) {}

  [[nodiscard]] std::unique_ptr<ObjectState> clone() const override {
    return std::make_unique<PodState>(value_);
  }
  [[nodiscard]] std::size_t byte_size() const noexcept override { return sizeof(T); }
  [[nodiscard]] std::uint64_t digest() const noexcept override {
    return detail::fnv1a(&value_, sizeof(T));
  }
  [[nodiscard]] const std::byte* raw_bytes() const noexcept override {
    return reinterpret_cast<const std::byte*>(&value_);
  }
  [[nodiscard]] std::byte* mutable_raw_bytes() noexcept override {
    return reinterpret_cast<std::byte*>(&value_);
  }

  T& value() noexcept { return value_; }
  const T& value() const noexcept { return value_; }

 private:
  T value_{};
};

/// Kernel services available to an object while it processes an event.
class ObjectContext {
 public:
  virtual ~ObjectContext() = default;

  /// This object's id.
  [[nodiscard]] virtual ObjectId self() const noexcept = 0;

  /// Local virtual time: the receive time of the event being processed.
  [[nodiscard]] virtual VirtualTime now() const noexcept = 0;

  /// The object's current (rollbackable) state.
  [[nodiscard]] virtual ObjectState& state() noexcept = 0;

  /// Typed access to PodState<T>-backed state.
  template <typename T>
  T& state_as() noexcept {
    return static_cast<PodState<T>&>(state()).value();
  }

  /// Schedules an event for `dest` at now() + delay. delay must be >= 1
  /// tick: zero-delay messages would make the committed order depend on the
  /// execution interleaving.
  virtual void send(ObjectId dest, VirtualTime::rep delay, const Payload& payload) = 0;

  template <typename T>
  void send_pod(ObjectId dest, VirtualTime::rep delay, const T& pod) {
    send(dest, delay, Payload::from(pod));
  }

  /// Charges `ns` nanoseconds of modeled computation for this event (the
  /// application's event granularity, e.g. a disk-seek calculation).
  virtual void charge(std::uint64_t ns) noexcept = 0;
};

/// A simulation object (the paper's physical process). Implementations must
/// be deterministic functions of (state, event): no hidden mutable members —
/// anything mutable belongs in the ObjectState so rollback restores it.
class SimulationObject {
 public:
  virtual ~SimulationObject() = default;

  /// Fresh state at virtual time zero.
  [[nodiscard]] virtual std::unique_ptr<ObjectState> initial_state() const = 0;

  /// Called once before the simulation starts; schedule initial events here.
  virtual void initialize(ObjectContext& ctx) { static_cast<void>(ctx); }

  /// Handles one event. All observable effects must go through ctx.
  virtual void process_event(ObjectContext& ctx, const Event& event) = 0;

  /// Called once after termination with the final committed state.
  virtual void finalize(ObjectContext& ctx) { static_cast<void>(ctx); }

  /// Human-readable kind tag for statistics ("disk", "fork", "cache", ...).
  [[nodiscard]] virtual const char* kind() const noexcept { return "object"; }
};

}  // namespace otw::tw
