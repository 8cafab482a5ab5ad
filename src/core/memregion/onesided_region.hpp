// OneSidedMemoryRegion (paper Sec. III-D2).
//
// Allocated by a single PE from its internal RDMA heap — no collective call.
// put/get always target the constructing (origin) PE.  Handles can travel in
// AMs; lifetime uses *weighted reference counting* managed at the origin:
// the origin's registry holds the total weight, every proxy holds a share,
// serialization splits the sender's share in half for the message, and a
// dying proxy returns its weight (an AM when remote).  Weighted counting
// makes reference transfer commutative, so no increment/decrement ordering
// hazards exist even with aggregated, out-of-order message delivery.
#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/error.hpp"
#include "core/am/am_engine.hpp"
#include "core/scheduler/future.hpp"
#include "core/world/world.hpp"

namespace lamellar {

namespace detail {

inline constexpr std::uint64_t kOneSidedInitialWeight = 1ULL << 48;

/// One per-PE proxy per adopted handle lineage; local copies share it.
struct OneSidedProxy {
  World* world = nullptr;
  pe_id origin = 0;
  std::uint64_t key = 0;
  std::size_t offset = 0;
  std::size_t len_bytes = 0;
  std::mutex weight_mu;
  std::uint64_t weight = 0;

  ~OneSidedProxy();

  /// Split half of this proxy's weight off for a serialized handle.
  std::uint64_t split_weight() {
    std::lock_guard lock(weight_mu);
    if (weight < 2) {
      throw Error(
          "OneSidedMemoryRegion: reference weight exhausted (too many "
          "serialization generations)");
    }
    const std::uint64_t half = weight / 2;
    weight -= half;
    return half;
  }
};

/// Internal AM returning weight to the origin's registry.
struct OneSidedReleaseAm {
  static constexpr bool kRuntimeInternal = true;
  std::uint64_t key = 0;
  std::uint64_t weight = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(key, weight);
  }
  void exec(AmContext& ctx);
};

}  // namespace detail

template <typename T>
class OneSidedMemoryRegion {
  static_assert(std::is_trivially_copyable_v<T>,
                "memory regions hold raw bitstream data");

 public:
  OneSidedMemoryRegion() = default;

  /// One-sided allocation on the calling PE (no coordination).  Throws
  /// BoundsError when `len` elements do not fit in a size_t of bytes.
  static OneSidedMemoryRegion create(World& world, std::size_t len) {
    if (len > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw BoundsError("OneSidedMemoryRegion::create: " +
                        std::to_string(len) +
                        " elements overflow the byte size");
    }
    const std::size_t bytes = len * sizeof(T);
    const std::size_t offset = world.lamellae().alloc_onesided(
        bytes == 0 ? 1 : bytes, alignof(std::max_align_t));
    const std::uint64_t key = world.onesided_registry().install_weighted(
        offset, detail::kOneSidedInitialWeight);
    auto proxy = std::make_shared<detail::OneSidedProxy>();
    proxy->world = &world;
    proxy->origin = world.my_pe();
    proxy->key = key;
    proxy->offset = offset;
    proxy->len_bytes = bytes;
    proxy->weight = detail::kOneSidedInitialWeight;
    OneSidedMemoryRegion region;
    region.proxy_ = std::move(proxy);
    return region;
  }

  [[nodiscard]] bool valid() const { return proxy_ != nullptr; }
  [[nodiscard]] std::size_t len() const {
    return proxy_->len_bytes / sizeof(T);
  }
  [[nodiscard]] pe_id origin() const { return proxy_->origin; }

  /// Write `src` into the origin PE's region at element `index`.  UNSAFE.
  void unsafe_put(std::size_t index, std::span<const T> src) {
    check(index, src.size());
    proxy_->world->lamellae().put(proxy_->origin,
                                  proxy_->offset + index * sizeof(T),
                                  std::as_bytes(src));
  }

  Future<Unit> unsafe_put_nb(std::size_t index, std::span<const T> src) {
    unsafe_put(index, src);
    return ready_future(Unit{});
  }

  /// Read from the origin PE's region at `index` into `dst`.  UNSAFE.
  void unsafe_get(std::size_t index, std::span<T> dst) {
    check(index, dst.size());
    proxy_->world->lamellae().get(proxy_->origin,
                                  proxy_->offset + index * sizeof(T),
                                  std::as_writable_bytes(dst));
  }

  Future<Unit> unsafe_get_nb(std::size_t index, std::span<T> dst) {
    unsafe_get(index, dst);
    return ready_future(Unit{});
  }

  /// Local slice — valid only on the origin PE.  UNSAFE.
  [[nodiscard]] std::span<T> unsafe_local_slice() {
    if (proxy_->world->my_pe() != proxy_->origin) {
      throw Error("OneSidedMemoryRegion: local slice on non-origin PE");
    }
    return {
        reinterpret_cast<T*>(proxy_->world->lamellae().base() +
                             proxy_->offset),
        len()};
  }

  [[nodiscard]] std::size_t arena_offset() const { return proxy_->offset; }

  /// Serialize: carry half the proxy's weight with the message; the
  /// receiver's proxy adopts it.
  template <class Archive>
  void serialize(Archive& ar) {
    if constexpr (Archive::is_writing) {
      if (proxy_ == nullptr) {
        throw Error("OneSidedMemoryRegion: serializing empty handle");
      }
      std::uint64_t carried = proxy_->split_weight();
      std::uint64_t len_bytes = proxy_->len_bytes;
      std::uint64_t offset = proxy_->offset;
      std::uint64_t origin = proxy_->origin;
      ar(origin, proxy_->key, offset, len_bytes, carried);
    } else {
      std::uint64_t origin = 0, key = 0, offset = 0, len_bytes = 0,
                    carried = 0;
      ar(origin, key, offset, len_bytes, carried);
      World* w = current_world();
      if (w == nullptr) {
        throw Error("OneSidedMemoryRegion deserialized outside runtime");
      }
      auto proxy = std::make_shared<detail::OneSidedProxy>();
      proxy->world = w;
      proxy->origin = static_cast<pe_id>(origin);
      proxy->key = key;
      proxy->offset = static_cast<std::size_t>(offset);
      proxy->len_bytes = static_cast<std::size_t>(len_bytes);
      proxy->weight = carried;
      proxy_ = std::move(proxy);
    }
  }

 private:
  /// Elements [index, index + n) must lie in the region; counted in
  /// elements and without `index + n`, so no operand can wrap.
  void check(std::size_t index, std::size_t n) const {
    if (proxy_ == nullptr) throw Error("OneSidedMemoryRegion: empty handle");
    const std::size_t len = proxy_->len_bytes / sizeof(T);
    if (n > len || index > len - n) {
      throw_bounds("OneSidedMemoryRegion access", index, len);
    }
  }

  std::shared_ptr<detail::OneSidedProxy> proxy_;
};

}  // namespace lamellar
