// SharedMemoryRegion — the low-level collective RDMA region
// (paper Sec. III-D1).
//
// A thin wrapper around an RDMA memory region collectively allocated on
// every PE of a team: the same number of elements on each PE, addressed by
// (pe, index).  This is the *unsafe tier*: there is no access control —
// remote PEs can write while you read — so data accessors are spelled
// `unsafe_*` (the C++ rendering of the Rust `unsafe` fences the paper
// requires for these APIs).  SharedMemoryRegions are specialized Darcs: they
// can travel inside AMs and stay alive until every PE drops its reference.
#pragma once

#include <limits>
#include <span>
#include <string>

#include "common/error.hpp"
#include "core/darc/darc.hpp"
#include "core/scheduler/future.hpp"
#include "core/world/world.hpp"

namespace lamellar {

namespace detail {

/// Per-PE state behind the Darc.  Destruction (run on every PE by the Darc
/// destroy protocol) releases this PE's share of the collective allocation.
struct SharedRegionState {
  World* world = nullptr;
  Team team;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  std::size_t len = 0;  ///< elements per PE

  SharedRegionState() = default;
  SharedRegionState(World* w, Team t, std::size_t off, std::size_t nbytes,
                    std::size_t n)
      : world(w), team(std::move(t)), offset(off), bytes(nbytes), len(n) {}
  SharedRegionState(const SharedRegionState&) = delete;
  SharedRegionState& operator=(const SharedRegionState&) = delete;
  SharedRegionState(SharedRegionState&& o) noexcept
      : world(o.world),
        team(std::move(o.team)),
        offset(o.offset),
        bytes(o.bytes),
        len(o.len) {
    o.world = nullptr;
  }
  SharedRegionState& operator=(SharedRegionState&&) = delete;
  ~SharedRegionState() {
    if (world != nullptr) {
      world->lamellae().free_symmetric_group(offset, team.size());
    }
  }

  template <class Archive>
  void serialize(Archive&) {
    throw Error("SharedRegionState is transferred via its Darc id only");
  }
};

}  // namespace detail

template <typename T>
class SharedMemoryRegion {
  static_assert(std::is_trivially_copyable_v<T>,
                "memory regions hold raw bitstream data");

 public:
  SharedMemoryRegion() = default;

  /// Collective on the world: allocate `len` elements on every PE.
  /// Blocks only the calling thread (other tasks keep running).
  static SharedMemoryRegion create(World& world, std::size_t len) {
    return create_on(world, world.team(), len);
  }

  /// Collective on `team` (member PEs only).  Throws BoundsError when
  /// `len` elements do not fit in a size_t of bytes.
  static SharedMemoryRegion create_on(World& world, const Team& team,
                                      std::size_t len) {
    if (len > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw BoundsError("SharedMemoryRegion::create: " + std::to_string(len) +
                        " elements overflow the byte size");
    }
    const std::size_t bytes = len * sizeof(T);
    const std::uint64_t key = team.next_object_id(world.my_pe());
    const std::size_t offset = world.lamellae().alloc_symmetric_group(
        key, team.size(), bytes == 0 ? 1 : bytes, alignof(std::max_align_t));
    SharedMemoryRegion region;
    region.state_ = world.new_darc_on(
        team,
        detail::SharedRegionState(&world, team, offset, bytes, len));
    return region;
  }

  [[nodiscard]] bool valid() const { return state_.valid(); }
  [[nodiscard]] std::size_t len() const { return state_->len; }
  [[nodiscard]] const Team& team() const { return state_->team; }

  // ---- unsafe data plane -------------------------------------------------

  /// Write `src` into `dst_rank`'s copy starting at element `index`.
  /// UNSAFE: no coordination with readers/writers on the target.
  void unsafe_put(std::size_t dst_rank, std::size_t index,
                  std::span<const T> src) {
    check(index, src.size());
    state_->world->lamellae().put(
        state_->team.world_pe(dst_rank), state_->offset + index * sizeof(T),
        std::as_bytes(src));
  }

  /// Non-blocking put; the future is complete when the transfer is done
  /// (our fabric completes transfers eagerly, matching ROFI's synchronous
  /// shared-memory behaviour, but callers must still treat this as async).
  Future<Unit> unsafe_put_nb(std::size_t dst_rank, std::size_t index,
                             std::span<const T> src) {
    unsafe_put(dst_rank, index, src);
    return ready_future(Unit{});
  }

  /// Read from `src_rank`'s copy starting at `index` into `dst`.  UNSAFE.
  void unsafe_get(std::size_t src_rank, std::size_t index, std::span<T> dst) {
    check(index, dst.size());
    state_->world->lamellae().get(
        state_->team.world_pe(src_rank), state_->offset + index * sizeof(T),
        std::as_writable_bytes(dst));
  }

  Future<Unit> unsafe_get_nb(std::size_t src_rank, std::size_t index,
                             std::span<T> dst) {
    unsafe_get(src_rank, index, dst);
    return ready_future(Unit{});
  }

  /// Direct access to this PE's local data.  UNSAFE: remote PEs may write
  /// concurrently through unsafe_put.
  [[nodiscard]] std::span<T> unsafe_local_slice() {
    return {reinterpret_cast<T*>(state_->world->lamellae().base() +
                                 state_->offset),
            state_->len};
  }

  [[nodiscard]] std::span<const T> unsafe_local_slice() const {
    return {reinterpret_cast<const T*>(state_->world->lamellae().base() +
                                       state_->offset),
            state_->len};
  }

  /// Byte offset of this region within the PE arenas (runtime internal).
  [[nodiscard]] std::size_t arena_offset() const { return state_->offset; }

  /// Regions are Darcs: serializing one inside an AM transfers a tracked
  /// reference.
  template <class Archive>
  void serialize(Archive& ar) {
    ar(state_);
  }

 private:
  /// Elements [index, index + n) must lie in the region; counted in
  /// elements and without `index + n`, so no operand can wrap.
  void check(std::size_t index, std::size_t n) const {
    if (!state_.valid()) throw Error("SharedMemoryRegion: empty handle");
    if (n > state_->len || index > state_->len - n) {
      throw_bounds("SharedMemoryRegion access", index, state_->len);
    }
  }

  Darc<detail::SharedRegionState> state_;
};

}  // namespace lamellar
