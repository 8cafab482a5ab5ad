// Internal active messages implementing LamellarArray remote operations.
//
// Safe array types "utilize AMs to emulate the behavior of direct RDMA
// operations, so all access to a remote PE's data is actually managed on
// that PE" (paper Sec. III-F2).  Each AM carries the array's Darc (so the
// state is guaranteed alive), pre-translated local indices, and the operands;
// the owner applies the batch under its type's safety regime and replies
// with fetch results.
//
// Wire discipline (DESIGN.md §9): index and operand payloads are span-based.
// The send side writes them with Serializer::put_elems / put_elems_gather
// straight into the active aggregation lane (operand gathers — strided
// slices, caller-position permutations — happen during that single write),
// and exec() borrows them back out of the inbox buffer with get_elems.  The
// AM types declare kBorrowsPayload, so the engine keeps the inbox buffer
// alive across deferred execution and wraps exec + reply in an ArenaFrame;
// fetch results are staged in the scratch arena and serialized as ValSpan.
//
// AMs are templates over the element type; LAMELLAR_REGISTER_ARRAY_ELEMENT
// instantiates and registers the full set for one element type (the standard
// numeric types are pre-registered in array_base.cpp).
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/scratch_arena.hpp"
#include "core/am/am_engine.hpp"
#include "core/array/array_state.hpp"

namespace lamellar {

/// Reply carrier for batched fetch results: a span over arena- or
/// slab-backed elements on the owner, a borrowed inbox view (or arena
/// fallback) on the requester.  Consumers must scatter the view before the
/// enclosing frame/buffer is released.
template <typename U>
struct ValSpan {
  std::span<const U> view;

  template <class Ar>
  void serialize(Ar& ar) {
    if constexpr (Ar::is_writing) {
      ar.put_elems(view);
    } else {
      view = ar.template get_elems<U>();
    }
  }
};

/// The one element-op AM: a chain of zero or more stages bound for one
/// destination PE (DESIGN.md §11) — the chunk's local slots, the chain's
/// stage table, and ONE concatenated operand region (stage_slots values per
/// stage, per-element operands gathered by caller position straight into
/// the lane).  Eager ops send one-stage chains, loads empty ones.  exec()
/// borrows everything from the inbox and applies the composed kernel in a
/// single pass; the reply carries the pre- or post-chain values `fetch`
/// asks for.
template <typename T>
struct ArrayFusedAm {
  static constexpr bool kBorrowsPayload = true;

  Darc<ArrayState<T>> state;
  FetchMode fetch = FetchMode::kNone;
  std::span<const std::uint64_t> locals;
  std::span<const FusedStage> stages;
  std::span<const T> ops;  ///< exec-side concatenated operand region

  // Send-side only: the recorded stages (operand sources) and the chunk's
  // caller positions; the operand region is written with put_elems_gather,
  // permuting per-element operands into chunk order on the fly.
  std::span<const FusedStageRec<T>> recs;
  std::span<const std::size_t> gather_pos;

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, fetch);
    if constexpr (Ar::is_writing) {
      ar.put_elems(locals);
      ar.put_elems(stages);
      ar.template put_elems_gather<T>(
          region_len(stages, locals.size()),
          array_detail::operand_walk<T>(recs, gather_pos, locals.size()));
    } else {
      locals = ar.template get_elems<std::uint64_t>();
      stages = ar.template get_elems<FusedStage>();
      ops = ar.template get_elems<T>();
    }
  }

  ValSpan<T> exec(AmContext&) {
    std::span<T> out;
    if (fetch != FetchMode::kNone) {
      out = ScratchArena::local().alloc_span<T>(locals.size());
    }
    array_detail::apply_fused_sink<T>(*state, stages, ops, locals, fetch,
                                      out.data());
    return {out};
  }
};

/// RDMA-like put of a contiguous local range, applied under the owner's
/// safety regime (paper Fig. 2 discussion: UnsafeArray memcopies,
/// LocalLockArray locks then memcopies, AtomicArray stores element-wise).
template <typename T>
struct ArrayPutAm {
  static constexpr bool kBorrowsPayload = true;

  Darc<ArrayState<T>> state;
  std::uint64_t local_start = 0;
  std::span<const T> data;  ///< exec-side borrowed view

  // Send-side only: source elements src[j * src_stride] for j < count,
  // written straight from the caller's buffer (stride > 1 serves cyclic
  // strided runs without staging a contiguous copy).
  const T* src = nullptr;
  std::uint64_t count = 0;
  std::uint64_t src_stride = 1;

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, local_start);
    if constexpr (Ar::is_writing) {
      if (src_stride > 1) {
        ar.template put_elems_gather<T>(
            count, [this](std::size_t j) { return src[j * src_stride]; });
      } else {
        ar.put_elems(std::span<const T>{src, count});
      }
    } else {
      data = ar.template get_elems<T>();
    }
  }

  void exec(AmContext&) {
    ArrayState<T>& st = *state;
    auto slab = st.local_slab();
    auto& params = st.world->lamellae().params();
    switch (st.mode) {
      case ArrayMode::kReadOnly:
        throw Error("put on ReadOnlyArray");
      case ArrayMode::kUnsafe:
        st.world->lamellae().charge(params.memcpy_ns(data.size() * sizeof(T)));
        std::copy(data.begin(), data.end(), slab.begin() + local_start);
        break;
      case ArrayMode::kLocalLock: {
        std::unique_lock lock(*st.local_lock);
        st.world->lamellae().charge(params.rwlock_acquire_ns +
                                    params.memcpy_ns(data.size() * sizeof(T)));
        std::copy(data.begin(), data.end(), slab.begin() + local_start);
        break;
      }
      case ArrayMode::kAtomicNative:
      case ArrayMode::kAtomicGeneric:
        st.world->lamellae().charge(
            (st.mode == ArrayMode::kAtomicNative ? params.atomic_store_ns
                                                 : params.generic_mutex_ns) *
            static_cast<double>(data.size()));
        for (std::size_t j = 0; j < data.size(); ++j) {
          array_detail::apply_one<T>(st, local_start + j, OpCode::kStore,
                                     data[j]);
        }
        break;
    }
  }
};

/// RDMA-like get of a contiguous local range.  The reply serializes
/// directly from the owner's slab where the mode permits (Unsafe/ReadOnly);
/// modes that need a guarded read stage into the scratch arena.
template <typename T>
struct ArrayGetAm {
  static constexpr bool kBorrowsPayload = true;

  Darc<ArrayState<T>> state;
  std::uint64_t local_start = 0;
  std::uint64_t len = 0;

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, local_start, len);
  }

  ValSpan<T> exec(AmContext&) {
    ArrayState<T>& st = *state;
    auto slab = st.local_slab();
    if (st.mode == ArrayMode::kLocalLock) {
      auto out = ScratchArena::local().alloc_span<T>(len);
      std::shared_lock lock(*st.local_lock);
      std::copy(slab.begin() + local_start, slab.begin() + local_start + len,
                out.begin());
      return {out};
    }
    if (st.mode == ArrayMode::kAtomicNative ||
        st.mode == ArrayMode::kAtomicGeneric) {
      auto out = ScratchArena::local().alloc_span<T>(len);
      for (std::uint64_t j = 0; j < len; ++j) {
        out[j] = array_detail::apply_one<T>(st, local_start + j, OpCode::kLoad,
                                            T{});
      }
      return {out};
    }
    // Unsafe / ReadOnly: the reply is serialized straight out of the slab
    // (the Darc in this AM keeps the state alive until the reply is on the
    // wire).
    return {std::span<const T>{slab.data() + local_start, len}};
  }
};

template <typename T>
T reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return T{};
    case ReduceOp::kProd:
      return T{1};
    case ReduceOp::kMin:
      return std::numeric_limits<T>::max();
    case ReduceOp::kMax:
      return std::numeric_limits<T>::lowest();
  }
  return T{};
}

template <typename T>
T reduce_fold(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kProd:
      return a * b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
  }
  return a;
}

/// Children of `rel_rank` in a binomial tree of the given subtree width:
/// rel_rank + 1, 2, 4, ... below `width`, skipping relative ranks at or
/// beyond the team size (holes in the rounded-up power-of-two span; h
/// grows, so the first hole ends the enumeration).
inline std::size_t reduce_child_count(std::uint32_t rel_rank,
                                      std::uint32_t width, std::size_t size) {
  std::size_t n = 0;
  for (std::uint32_t h = 1; h < width; h <<= 1) {
    if (rel_rank + h >= size) break;
    ++n;
  }
  return n;
}

template <typename T>
struct ReducePartialAm;
template <typename T>
struct ReduceResultAm;

namespace array_detail {

/// Fold one contribution (a child subtree's partial or the node's own
/// local partial) into the node for `id`.  Contributions may arrive before
/// the node's own start AM (the root fans every start out directly), so
/// the first value seeds `acc` and `remaining` runs negative until
/// reduce_node_init adds the expected count.  The final contribution
/// removes the node and either completes the root promise or forwards the
/// folded value one level up the tree — no task ever blocks on a child.
template <typename T>
void reduce_finish(const Darc<ArrayState<T>>& state, std::uint64_t id,
                   typename ArrayState<T>::ReduceNode&& done) {
  if (done.root) {
    if (done.bcast) {
      // Collective root: fan the combined value back down to every other
      // team member before completing locally (the receivers' promises are
      // parked in pending_results under the same id).
      ArrayState<T>& st = *state;
      const std::size_t size = st.team.size();
      for (std::uint32_t r = 1; r < size; ++r) {
        ReduceResultAm<T> out;
        out.state = state;
        out.id = id;
        out.value = done.acc;
        st.world->engine().send_forget(st.team.world_pe(r), std::move(out));
      }
    }
    done.promise.set_value(std::move(done.acc));
    return;
  }
  ArrayState<T>& st = *state;
  ReducePartialAm<T> up;
  up.state = state;
  up.id = id;
  up.op = done.op;
  up.value = done.acc;
  st.world->engine().send_forget(st.team.world_pe(done.parent_rank),
                                 std::move(up));
}

template <typename T>
void reduce_contribute(const Darc<ArrayState<T>>& state, std::uint64_t id,
                       ReduceOp op, T value) {
  ArrayState<T>& st = *state;
  typename ArrayState<T>::ReduceNode done;
  {
    std::lock_guard lock(st.reduce_coord->mu);
    auto& node = st.reduce_coord->nodes[id];
    node.op = op;
    node.acc = node.touched ? reduce_fold<T>(op, node.acc, value) : value;
    node.touched = true;
    if (--node.remaining != 0 || !node.init) return;
    done = std::move(node);
    st.reduce_coord->nodes.erase(id);
  }
  reduce_finish<T>(state, id, std::move(done));
}

/// Arm the node for `id` with its tree position: `count` expected
/// contributions (children + the local partial) and where the folded value
/// goes.  Completes the node if every contribution already arrived.
template <typename T>
void reduce_node_init(const Darc<ArrayState<T>>& state, std::uint64_t id,
                      std::int64_t count, std::uint32_t parent_rank,
                      bool root, Promise<T> promise, bool bcast = false) {
  ArrayState<T>& st = *state;
  typename ArrayState<T>::ReduceNode done;
  {
    std::lock_guard lock(st.reduce_coord->mu);
    auto& node = st.reduce_coord->nodes[id];
    node.remaining += count;
    node.parent_rank = parent_rank;
    node.root = root;
    node.bcast = bcast;
    node.promise = std::move(promise);
    node.init = true;
    if (node.remaining != 0) return;
    done = std::move(node);
    st.reduce_coord->nodes.erase(id);
  }
  reduce_finish<T>(state, id, std::move(done));
}

/// Serial owner-side reduction scan over local slots [lo, hi) — the
/// per-element cost *is* the reduction, so mode and op dispatch are hoisted
/// out of the loop.  Atomic modes read through relaxed atomic_refs
/// (tear-free; a reduction racing with updates promises only a value-level
/// snapshot, never ordering).  LocalLock holds the PE-wide shared lock for
/// the whole scan (elements are then read directly — apply_one would
/// re-acquire the same lock and self-deadlock); the remaining modes read
/// the slab directly, which vectorizes.  Shared by the one-sided tree
/// reduce (ReduceStartAm) and the distributed-iterator reduce terminal.
template <typename T>
T local_reduce_scan(ArrayState<T>& st, ReduceOp op, std::size_t lo,
                    std::size_t hi) {
  T acc = reduce_identity<T>(op);
  std::optional<std::shared_lock<std::shared_mutex>> lock;
  if (st.mode == ArrayMode::kLocalLock) lock.emplace(*st.local_lock);
  auto slab = st.local_slab();
  auto scan = [&](auto read) {
    switch (op) {
      case ReduceOp::kSum:
        for (std::size_t i = lo; i < hi; ++i) acc = acc + read(i);
        break;
      case ReduceOp::kProd:
        for (std::size_t i = lo; i < hi; ++i) acc = acc * read(i);
        break;
      case ReduceOp::kMin:
        for (std::size_t i = lo; i < hi; ++i) acc = std::min(acc, read(i));
        break;
      case ReduceOp::kMax:
        for (std::size_t i = lo; i < hi; ++i) acc = std::max(acc, read(i));
        break;
    }
  };
  if (st.mode == ArrayMode::kAtomicNative ||
      st.mode == ArrayMode::kAtomicGeneric) {
    if constexpr (kNativeAtomicCapable<T>) {
      scan([&](std::size_t i) {
        return std::atomic_ref<T>(slab[i]).load(std::memory_order_relaxed);
      });
    } else {
      // Generic-atomic over a type whose plain loads could tear: take the
      // per-element byte lock.
      scan([&](std::size_t i) {
        return apply_one<T>(st, i, OpCode::kLoad, T{});
      });
    }
  } else {
    scan([&](std::size_t i) { return slab[i]; });
  }
  return acc;
}

}  // namespace array_detail

/// One node of an asynchronous binomial combining tree over the team
/// (root = the caller's rank).  The root fans a start AM out to every PE
/// at once — a node's position is implied by its relative rank (subtree
/// width = lowest set bit, parent = rel_rank minus that bit) — so all
/// owner-side scans enqueue in one wave instead of cascading down the
/// tree.  Each node arms its fold state, computes the local partial over
/// its view slots, and *returns*; partials flow up as ReducePartialAm and
/// the last contribution forwards the combined value.  Nothing blocks, so
/// the tree costs one task per PE instead of size-1 spinning waits.
template <typename T>
struct ReduceStartAm {
  Darc<ArrayState<T>> state;
  ReduceOp op = ReduceOp::kSum;
  std::uint64_t view_start = 0;
  std::uint64_t view_len = 0;
  std::uint32_t rel_rank = 0;   ///< rank relative to the tree root
  std::uint32_t width = 1;      ///< subtree width (power of two)
  std::uint32_t root_rank = 0;  ///< team rank of the tree root
  std::uint64_t id = 0;         ///< tree id in the root's sequence space

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, op, view_start, view_len, rel_rank, width, root_rank, id);
  }

  void exec(AmContext&) {
    ArrayState<T>& st = *state;
    const std::size_t size = st.team.size();

    // Arm the fold state before the scan (the root's node, carrying the
    // caller's promise, was armed by reduce() itself).
    if (rel_rank != 0) {
      const auto nkids = static_cast<std::int64_t>(
          reduce_child_count(rel_rank, width, size));
      const std::uint32_t parent_rel = rel_rank - (rel_rank & (~rel_rank + 1));
      const auto parent =
          static_cast<std::uint32_t>((root_rank + parent_rel) % size);
      array_detail::reduce_node_init<T>(state, id, nkids + 1, parent, false,
                                        Promise<T>{});
    }

    const auto [lo, hi] = st.local_view_range(view_start, view_len);
    const T acc = array_detail::local_reduce_scan<T>(st, op, lo, hi);
    array_detail::reduce_contribute<T>(state, id, op, acc);
  }
};

/// A subtree's folded partial travelling one level up the combining tree.
/// Executes inline during inbox dispatch (kRuntimeInternal): the fold is a
/// short critical section + at most one forwarded record, and skipping the
/// task round-trip keeps the up-tree tail latency at one hop per level.
template <typename T>
struct ReducePartialAm {
  static constexpr bool kRuntimeInternal = true;

  Darc<ArrayState<T>> state;
  std::uint64_t id = 0;
  ReduceOp op = ReduceOp::kSum;
  T value{};

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, id, op, value);
  }

  void exec(AmContext&) {
    array_detail::reduce_contribute<T>(state, id, op, value);
  }
};

/// The root's combined value of a *collective* reduction travelling back
/// down to one team member: pops the promise this PE parked under the
/// collective id and completes it.  Inline (kRuntimeInternal) — a map
/// erase and a promise fulfilment.
template <typename T>
struct ReduceResultAm {
  static constexpr bool kRuntimeInternal = true;

  Darc<ArrayState<T>> state;
  std::uint64_t id = 0;
  T value{};

  template <class Ar>
  void serialize(Ar& ar) {
    ar(state, id, value);
  }

  void exec(AmContext&) {
    ArrayState<T>& st = *state;
    Promise<T> promise;
    {
      std::lock_guard lock(st.reduce_coord->mu);
      auto it = st.reduce_coord->pending_results.find(id);
      if (it == st.reduce_coord->pending_results.end()) {
        throw Error("collective reduce result with no parked promise");
      }
      promise = std::move(it->second);
      st.reduce_coord->pending_results.erase(it);
    }
    promise.set_value(std::move(value));
  }
};

namespace array_detail {

/// Launch an asynchronous binomial-combining-tree reduction over the view,
/// rooted at the calling PE, completing `promise` with the combined value.
/// The root arms its own fold node, then fans a start AM out to every PE in
/// one wave (each node's tree position is implied by its relative rank);
/// owner-side partials fold up the tree as ReducePartialAm messages, so no
/// task ever blocks on a child and no single hot root absorbs size-1
/// partials under a mutex.  Shared by ArrayBase::reduce and the lazy
/// chain's reduce terminal (the tree starts from whatever context observes
/// the chain's last chunk completion).
template <typename T>
void start_tree_reduce(const Darc<ArrayState<T>>& state,
                       std::size_t view_start, std::size_t view_len,
                       ReduceOp op, Promise<T> promise) {
  ArrayState<T>& st = *state;
  const std::size_t size = st.team.size();
  std::uint32_t width = 1;
  while (width < size) width <<= 1;
  const auto root = static_cast<std::uint32_t>(st.my_rank());

  std::uint64_t id;
  {
    std::lock_guard lock(st.reduce_coord->mu);
    id = (static_cast<std::uint64_t>(root) << 40) |
         st.reduce_coord->next_seq++;
  }
  const auto nkids =
      static_cast<std::int64_t>(reduce_child_count(0, width, size));
  reduce_node_init<T>(state, id, nkids + 1, root, true, std::move(promise));

  for (std::uint32_t r = 0; r < size; ++r) {
    ReduceStartAm<T> am;
    am.state = state;
    am.op = op;
    am.view_start = view_start;
    am.view_len = view_len;
    am.rel_rank = r;
    am.width = r == 0 ? width : r & (~r + 1);
    am.root_rank = root;
    am.id = id;
    const std::size_t abs = (root + r) % size;
    st.world->engine().send_forget(st.team.world_pe(abs), std::move(am));
  }
}

/// Collective combine of per-PE partials (the distributed-iterator reduce
/// terminal): every team member calls with its local partial, and every
/// member's future resolves to the team-wide combined value.  The tree is
/// rooted at team rank 0; ids come from a per-state collective counter
/// (same on every PE because collectives execute in team order, the same
/// ordering contract as barriers), so no start fan-out is needed at all —
/// each PE knows its position and contributes directly, and the root
/// broadcasts the result back down as ReduceResultAm.
template <typename T>
Future<T> collective_combine(const Darc<ArrayState<T>>& state, ReduceOp op,
                             T partial) {
  ArrayState<T>& st = *state;
  const std::size_t size = st.team.size();
  const auto rel = static_cast<std::uint32_t>(st.my_rank());
  std::uint32_t width = 1;
  while (width < size) width <<= 1;
  const std::uint32_t my_width = rel == 0 ? width : rel & (~rel + 1);

  Promise<T> promise;
  auto fut = promise.future();
  std::uint64_t id;
  {
    std::lock_guard lock(st.reduce_coord->mu);
    id = kCollectiveReduceId | st.reduce_coord->next_collective++;
    // Park the result promise before contributing: the root's broadcast
    // can only fire after this PE's partial reached it, but registering
    // first keeps the ordering obvious.
    if (rel != 0) st.reduce_coord->pending_results.emplace(id, promise);
  }
  const auto nkids =
      static_cast<std::int64_t>(reduce_child_count(rel, my_width, size));
  if (rel == 0) {
    reduce_node_init<T>(state, id, nkids + 1, 0, /*root=*/true,
                        std::move(promise), /*bcast=*/true);
  } else {
    reduce_node_init<T>(state, id, nkids + 1, rel - my_width, /*root=*/false,
                        Promise<T>{});
  }
  reduce_contribute<T>(state, id, op, std::move(partial));
  return fut;
}

}  // namespace array_detail

}  // namespace lamellar

/// Instantiate + register the array AM family for one element type.
#define LAMELLAR_REGISTER_ARRAY_ELEMENT(T)              \
  LAMELLAR_REGISTER_AM(::lamellar::ArrayFusedAm<T>);    \
  LAMELLAR_REGISTER_AM(::lamellar::ArrayPutAm<T>);      \
  LAMELLAR_REGISTER_AM(::lamellar::ArrayGetAm<T>);      \
  LAMELLAR_REGISTER_AM(::lamellar::ReduceStartAm<T>);   \
  LAMELLAR_REGISTER_AM(::lamellar::ReducePartialAm<T>); \
  LAMELLAR_REGISTER_AM(::lamellar::ReduceResultAm<T>)
