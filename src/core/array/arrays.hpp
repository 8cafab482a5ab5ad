// LamellarArray types (paper Sec. III-F): the safe PGAS abstraction.
//
//   UnsafeArray    — no safety guarantees; direct RDMA allowed ("intended
//                    for internal use, but exposed and marked unsafe").
//   ReadOnlyArray  — immutable; loads only; direct RDMA get is safe.
//   AtomicArray    — element-wise atomicity: native atomics when the
//                    element type supports them (NativeAtomicArray),
//                    otherwise a 1-byte mutex per element
//                    (GenericAtomicArray).
//   LocalLockArray — a PE-wide readers-writer lock guards each local slab.
//
// All four share one Darc-owned ArrayState; conversions (into_atomic, ...)
// are collective, succeed only when exactly one reference exists per PE,
// and re-tag the state in place.  0-based global indexing with Block or
// Cyclic layout; element/batch operations execute owner-side per the type's
// regime; iterators and reductions are provided via the shared base.
#pragma once

#include <chrono>
#include <functional>
#include <span>
#include <vector>

#include "core/array/array_ams.hpp"
#include "core/array/batch.hpp"
#include "core/array/expr.hpp"
#include "core/array/iterators.hpp"

namespace lamellar {

template <typename T>
class UnsafeArray;
template <typename T>
class ReadOnlyArray;
template <typename T>
class AtomicArray;
template <typename T>
class LocalLockArray;

namespace array_detail {

/// Build the shared state for a fresh array (collective on `team`).
template <typename T>
Darc<ArrayState<T>> create_state(World& world, const Team& team,
                                 global_index len, Distribution dist,
                                 ArrayMode mode) {
  ArrayState<T> st;
  st.world = &world;
  st.team = team;
  st.map = DistributionMap(dist, len, team.size());
  st.data = SharedMemoryRegion<T>::create_on(world, team,
                                             st.map.per_rank_capacity());
  st.mode = mode;
  if (mode == ArrayMode::kAtomicGeneric) st.ensure_elem_locks();
  if (mode == ArrayMode::kLocalLock) st.ensure_local_lock();
  obs::MetricsRegistry& reg = world.metrics();
  st.ops_batched = &reg.counter("array.ops_batched");
  st.chunk_bytes_inline = &reg.counter("array.chunk_bytes_inline");
  st.plan_allocs = &reg.counter("array.plan_allocs");
  st.fused_ams_saved = &reg.counter("array.fused_ams_saved");
  st.fused_chain_len = &reg.histogram("array.fused_chain_len");
  // The symmetric heap may recycle memory: zero the slab before publishing.
  auto slab = st.data.unsafe_local_slice();
  std::fill(slab.begin(), slab.end(), T{});
  return world.new_darc_on(team, std::move(st));
}

}  // namespace array_detail

/// Functionality shared by every array type.  `Derived` is the concrete
/// wrapper (CRTP) so sub_array and conversions return the right type.
template <typename Derived, typename T>
class ArrayBase {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "LamellarArray elements must be trivially copyable");

  ArrayBase() = default;

  [[nodiscard]] bool valid() const { return state_.valid(); }
  [[nodiscard]] global_index len() const { return view_len_; }
  [[nodiscard]] const Team& team() const { return state_->team; }
  [[nodiscard]] World& world() const { return *state_->world; }
  [[nodiscard]] Distribution dist() const { return state_->map.dist(); }
  [[nodiscard]] ArrayMode mode() const { return state_->mode; }
  [[nodiscard]] bool is_sub_array() const {
    return view_start_ != 0 || view_len_ != state_->map.global_len();
  }

  /// Runtime-internal escape hatch: the Darc owning the shared state.
  /// Used by hand-optimized AMs (e.g. the paper's manually aggregated
  /// Histogram variant) that carry the array inside a custom AM.
  [[nodiscard]] Darc<ArrayState<T>> state_darc() const { return state_; }

  /// Number of elements of this view resident on the calling PE.
  [[nodiscard]] std::size_t local_len() const {
    auto [lo, hi] = state_->local_view_range(view_start_, view_len_);
    return hi - lo;
  }

  /// Owner placement of view-relative index `i`.
  [[nodiscard]] Placement place(global_index i) const {
    if (i >= view_len_) throw_bounds("array index", i, view_len_);
    return state_->map.place(view_start_ + i);
  }

  /// A view restricted to [start, start+len) of this view.
  [[nodiscard]] Derived sub_array(global_index start, std::size_t len) const {
    check_range(start, len, "sub_array");
    Derived out;
    out.state_ = state_;
    out.view_start_ = view_start_ + start;
    out.view_len_ = len;
    return out;
  }

  // ---- RDMA-like bulk transfers (AM-mediated, safe per type) ----

  /// Write `data` at global (view) index `start`, owner-side, respecting the
  /// array type's safety regime.  ReadOnlyArray deletes this (no put).
  Future<Unit> put(global_index start, std::span<const T> data) {
    check_range(start, data.size());
    // Paper Sec. IV-A: above the aggregation threshold the UnsafeArray
    // switches from Vec-carrying AMs to direct RDMA (no safety regime to
    // preserve); the other types keep owner-side application.
    if (state_->mode == ArrayMode::kUnsafe &&
        data.size_bytes() >= state_->world->config().agg_threshold_bytes) {
      auto ranges = array_detail::plan_ranges(*state_, view_start_ + start,
                                              data.size());
      ArrayState<T>& st = *state_;
      const std::size_t region = st.data.arena_offset();
      ArenaFrame frame;
      for (auto& r : ranges) {
        st.world->lamellae().put(
            st.team.world_pe(r.rank), region + r.local_start * sizeof(T),
            std::as_bytes(array_detail::contiguous_slice(frame.arena(), data,
                                                         r)));
      }
      return ready_future(Unit{});
    }
    auto ranges =
        array_detail::plan_ranges(*state_, view_start_ + start, data.size());
    auto gather = std::make_shared<array_detail::UnitGather>();
    gather->remaining = ranges.size();
    if (ranges.empty()) {
      gather->promise.set_value(Unit{});
      return gather->promise.future();
    }
    auto fut = gather->promise.future();
    ArrayState<T>& st = *state_;
    const std::size_t my_rank = st.my_rank();
    for (auto& r : ranges) {
      ArrayPutAm<T> am;
      am.state = state_;
      am.local_start = r.local_start;
      if (r.rank == my_rank) {
        // Owner == caller: apply directly; strided runs stage a contiguous
        // slice in the arena for the duration of the call.
        ArenaFrame frame;
        am.data = array_detail::contiguous_slice(frame.arena(), data, r);
        AmContext ctx(*st.world, st.world->my_pe());
        am.exec(ctx);
        array_detail::finish_unit(gather);
        continue;
      }
      // Remote: elements serialize straight from the caller's buffer (the
      // AM walks src with src_stride), no staging copy at all.
      am.src = data.data() + r.caller_offset;
      am.count = r.len;
      am.src_stride = r.caller_stride;
      st.world->engine().send_cb(
          st.team.world_pe(r.rank), std::move(am),
          [gather](Unit) { array_detail::finish_unit(gather); });
    }
    return fut;
  }

  /// Read `len` elements starting at (view) index `start`.
  Future<std::vector<T>> get(global_index start, std::size_t len) {
    check_range(start, len);
    auto ranges =
        array_detail::plan_ranges(*state_, view_start_ + start, len);
    // Lock-free gather: each range scatters into its own disjoint caller
    // positions; the release fetch_sub publishes the writes to whoever
    // observes zero and completes the promise.
    struct GetGather {
      std::vector<T> out;
      std::atomic<std::size_t> remaining{0};
      Promise<std::vector<T>> promise;
    };
    auto gather = std::make_shared<GetGather>();
    gather->out.resize(len);
    gather->remaining.store(ranges.size(), std::memory_order_relaxed);
    if (ranges.empty()) {
      gather->promise.set_value({});
      return gather->promise.future();
    }
    auto fut = gather->promise.future();
    ArrayState<T>& st = *state_;
    const std::size_t my_rank = st.my_rank();
    auto absorb = [gather](const array_detail::OwnedRange& r,
                           std::span<const T> piece) {
      array_detail::scatter_range(gather->out.data(), r, piece);
      if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gather->promise.set_value(std::move(gather->out));
      }
    };
    for (auto& r : ranges) {
      ArrayGetAm<T> am{state_, r.local_start, r.len};
      if (r.rank == my_rank) {
        AmContext ctx(*st.world, st.world->my_pe());
        // The reply view may be arena-staged (guarded modes); scatter it
        // before the frame rewinds.
        ArenaFrame frame;
        absorb(r, am.exec(ctx).view);
        continue;
      }
      st.world->engine().send_cb(st.team.world_pe(r.rank), std::move(am),
                                 [absorb, r](ValSpan<T> piece) {
                                   absorb(r, piece.view);
                                 });
    }
    return fut;
  }

  /// Collective fill of the whole view with `value` (all members call).
  void fill(T value) {
    ArrayState<T>& st = *state_;
    auto [lo, hi] = st.local_view_range(view_start_, view_len_);
    // Direct writes under the PE-wide lock (apply_one would re-lock it).
    std::unique_lock<std::shared_mutex> lock;
    if (st.mode == ArrayMode::kLocalLock) {
      lock = std::unique_lock<std::shared_mutex>(*st.local_lock);
    }
    auto slab = st.local_slab();
    for (std::size_t i = lo; i < hi; ++i) {
      if (st.mode == ArrayMode::kAtomicNative ||
          st.mode == ArrayMode::kAtomicGeneric) {
        array_detail::apply_one<T>(st, i, OpCode::kStore, value);
      } else {
        slab[i] = value;
      }
    }
    if (lock) lock.unlock();
    const_cast<Team&>(st.team).barrier();
  }

  // ---- element ops (paper Sec. III-F3) ----
  //
  // Every element op is a chain over its indices (expr_fuse.hpp): one
  // stage, or none for loads.  Fetch forms return the values from before
  // the stage.

  Future<T> load(global_index i) {
    return chain<T>({&i, 1}, nullptr, FetchMode::kPre, first_value);
  }

  Future<std::vector<T>> batch_load(std::span<const global_index> idxs) {
    return chain<std::vector<T>>(idxs, nullptr, FetchMode::kPre,
                                 std::identity{});
  }

  // ---- iterators (paper Sec. III-F4) ----

  /// One-sided parallel iteration over the calling PE's local elements.
  [[nodiscard]] auto local_iter() const {
    return LocalIter<T>(state_, view_start_, view_len_, /*distributed=*/false,
                        array_detail::IdentityPipe{}, {}, nullptr);
  }

  /// Collective parallel iteration: every member PE iterates its own data.
  [[nodiscard]] auto dist_iter() const {
    return LocalIter<T>(state_, view_start_, view_len_, /*distributed=*/true,
                        array_detail::IdentityPipe{}, {}, nullptr);
  }

  /// Serial iteration over the entire (view of the) array from this PE.
  [[nodiscard]] OneSidedIter<T> onesided_iter(
      std::size_t buffer_elems = 4096) const {
    return OneSidedIter<T>(state_, view_start_, view_len_, buffer_elems);
  }

  // ---- lazy expression chains (DESIGN.md §11) ----

  /// A recording handle: element ops on it build a fused pipeline instead
  /// of dispatching; materialize()/gather()/reduce() lower each recorded
  /// group into one plan pass and one AM per destination lane.
  [[nodiscard]] LazyChain<T> lazy() const {
    return LazyChain<T>(state_, view_start_, view_len_);
  }

  // ---- reductions ----

  /// Reduce over the view via an asynchronous binomial combining tree
  /// rooted at the calling PE.  The root arms its own fold node, then fans
  /// a start AM out to every PE in one wave (each node's tree position is
  /// implied by its relative rank); owner-side partials fold up the tree
  /// as ReducePartialAm messages, so no task ever blocks on a child and no
  /// single hot root absorbs size-1 partials under a mutex
  /// (ReduceStartAm::exec).
  Future<T> reduce(ReduceOp op) const {
    Promise<T> promise;
    auto fut = promise.future();
    array_detail::start_tree_reduce<T>(state_, view_start_, view_len_, op,
                                      std::move(promise));
    return fut;
  }

  Future<T> sum() const { return reduce(ReduceOp::kSum); }
  Future<T> prod() const { return reduce(ReduceOp::kProd); }
  Future<T> min() const { return reduce(ReduceOp::kMin); }
  Future<T> max() const { return reduce(ReduceOp::kMax); }

  // ---- conversions (collective; exactly one reference per PE) ----

  UnsafeArray<T> into_unsafe() &&;
  ReadOnlyArray<T> into_read_only() &&;
  AtomicArray<T> into_atomic() &&;
  LocalLockArray<T> into_local_lock() &&;

 protected:
  template <typename, typename>
  friend class ArrayBase;

  void adopt(Darc<ArrayState<T>> state) {
    state_ = std::move(state);
    view_start_ = 0;
    view_len_ = state_->map.global_len();
  }

  /// Throw unless [start, start + n) lies inside the view, naming the first
  /// index outside it; written so that no sum can wrap past 2^64.
  void check_range(global_index start, std::size_t n,
                   const char* what = "array range") const {
    if (n > view_len_ || start > view_len_ - n) {
      throw_bounds(what, std::max(start, view_len_), view_len_);
    }
  }

  static T first_value(std::vector<T> out) { return out[0]; }
  static Unit no_value(std::vector<T>) { return Unit{}; }

  /// One element op as a chain over `idxs`: the stage `rec`, or none (a
  /// load) when null.  `finish` maps the fetched values, in caller order,
  /// to the future's value.  The chain's plan pass bounds-checks `idxs`.
  template <typename R, typename Finish>
  Future<R> chain(std::span<const global_index> idxs,
                  const FusedStageRec<T>* rec, FetchMode fetch,
                  Finish finish) {
    return array_detail::dispatch_chain<R>(
        state_, view_start_, view_len_, idxs,
        std::span<const FusedStageRec<T>>(rec, rec != nullptr ? 1 : 0), fetch,
        std::move(finish));
  }

  static FetchMode pre_if(bool fetch) {
    return fetch ? FetchMode::kPre : FetchMode::kNone;
  }

  Future<Unit> single_op(OpCode op, global_index i, T v) {
    const FusedStageRec<T> rec{op, false, v};
    return chain<Unit>({&i, 1}, &rec, FetchMode::kNone, no_value);
  }

  Future<T> single_fetch(OpCode op, global_index i, T v) {
    const FusedStageRec<T> rec{op, false, v};
    return chain<T>({&i, 1}, &rec, FetchMode::kPre, first_value);
  }

  /// Many indices - one value.
  Future<std::vector<T>> batch(OpCode op, bool fetch,
                               std::span<const global_index> idxs, T v) {
    const FusedStageRec<T> rec{op, false, v};
    return chain<std::vector<T>>(idxs, &rec, pre_if(fetch), std::identity{});
  }

  /// Many indices - many values, one-to-one.
  Future<std::vector<T>> batch(OpCode op, bool fetch,
                               std::span<const global_index> idxs,
                               std::span<const T> vals) {
    if (idxs.size() != vals.size()) {
      throw Error("batch op: indices and values must pair one-to-one");
    }
    const FusedStageRec<T> rec{op, true, T{}, vals.data()};
    return chain<std::vector<T>>(idxs, &rec, pre_if(fetch), std::identity{});
  }

  /// One index - many values: the index repeats once per operand, so the
  /// operands of each chunk fold in order on the owner, one pre-value each.
  Future<std::vector<T>> batch_one_idx(OpCode op, bool fetch, global_index i,
                                       std::span<const T> vals) {
    check_range(i, 1);
    ArenaFrame frame;
    auto idxs = frame.arena().alloc_span<global_index>(vals.size());
    std::fill(idxs.begin(), idxs.end(), i);
    return batch(op, fetch, idxs, vals);
  }

  /// Compare-exchange as a kCompareExchange stage: the owner returns the
  /// pre-stage values and the outcomes are rebuilt from them here.
  Future<CexResult<T>> cex_one(global_index i, T expected, T desired) {
    const FusedStageRec<T> rec{OpCode::kCompareExchange, false, desired,
                               nullptr, expected};
    return chain<CexResult<T>>({&i, 1}, &rec, FetchMode::kPre,
                               [expected](std::vector<T> prev) {
                                 return cex_result(prev[0], expected);
                               });
  }

  Future<std::vector<CexResult<T>>> cex_batch(
      std::span<const global_index> idxs, const FusedStageRec<T>& rec) {
    return chain<std::vector<CexResult<T>>>(
        idxs, &rec, FetchMode::kPre,
        [expected = rec.expected](std::vector<T> prev) {
          std::vector<CexResult<T>> out(prev.size());
          for (std::size_t j = 0; j < prev.size(); ++j) {
            out[j] = cex_result(prev[j], expected);
          }
          return out;
        });
  }

  void convert_precheck(const char* what) const {
    if (!state_.valid()) throw ConversionError("conversion of empty array");
    if (is_sub_array()) {
      throw ConversionError(std::string(what) + " on a sub-array view");
    }
    // Paper semantics: conversion *blocks* until precisely one reference
    // exists per PE — the one performing the conversion (outstanding
    // operations hold transient references; footnote 2 notes the deadlock
    // hazard when user handles never drop).  We help the runtime while
    // waiting, and diagnose the user-held-handle case: if the runtime is
    // fully quiescent and extra references persist, no amount of waiting
    // can release them.  This PE looks quiescent too while a peer's Darc
    // transfer ack is still unsent (the peer's threads may simply not be
    // scheduled), so only a full second of quiet counts as proof: a
    // spurious throw here leaves every peer waiting in the conversion
    // barrier below.
    World& world = *state_->world;
    constexpr auto kQuietProof = std::chrono::seconds(1);
    std::chrono::steady_clock::time_point quiet_since{};
    bool quiet = false;
    while (true) {
      const auto refs = world.darc_manager().local_refs(state_.id());
      if (refs == 1) return;
      const bool ran = world.pool().try_run_one();
      world.engine().poll_inbox();
      // Our own transfer acks must leave too (as block_on flushes).
      if (world.engine().outgoing().has_pending()) world.engine().flush();
      if (!ran && world.engine().outstanding() == 0 &&
          world.pool().pending() == 0) {
        const auto now = std::chrono::steady_clock::now();
        if (!quiet) {
          quiet = true;
          quiet_since = now;
        } else if (now - quiet_since > kQuietProof) {
          throw ConversionError(
              std::string(what) + ": " + std::to_string(refs) +
              " references exist on this PE and the runtime is idle — "
              "another handle (e.g. a sub-array) is still alive");
        }
      } else {
        quiet = false;
      }
    }
  }

  template <typename D2>
  D2 convert_to(ArrayMode mode, const char* what) {
    convert_precheck(what);
    ArrayState<T>& st = *state_;
    const_cast<Team&>(st.team).barrier();
    st.mode = mode;
    if (mode == ArrayMode::kAtomicGeneric) st.ensure_elem_locks();
    if (mode == ArrayMode::kLocalLock) st.ensure_local_lock();
    const_cast<Team&>(st.team).barrier();
    D2 out;
    out.adopt(std::move(state_));
    view_start_ = 0;
    view_len_ = 0;
    return out;
  }

  Darc<ArrayState<T>> state_;
  std::size_t view_start_ = 0;
  std::size_t view_len_ = 0;
};

/// The element-operation surface shared by writable array types
/// (paper Sec. III-F3): arithmetic, bit-wise, shift, store/swap — each as a
/// single op, a fetch variant, and the three batch forms.
#define LAMELLAR_DEFINE_ELEMENT_OP(NAME, CODE)                                \
  Future<Unit> NAME(global_index i, T v) {                                    \
    return this->single_op(CODE, i, v);                                       \
  }                                                                           \
  Future<T> fetch_##NAME(global_index i, T v) {                               \
    return this->single_fetch(CODE, i, v);                                    \
  }                                                                           \
  Future<std::vector<T>> batch_##NAME(std::span<const global_index> idxs,     \
                                      T v) {                                  \
    return this->batch(CODE, false, idxs, v);                                 \
  }                                                                           \
  Future<std::vector<T>> batch_##NAME(std::span<const global_index> idxs,     \
                                      std::span<const T> vals) {              \
    return this->batch(CODE, false, idxs, vals);                              \
  }                                                                           \
  Future<std::vector<T>> batch_##NAME(global_index i,                         \
                                      std::span<const T> vals) {              \
    return this->batch_one_idx(CODE, false, i, vals);                         \
  }                                                                           \
  Future<std::vector<T>> batch_fetch_##NAME(                                  \
      std::span<const global_index> idxs, T v) {                              \
    return this->batch(CODE, true, idxs, v);                                  \
  }                                                                           \
  Future<std::vector<T>> batch_fetch_##NAME(                                  \
      std::span<const global_index> idxs, std::span<const T> vals) {          \
    return this->batch(CODE, true, idxs, vals);                               \
  }                                                                           \
  Future<std::vector<T>> batch_fetch_##NAME(global_index i,                   \
                                            std::span<const T> vals) {        \
    return this->batch_one_idx(CODE, true, i, vals);                          \
  }

#define LAMELLAR_DEFINE_ALL_ELEMENT_OPS()                                     \
  LAMELLAR_DEFINE_ELEMENT_OP(add, OpCode::kAdd)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(sub, OpCode::kSub)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(mul, OpCode::kMul)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(div, OpCode::kDiv)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(rem, OpCode::kRem)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(bit_and, OpCode::kAnd)                           \
  LAMELLAR_DEFINE_ELEMENT_OP(bit_or, OpCode::kOr)                             \
  LAMELLAR_DEFINE_ELEMENT_OP(bit_xor, OpCode::kXor)                           \
  LAMELLAR_DEFINE_ELEMENT_OP(shl, OpCode::kShl)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(shr, OpCode::kShr)                               \
  LAMELLAR_DEFINE_ELEMENT_OP(store, OpCode::kStore)                           \
  LAMELLAR_DEFINE_ELEMENT_OP(swap, OpCode::kSwap)                             \
                                                                              \
  Future<CexResult<T>> compare_exchange(global_index i, T expected,           \
                                        T desired) {                          \
    return this->cex_one(i, expected, desired);                               \
  }                                                                           \
  Future<std::vector<CexResult<T>>> batch_compare_exchange(                   \
      std::span<const global_index> idxs, T expected,                         \
      std::span<const T> desired) {                                           \
    if (desired.size() == 1) {                                                \
      return batch_compare_exchange(idxs, expected, desired[0]);              \
    }                                                                         \
    if (idxs.size() != desired.size()) {                                      \
      throw Error("batch_compare_exchange: one desired value per index");     \
    }                                                                         \
    return this->cex_batch(idxs, {OpCode::kCompareExchange, true, T{},        \
                                  desired.data(), expected});                 \
  }                                                                           \
  Future<std::vector<CexResult<T>>> batch_compare_exchange(                   \
      std::span<const global_index> idxs, T expected, T desired) {            \
    return this->cex_batch(idxs, {OpCode::kCompareExchange, false, desired,   \
                                  nullptr, expected});                        \
  }

/// UnsafeArray: every operation available, including direct RDMA that
/// bypasses owner-side management entirely ("unchecked" paths in Fig. 2).
template <typename T>
class UnsafeArray : public ArrayBase<UnsafeArray<T>, T> {
 public:
  UnsafeArray() = default;

  static UnsafeArray create(World& world, global_index len, Distribution dist,
                            const Team* team = nullptr) {
    const Team& t = team != nullptr ? *team : world.team();
    UnsafeArray out;
    out.adopt(array_detail::create_state<T>(world, t, len, dist,
                                            ArrayMode::kUnsafe));
    return out;
  }

  LAMELLAR_DEFINE_ALL_ELEMENT_OPS()

  /// Raw local slab access.  UNSAFE: remote PEs may write concurrently.
  [[nodiscard]] std::span<T> unsafe_local_slice() {
    auto [lo, hi] =
        this->state_->local_view_range(this->view_start_, this->view_len_);
    return this->state_->local_slab().subspan(lo, hi - lo);
  }

  /// Direct RDMA put into remote slabs, no owner-side management
  /// ("unchecked").  UNSAFE.
  void unsafe_put_direct(global_index start, std::span<const T> data) {
    this->check_range(start, data.size());
    auto ranges = array_detail::plan_ranges(
        *this->state_, this->view_start_ + start, data.size());
    ArrayState<T>& st = *this->state_;
    const std::size_t region = st.data.arena_offset();
    ArenaFrame frame;
    for (auto& r : ranges) {
      st.world->lamellae().put(
          st.team.world_pe(r.rank), region + r.local_start * sizeof(T),
          std::as_bytes(
              array_detail::contiguous_slice(frame.arena(), data, r)));
    }
  }

  /// Direct RDMA get from remote slabs.  UNSAFE.
  std::vector<T> unsafe_get_direct(global_index start, std::size_t len) {
    this->check_range(start, len);
    auto ranges = array_detail::plan_ranges(*this->state_,
                                            this->view_start_ + start, len);
    ArrayState<T>& st = *this->state_;
    const std::size_t region = st.data.arena_offset();
    std::vector<T> out(len);
    ArenaFrame frame;
    for (auto& r : ranges) {
      // Strided runs land in an arena staging span, then scatter out.
      std::span<T> dst{out.data() + r.caller_offset, r.len};
      if (r.caller_stride > 1) dst = frame.arena().alloc_span<T>(r.len);
      st.world->lamellae().get(st.team.world_pe(r.rank),
                               region + r.local_start * sizeof(T),
                               std::as_writable_bytes(dst));
      if (r.caller_stride > 1) {
        array_detail::scatter_range(out.data(), r, std::span<const T>(dst));
      }
    }
    return out;
  }
};

/// ReadOnlyArray: loads only; direct RDMA get is safe because the data
/// cannot change (paper Sec. III-F2); put does not exist.
template <typename T>
class ReadOnlyArray : public ArrayBase<ReadOnlyArray<T>, T> {
 public:
  ReadOnlyArray() = default;

  Future<Unit> put(global_index, std::span<const T>) = delete;
  void fill(T) = delete;

  /// Direct RDMA get — safe: the underlying data is immutable.
  std::vector<T> get_direct(global_index start, std::size_t len) {
    this->check_range(start, len);
    auto ranges = array_detail::plan_ranges(*this->state_,
                                            this->view_start_ + start, len);
    ArrayState<T>& st = *this->state_;
    const std::size_t region = st.data.arena_offset();
    std::vector<T> out(len);
    ArenaFrame frame;
    for (auto& r : ranges) {
      std::span<T> dst{out.data() + r.caller_offset, r.len};
      if (r.caller_stride > 1) dst = frame.arena().alloc_span<T>(r.len);
      st.world->lamellae().get(st.team.world_pe(r.rank),
                               region + r.local_start * sizeof(T),
                               std::as_writable_bytes(dst));
      if (r.caller_stride > 1) {
        array_detail::scatter_range(out.data(), r, std::span<const T>(dst));
      }
    }
    return out;
  }

  [[nodiscard]] std::span<const T> read_local_slice() const {
    auto [lo, hi] =
        this->state_->local_view_range(this->view_start_, this->view_len_);
    return std::span<const T>(this->state_->local_slab())
        .subspan(lo, hi - lo);
  }
};

/// AtomicArray: every element access is atomic — natively when T supports
/// lock-free atomics (NativeAtomicArray), otherwise through a 1-byte mutex
/// per element (GenericAtomicArray).
template <typename T>
class AtomicArray : public ArrayBase<AtomicArray<T>, T> {
 public:
  AtomicArray() = default;

  static AtomicArray create(World& world, global_index len, Distribution dist,
                            const Team* team = nullptr) {
    const Team& t = team != nullptr ? *team : world.team();
    AtomicArray out;
    out.adopt(array_detail::create_state<T>(world, t, len, dist,
                                            kNativeAtomicCapable<T>
                                                ? ArrayMode::kAtomicNative
                                                : ArrayMode::kAtomicGeneric));
    return out;
  }

  /// True when element atomicity is provided by hardware atomics.
  [[nodiscard]] bool is_native() const {
    return this->state_->mode == ArrayMode::kAtomicNative;
  }

  LAMELLAR_DEFINE_ALL_ELEMENT_OPS()

  /// Atomic load of a local element (no raw slab access on AtomicArray).
  [[nodiscard]] T load_local(std::size_t local_index) const {
    return array_detail::read_one<T>(*this->state_, local_index);
  }
};

/// LocalLockArray: each PE's slab is guarded by one readers-writer lock.
template <typename T>
class LocalLockArray : public ArrayBase<LocalLockArray<T>, T> {
 public:
  LocalLockArray() = default;

  static LocalLockArray create(World& world, global_index len,
                               Distribution dist,
                               const Team* team = nullptr) {
    const Team& t = team != nullptr ? *team : world.team();
    LocalLockArray out;
    out.adopt(array_detail::create_state<T>(world, t, len, dist,
                                            ArrayMode::kLocalLock));
    return out;
  }

  LAMELLAR_DEFINE_ALL_ELEMENT_OPS()

  /// RAII shared (read) access to the local slab.
  class ReadGuard {
   public:
    ReadGuard(std::shared_mutex& mu, std::span<const T> data)
        : lock_(mu), data_(data) {}
    [[nodiscard]] std::span<const T> data() const { return data_; }

   private:
    std::shared_lock<std::shared_mutex> lock_;
    std::span<const T> data_;
  };

  /// RAII exclusive (write) access to the local slab.
  class WriteGuard {
   public:
    WriteGuard(std::shared_mutex& mu, std::span<T> data)
        : lock_(mu), data_(data) {}
    [[nodiscard]] std::span<T> data() const { return data_; }

   private:
    std::unique_lock<std::shared_mutex> lock_;
    std::span<T> data_;
  };

  [[nodiscard]] ReadGuard read_local_data() const {
    auto [lo, hi] =
        this->state_->local_view_range(this->view_start_, this->view_len_);
    return ReadGuard(*this->state_->local_lock,
                     std::span<const T>(this->state_->local_slab())
                         .subspan(lo, hi - lo));
  }

  [[nodiscard]] WriteGuard write_local_data() {
    auto [lo, hi] =
        this->state_->local_view_range(this->view_start_, this->view_len_);
    return WriteGuard(*this->state_->local_lock,
                      this->state_->local_slab().subspan(lo, hi - lo));
  }
};

#undef LAMELLAR_DEFINE_ALL_ELEMENT_OPS
#undef LAMELLAR_DEFINE_ELEMENT_OP

// ---- conversions ------------------------------------------------------------

template <typename Derived, typename T>
UnsafeArray<T> ArrayBase<Derived, T>::into_unsafe() && {
  return convert_to<UnsafeArray<T>>(ArrayMode::kUnsafe, "into_unsafe");
}

template <typename Derived, typename T>
ReadOnlyArray<T> ArrayBase<Derived, T>::into_read_only() && {
  return convert_to<ReadOnlyArray<T>>(ArrayMode::kReadOnly, "into_read_only");
}

template <typename Derived, typename T>
AtomicArray<T> ArrayBase<Derived, T>::into_atomic() && {
  return convert_to<AtomicArray<T>>(kNativeAtomicCapable<T>
                                        ? ArrayMode::kAtomicNative
                                        : ArrayMode::kAtomicGeneric,
                                    "into_atomic");
}

template <typename Derived, typename T>
LocalLockArray<T> ArrayBase<Derived, T>::into_local_lock() && {
  return convert_to<LocalLockArray<T>>(ArrayMode::kLocalLock,
                                       "into_local_lock");
}

}  // namespace lamellar
