// LamellarArray iterators (paper Sec. III-F4).
//
// * LocalIterator — one-sided *parallel* iteration over the calling PE's
//   local data: chunks are executed as tasks on the PE's work-stealing
//   pool; the returned future completes when every chunk has run.
// * DistributedIterator — the collective flavour: every member PE iterates
//   its own data in parallel (call it on all PEs); collect() materializes
//   results across PEs in global order.
// * OneSidedIterator — *serial* iteration over the whole array from one PE,
//   pulling remote slabs chunk-wise through the runtime.
//
// Adapters: map / filter / enumerate compose into the value pipeline;
// skip / step_by / take are position selectors applied to the source index
// space (they must be applied before filter/map consume the indexing, as
// with Rust's indexed parallel iterators — misuse throws).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/array/array_ams.hpp"
#include "core/array/expr_fuse.hpp"

namespace lamellar {
namespace array_detail {

/// Read element `local` under the array's safety regime.
template <typename T>
T read_one(ArrayState<T>& st, std::size_t local) {
  return apply_one<T>(st, local, OpCode::kLoad, T{});
}

/// Identity pipeline stage: emit(value).
struct IdentityPipe {
  template <typename V, typename Emit>
  void feed(global_index, V&& v, Emit&& emit) const {
    emit(std::forward<V>(v));
  }
};

template <typename P, typename F>
struct MapPipe {
  P parent;
  F fn;
  template <typename V, typename Emit>
  void feed(global_index gi, V&& v, Emit&& emit) const {
    parent.feed(gi, std::forward<V>(v), [&](auto&& u) {
      emit(fn(std::forward<decltype(u)>(u)));
    });
  }
};

template <typename P, typename F>
struct FilterPipe {
  P parent;
  F pred;
  template <typename V, typename Emit>
  void feed(global_index gi, V&& v, Emit&& emit) const {
    parent.feed(gi, std::forward<V>(v), [&](auto&& u) {
      if (pred(u)) emit(std::forward<decltype(u)>(u));
    });
  }
};

/// Emits (global_index, value) pairs.
template <typename P>
struct EnumeratePipe {
  P parent;
  template <typename V, typename Emit>
  void feed(global_index gi, V&& v, Emit&& emit) const {
    parent.feed(gi, std::forward<V>(v), [&](auto&& u) {
      emit(std::make_pair(gi, std::forward<decltype(u)>(u)));
    });
  }
};

/// The source positions an iterator visits: local slots selected by
/// skip/step_by/take over this PE's local length.
struct Selection {
  std::size_t skip = 0;
  std::size_t step = 1;
  std::size_t take = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t count(std::size_t local_len) const {
    if (skip >= local_len) return 0;
    const std::size_t avail = (local_len - skip + step - 1) / step;
    return std::min(avail, take);
  }
  [[nodiscard]] std::size_t position(std::size_t k) const {
    return skip + k * step;
  }
};

/// Parallel driver: run `body(first,last)` over [0,n) in pool chunks;
/// returns a future completing when all chunks ran.
inline Future<Unit> parallel_chunks(
    World& world, std::size_t n,
    std::function<void(std::size_t, std::size_t)> body,
    std::size_t min_chunk) {
  auto gather = std::make_shared<UnitGather>();
  if (n == 0) {
    gather->promise.set_value(Unit{});
    return gather->promise.future();
  }
  const std::size_t workers = std::max<std::size_t>(world.pool().num_workers(), 1);
  const std::size_t chunk =
      std::max(min_chunk, ceil_div(n, workers * 4));
  const std::size_t nchunks = ceil_div(n, chunk);
  gather->remaining = nchunks;
  auto future = gather->promise.future();
  auto shared_body =
      std::make_shared<std::function<void(std::size_t, std::size_t)>>(
          std::move(body));
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t first = c * chunk;
    const std::size_t last = std::min(n, first + chunk);
    world.pool().spawn([gather, shared_body, first, last] {
      (*shared_body)(first, last);
      finish_unit(gather);
    });
  }
  return future;
}

inline Future<Unit> parallel_chunks(
    World& world, std::size_t n,
    std::function<void(std::size_t, std::size_t)> body) {
  return parallel_chunks(world, n, std::move(body), 1024);
}

}  // namespace array_detail

/// Parallel iterator over the calling PE's local elements (LocalIterator),
/// or — when constructed via dist_iter() — the per-PE piece of a collective
/// distributed iteration (DistributedIterator).  `Pipe` is the composed
/// value pipeline.
template <typename T, typename Pipe = array_detail::IdentityPipe>
class LocalIter {
 public:
  LocalIter(Darc<ArrayState<T>> state, std::size_t view_start,
            std::size_t view_len, bool distributed, Pipe pipe,
            array_detail::Selection sel, const char* impure_adapter)
      : state_(std::move(state)),
        view_start_(view_start),
        view_len_(view_len),
        distributed_(distributed),
        pipe_(std::move(pipe)),
        sel_(sel),
        impure_adapter_(impure_adapter) {}

  /// Transform each element.
  template <typename F>
  auto map(F fn) && {
    using NewPipe = array_detail::MapPipe<Pipe, F>;
    return LocalIter<T, NewPipe>(std::move(state_), view_start_, view_len_,
                                 distributed_,
                                 NewPipe{std::move(pipe_), std::move(fn)},
                                 sel_, first_impure("map"));
  }

  /// Keep elements satisfying `pred`.
  template <typename F>
  auto filter(F pred) && {
    using NewPipe = array_detail::FilterPipe<Pipe, F>;
    return LocalIter<T, NewPipe>(std::move(state_), view_start_, view_len_,
                                 distributed_,
                                 NewPipe{std::move(pipe_), std::move(pred)},
                                 sel_, first_impure("filter"));
  }

  /// Pair each element with its *global* index.
  auto enumerate() && {
    using NewPipe = array_detail::EnumeratePipe<Pipe>;
    return LocalIter<T, NewPipe>(std::move(state_), view_start_, view_len_,
                                 distributed_, NewPipe{std::move(pipe_)},
                                 sel_, first_impure("enumerate"));
  }

  LocalIter skip(std::size_t n) && {
    require_positions("skip");
    sel_.skip += n * sel_.step;
    return std::move(*this);
  }

  LocalIter step_by(std::size_t k) && {
    require_positions("step_by");
    if (k == 0) throw Error("step_by(0)");
    sel_.step *= k;
    return std::move(*this);
  }

  LocalIter take(std::size_t n) && {
    require_positions("take");
    sel_.take = std::min(sel_.take, n);
    return std::move(*this);
  }

  /// Run `fn` on every (piped) element, in parallel chunks on the pool.
  /// Await the future to ensure completion (paper Sec. III-F4).
  template <typename F>
  Future<Unit> for_each(F fn) && {
    ArrayState<T>& st = *state_;
    const std::size_t n = sel_.count(local_len());
    auto state = state_;  // keep alive inside tasks
    auto pipe = pipe_;
    auto sel = sel_;
    const std::size_t base = local_base();
    return array_detail::parallel_chunks(
        *st.world, n,
        [state, pipe, sel, base, fn = std::move(fn)](std::size_t first,
                                                     std::size_t last) {
          ArrayState<T>& s = *state;
          for (std::size_t k = first; k < last; ++k) {
            const std::size_t local = base + sel.position(k);
            const global_index gi = s.map.global_of(s.my_rank(), local);
            pipe.feed(gi, array_detail::read_one<T>(s, local),
                      [&](auto&& v) { fn(std::forward<decltype(v)>(v)); });
          }
        });
  }

  /// Collect the piped elements of the *local* portion into a vector,
  /// in local order.
  template <typename U = T>
  std::vector<U> collect_vec_local() && {
    ArrayState<T>& st = *state_;
    const std::size_t n = sel_.count(local_len());
    const std::size_t base = local_base();
    std::vector<U> out;
    out.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t local = base + sel_.position(k);
      const global_index gi = st.map.global_of(st.my_rank(), local);
      pipe_.feed(gi, array_detail::read_one<T>(st, local),
                 [&](auto&& v) { out.push_back(std::forward<decltype(v)>(v)); });
    }
    return out;
  }

  /// Sequential local fold over the piped elements.
  template <typename U, typename F>
  U fold_local(U init, F op) && {
    ArrayState<T>& st = *state_;
    const std::size_t n = sel_.count(local_len());
    const std::size_t base = local_base();
    U acc = std::move(init);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t local = base + sel_.position(k);
      const global_index gi = st.map.global_of(st.my_rank(), local);
      pipe_.feed(gi, array_detail::read_one<T>(st, local),
                 [&](auto&& v) { acc = op(std::move(acc), v); });
    }
    return acc;
  }

  /// Reduce the piped elements with `op`.  A plain `dist_iter().reduce(...)`
  /// (identity pipeline, whole view) folds each PE's slab through the same
  /// hoisted-dispatch scan the tree reduce uses; adapted pipelines fold
  /// serially through the pipe.  Distributed iterators combine the per-PE
  /// partials through ONE collective binomial tree (every member rendezvous
  /// on a team-ordered id and the root broadcasts the result back), so the
  /// whole combinator costs one tree instead of size() independent ones.
  Future<T> reduce(ReduceOp op) && {
    ArrayState<T>& st = *state_;
    T partial;
    bool fast = false;
    if constexpr (std::is_same_v<Pipe, array_detail::IdentityPipe>) {
      if (sel_.skip == 0 && sel_.step == 1 &&
          sel_.take == static_cast<std::size_t>(-1)) {
        auto [lo, hi] = st.local_view_range(view_start_, view_len_);
        partial = array_detail::local_reduce_scan<T>(st, op, lo, hi);
        fast = true;
      }
    }
    if (!fast) {
      T acc = reduce_identity<T>(op);
      const std::size_t n = sel_.count(local_len());
      const std::size_t base = local_base();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t local = base + sel_.position(k);
        const global_index gi = st.map.global_of(st.my_rank(), local);
        pipe_.feed(gi, array_detail::read_one<T>(st, local), [&](auto&& v) {
          acc = reduce_fold<T>(op, acc, static_cast<T>(v));
        });
      }
      partial = acc;
    }
    if (!distributed_) return ready_future(partial);
    return array_detail::collective_combine<T>(state_, op, partial);
  }

  Future<T> sum() && { return std::move(*this).reduce(ReduceOp::kSum); }
  Future<T> prod() && { return std::move(*this).reduce(ReduceOp::kProd); }
  Future<T> min() && { return std::move(*this).reduce(ReduceOp::kMin); }
  Future<T> max() && { return std::move(*this).reduce(ReduceOp::kMax); }

  [[nodiscard]] bool is_distributed() const { return distributed_; }

 private:
  // Selectors act on source positions, so they are illegal once the value
  // pipeline has consumed the indexing; name the FIRST offending adapter so
  // the diagnosis points at the composition site, not the dispatch site.
  void require_positions(const char* what) const {
    if (impure_adapter_ != nullptr) {
      throw Error(std::string(what) + " must precede " + impure_adapter_ +
                  " on parallel iterators (position selectors apply to the "
                  "source index space; move ." +
                  what + "(...) before ." + impure_adapter_ + "(...))");
    }
  }

  [[nodiscard]] const char* first_impure(const char* self) const {
    return impure_adapter_ != nullptr ? impure_adapter_ : self;
  }

  // The contiguous portion of the local slab covered by the view.
  [[nodiscard]] std::size_t local_base() const {
    return state_->local_view_range(view_start_, view_len_).first;
  }
  [[nodiscard]] std::size_t local_len() const {
    auto [lo, hi] = state_->local_view_range(view_start_, view_len_);
    return hi - lo;
  }

  Darc<ArrayState<T>> state_;
  std::size_t view_start_;
  std::size_t view_len_;
  bool distributed_;
  Pipe pipe_;
  array_detail::Selection sel_;
  const char* impure_adapter_;  // nullptr while the index space is intact
};

/// Serial one-sided iterator over the *entire* array from the calling PE,
/// pulling remote data chunk-wise (paper: OneSidedIterator).
template <typename T>
class OneSidedIter {
 public:
  OneSidedIter(Darc<ArrayState<T>> state, std::size_t view_start,
               std::size_t view_len, std::size_t buffer_elems)
      : state_(std::move(state)),
        view_start_(view_start),
        view_len_(view_len),
        buffer_elems_(std::max<std::size_t>(buffer_elems, 1)) {}

  OneSidedIter& skip(std::size_t n) {
    cursor_ = std::min(view_len_, cursor_ + n * step_);
    buffer_.clear();
    buffer_pos_ = 0;
    return *this;
  }

  OneSidedIter& step_by(std::size_t k) {
    if (k == 0) throw Error("step_by(0)");
    step_ *= k;
    buffer_.clear();
    buffer_pos_ = 0;
    return *this;
  }

  /// Next element, or nullopt at the end.
  std::optional<T> next() {
    if (buffer_pos_ >= buffer_.size()) {
      if (!refill()) return std::nullopt;
    }
    return buffer_[buffer_pos_++];
  }

  /// Next `n` elements (fewer at the end).
  std::vector<T> next_chunk(std::size_t n) {
    std::vector<T> out;
    out.reserve(n);
    while (out.size() < n) {
      auto v = next();
      if (!v) break;
      out.push_back(*v);
    }
    return out;
  }

  /// Drain the remainder into a vector.
  std::vector<T> collect_vec() {
    std::vector<T> out;
    while (auto v = next()) out.push_back(*v);
    return out;
  }

 private:
  bool refill();

  Darc<ArrayState<T>> state_;
  std::size_t view_start_;
  std::size_t view_len_;
  std::size_t buffer_elems_;
  std::size_t cursor_ = 0;
  std::size_t step_ = 1;
  std::vector<T> buffer_;
  std::size_t buffer_pos_ = 0;
};

template <typename T>
bool OneSidedIter<T>::refill() {
  if (cursor_ >= view_len_) return false;
  ArrayState<T>& st = *state_;
  // Fetch the next contiguous window and subsample by step locally: the
  // runtime manages the transfer (paper), the iterator stays serial.
  const std::size_t window =
      std::min(buffer_elems_ * step_, view_len_ - cursor_);
  std::vector<global_index> idxs;
  idxs.reserve(ceil_div(window, step_));
  for (std::size_t off = 0; off < window; off += step_) {
    idxs.push_back(cursor_ + off);
  }
  // A zero-stage chain: the fused batch_load.
  buffer_ = st.world->block_on(array_detail::dispatch_chain<std::vector<T>>(
      state_, view_start_, view_len_, idxs, {}, FetchMode::kPre,
      std::identity{}));
  buffer_pos_ = 0;
  cursor_ += window;
  return !buffer_.empty();
}

}  // namespace lamellar
