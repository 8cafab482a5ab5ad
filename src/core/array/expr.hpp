// Lazy expression chains over LamellarArray (DESIGN.md §11).
//
// `arr.lazy()` returns a LazyChain: element-op calls on it RECORD stages
// instead of dispatching.  Consecutive stages against the same index span
// fuse into one group; when the index span changes (or the terminal runs)
// the open group flushes through fuse_dispatch — one plan pass, one AM per
// destination lane, the whole stage chain applied in a single owner-side
// load-fold-store pass per element.  Terminals:
//
//   materialize()  -> Future<Unit>            all groups applied
//   gather(idxs)   -> Future<std::vector<T>>  post-chain values of `idxs`
//                                             (fuses with the open group
//                                             when the spans match)
//   reduce(op)     -> Future<T>               all groups applied, then the
//                                             PR-5 combining-tree reduce
//                                             over the view as the chain's
//                                             terminal stage
//
// Lifetime rules (fusion legality in DESIGN.md §11): index and per-element
// operand spans are borrowed and must outlive the group's flush (the next
// record call with a different span, the terminal, or the chain's
// destruction — all inside the caller's frame).  Groups of one chain are
// unordered with respect to each other, exactly like un-awaited eager
// batches; stages *within* a group fold in program order, atomically per
// element.  Destroying a chain without a terminal dispatches any open
// group fire-and-forget (use world.wait_all() to drain).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/array/expr_fuse.hpp"

namespace lamellar {

template <typename T>
class LazyChain {
 public:
  /// Stages recorded against one index span before the group auto-flushes;
  /// longer chains split into multiple groups transparently.
  static constexpr std::size_t kMaxStages = 16;

  LazyChain(Darc<ArrayState<T>> state, std::size_t view_start,
            std::size_t view_len)
      : state_(std::move(state)),
        view_start_(view_start),
        view_len_(view_len) {}

  LazyChain(const LazyChain&) = delete;
  LazyChain& operator=(const LazyChain&) = delete;
  LazyChain(LazyChain&& other) noexcept
      : state_(std::move(other.state_)),
        view_start_(other.view_start_),
        view_len_(other.view_len_),
        run_(std::move(other.run_)),
        open_idxs_(other.open_idxs_),
        stages_(other.stages_),
        nstages_(other.nstages_),
        groups_(other.groups_),
        open_(other.open_),
        released_(other.released_) {
    other.open_ = false;
    other.released_ = true;  // the moved-from shell owns nothing to flush
  }

  ~LazyChain() {
    if (!released_) {
      flush_open(/*fetch=*/false);
      release(UniqueFunction<void()>{[] {}});
    }
  }

  // ---- recording: scatter-combine stages ----

  LazyChain& add(std::span<const global_index> idxs, T v) {
    return record(OpCode::kAdd, idxs, v);
  }
  LazyChain& add(std::span<const global_index> idxs, std::span<const T> vals) {
    return record(OpCode::kAdd, idxs, vals);
  }
  LazyChain& sub(std::span<const global_index> idxs, T v) {
    return record(OpCode::kSub, idxs, v);
  }
  LazyChain& sub(std::span<const global_index> idxs, std::span<const T> vals) {
    return record(OpCode::kSub, idxs, vals);
  }
  LazyChain& mul(std::span<const global_index> idxs, T v) {
    return record(OpCode::kMul, idxs, v);
  }
  LazyChain& mul(std::span<const global_index> idxs, std::span<const T> vals) {
    return record(OpCode::kMul, idxs, vals);
  }
  LazyChain& div(std::span<const global_index> idxs, T v) {
    return record(OpCode::kDiv, idxs, v);
  }
  LazyChain& rem(std::span<const global_index> idxs, T v) {
    return record(OpCode::kRem, idxs, v);
  }
  LazyChain& bit_and(std::span<const global_index> idxs, T v) {
    return record(OpCode::kAnd, idxs, v);
  }
  LazyChain& bit_or(std::span<const global_index> idxs, T v) {
    return record(OpCode::kOr, idxs, v);
  }
  LazyChain& bit_xor(std::span<const global_index> idxs, T v) {
    return record(OpCode::kXor, idxs, v);
  }
  LazyChain& shl(std::span<const global_index> idxs, T v) {
    return record(OpCode::kShl, idxs, v);
  }
  LazyChain& shr(std::span<const global_index> idxs, T v) {
    return record(OpCode::kShr, idxs, v);
  }
  LazyChain& store(std::span<const global_index> idxs, T v) {
    return record(OpCode::kStore, idxs, v);
  }
  LazyChain& store(std::span<const global_index> idxs,
                   std::span<const T> vals) {
    return record(OpCode::kStore, idxs, vals);
  }

  /// Number of groups flushed so far plus the open one (diagnostics).
  [[nodiscard]] std::size_t groups() const {
    return groups_ + (open_ ? 1 : 0);
  }

  // ---- terminals ----

  /// Flush everything; the future completes when every group's every chunk
  /// has been applied on its owner.
  Future<Unit> materialize() {
    check_terminal("materialize");
    flush_open(/*fetch=*/false);
    if (!run_) {
      released_ = true;
      return ready_future(Unit{});
    }
    Promise<Unit> promise;
    auto fut = promise.future();
    release(UniqueFunction<void()>{
        [promise]() mutable { promise.set_value(Unit{}); }});
    return fut;
  }

  /// Post-chain values of `idxs`, in caller order.  When `idxs` is the open
  /// group's span the fetch fuses into that group's single AM pass; a pure
  /// gather (no recorded stages) is an empty chain with fetch — the fused
  /// batch_load.
  Future<std::vector<T>> gather(std::span<const global_index> idxs) {
    check_terminal("gather");
    for (auto i : idxs) check_range(i);
    if (open_ && same_idxs(idxs)) {
      flush_open(/*fetch=*/true);
    } else {
      flush_open(/*fetch=*/false);
      open_ = true;
      open_idxs_ = idxs;
      nstages_ = 0;
      flush_open(/*fetch=*/true);
    }
    Promise<std::vector<T>> promise;
    auto fut = promise.future();
    array_detail::FusedRun<T>* self = run_.get();
    release(UniqueFunction<void()>{[promise, self]() mutable {
      promise.set_value(std::move(self->out));
    }});
    return fut;
  }

  /// Flush everything, then run the combining-tree reduction over the whole
  /// view as the chain's terminal stage: the tree launches from whatever
  /// context observes the last chunk completion, so no caller ever blocks
  /// between the chain and its reduction.
  Future<T> reduce(ReduceOp op) {
    check_terminal("reduce");
    flush_open(/*fetch=*/false);
    Promise<T> promise;
    auto fut = promise.future();
    if (!run_) {
      released_ = true;
      array_detail::start_tree_reduce<T>(state_, view_start_, view_len_, op,
                                         std::move(promise));
      return fut;
    }
    release(UniqueFunction<void()>{
        [state = state_, vs = view_start_, vl = view_len_, op,
         promise]() mutable {
          array_detail::start_tree_reduce<T>(state, vs, vl, op,
                                             std::move(promise));
        }});
    return fut;
  }

  Future<T> sum() { return reduce(ReduceOp::kSum); }
  Future<T> prod() { return reduce(ReduceOp::kProd); }
  Future<T> min() { return reduce(ReduceOp::kMin); }
  Future<T> max() { return reduce(ReduceOp::kMax); }

 private:
  using StageRec = FusedStageRec<T>;

  void check_range(global_index i) const {
    if (i >= view_len_) {
      throw Error("lazy chain index " + std::to_string(i) +
                  " out of bounds (len " + std::to_string(view_len_) + ")");
    }
  }

  void check_terminal(const char* what) const {
    if (released_) {
      throw Error(std::string("lazy chain ") + what +
                  " after the chain was already terminated");
    }
  }

  [[nodiscard]] bool same_idxs(std::span<const global_index> idxs) const {
    if (open_idxs_.size() != idxs.size()) return false;
    if (open_idxs_.data() == idxs.data()) return true;
    return std::equal(idxs.begin(), idxs.end(), open_idxs_.begin());
  }

  LazyChain& record(OpCode op, std::span<const global_index> idxs, T v) {
    StageRec rec;
    rec.op = op;
    rec.per_elem = false;
    rec.scalar = v;
    return push(idxs, rec);
  }

  LazyChain& record(OpCode op, std::span<const global_index> idxs,
                    std::span<const T> vals) {
    if (vals.size() != idxs.size()) {
      throw Error("lazy chain op: indices and values must pair one-to-one");
    }
    StageRec rec;
    rec.op = op;
    rec.per_elem = true;
    rec.vals = vals.data();
    return push(idxs, rec);
  }

  LazyChain& push(std::span<const global_index> idxs, const StageRec& rec) {
    check_terminal("record");
    if (state_->mode == ArrayMode::kReadOnly && rec.op != OpCode::kLoad) {
      throw Error("lazy chain: mutating stage recorded on a read-only array");
    }
    for (auto i : idxs) check_range(i);
    if (open_ && (!same_idxs(idxs) || nstages_ == kMaxStages)) {
      flush_open(/*fetch=*/false);
    }
    if (!open_) {
      open_ = true;
      open_idxs_ = idxs;
      nstages_ = 0;
    }
    stages_[nstages_++] = rec;
    return *this;
  }

  void flush_open(bool fetch) {
    if (!open_ && !fetch) return;
    if (!run_) run_ = std::make_shared<array_detail::FusedRun<T>>();
    array_detail::fuse_dispatch<T>(
        state_, view_start_, view_len_, open_idxs_,
        std::span<const StageRec>(stages_.data(), nstages_),
        fetch ? FetchMode::kPost : FetchMode::kNone, run_);
    ++groups_;
    open_ = false;
    nstages_ = 0;
    open_idxs_ = {};
  }

  /// Store the terminal action and drop the recorder's hold; if every chunk
  /// already completed this invokes the action inline.  A chain that never
  /// dispatched (e.g. a record threw before the first flush) has no run —
  /// the action fires immediately.
  void release(UniqueFunction<void()> action) {
    released_ = true;
    if (!run_) {
      action();
      return;
    }
    run_->on_complete = std::move(action);
    run_->complete_one();
  }

  Darc<ArrayState<T>> state_;
  std::size_t view_start_;
  std::size_t view_len_;
  std::shared_ptr<array_detail::FusedRun<T>> run_;
  std::span<const global_index> open_idxs_{};
  std::array<StageRec, kMaxStages> stages_{};
  std::size_t nstages_ = 0;
  std::size_t groups_ = 0;
  bool open_ = false;
  bool released_ = false;
};

}  // namespace lamellar
