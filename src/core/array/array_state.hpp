// Shared state behind every LamellarArray type, plus the owner-side
// element-operation machinery (paper Sec. III-F).
//
// All five array types (Unsafe, ReadOnly, Atomic{Native,Generic}, LocalLock)
// are views over one ArrayState, owned by a Darc, so conversions between
// types are O(1) once the uniqueness check passes.  Element and batch
// operations execute *on the owner PE* — that PE applies the op under its
// type's safety regime (direct / atomic / per-element mutex / PE-wide
// rwlock), which is exactly how the paper's safe arrays emulate RDMA.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/array/distribution.hpp"
#include "core/memregion/shared_region.hpp"
#include "core/scheduler/future.hpp"
#include "core/world/world.hpp"
#include "obs/metrics.hpp"

namespace lamellar {

/// Safety regime currently owning the underlying data.
enum class ArrayMode : std::uint8_t {
  kUnsafe,
  kReadOnly,
  kAtomicNative,
  kAtomicGeneric,
  kLocalLock,
};

/// Element operations (paper Sec. III-F3): arithmetic, bit-wise, shifts,
/// store/load/swap and compare-exchange, each with an optional fetch form.
enum class OpCode : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kStore,
  kLoad,
  kSwap,
  kCompareExchange,
};

/// Which element values a fused dispatch returns: none, the values from
/// before the chain (eager fetch ops and loads), or the values after it
/// (the lazy gather terminal).
enum class FetchMode : std::uint8_t { kNone, kPre, kPost };

/// Result of a compare-exchange: the value observed and whether it swapped.
template <typename T>
struct CexResult {
  T current{};
  std::uint8_t success = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(current, success);
  }
};

/// The outcome of a compare-exchange, rebuilt from the value the owner saw
/// before the stage: it swapped exactly when that value was `expected`.
template <typename T>
CexResult<T> cex_result(T prev, T expected) {
  const bool ok = prev == expected;
  return {ok ? expected : prev, static_cast<std::uint8_t>(ok)};
}

template <typename T>
constexpr bool kNativeAtomicCapable =
    std::is_integral_v<T> && sizeof(T) <= 8 && sizeof(T) >= 1;

enum class ReduceOp : std::uint8_t { kSum, kProd, kMin, kMax };

/// One stage of a fused element-op chain as it travels on the wire: the op
/// plus whether its operand region carries one value per element or a single
/// shared value.  POD (2 bytes, alignment 1) so a chain's stage table
/// serializes as a plain element span.
struct FusedStage {
  OpCode op = OpCode::kAdd;
  std::uint8_t per_elem = 0;
};
static_assert(std::is_trivially_copyable_v<FusedStage> &&
              sizeof(FusedStage) == 2);

/// Operand slots one stage occupies in a chunk of `n` elements: one per
/// element or one shared value, plus the shared `expected` that leads a
/// compare-exchange stage's region.
inline std::size_t stage_slots(const FusedStage& s, std::size_t n) {
  return (s.per_elem != 0 ? n : 1) +
         (s.op == OpCode::kCompareExchange ? 1 : 0);
}

/// Length of a chunk's concatenated operand region.
inline std::size_t region_len(std::span<const FusedStage> stages,
                              std::size_t n) {
  std::size_t total = 0;
  for (const FusedStage& s : stages) total += stage_slots(s, n);
  return total;
}

/// One recorded stage of a chain on the caller side: the op plus its
/// operand source — a shared scalar, or a borrowed pointer into the
/// caller's per-element value buffer (which must stay alive until the
/// chain group flushes; see DESIGN.md §11).
template <typename T>
struct FusedStageRec {
  OpCode op = OpCode::kAdd;
  bool per_elem = false;
  T scalar{};               ///< shared operand when !per_elem
  const T* vals = nullptr;  ///< caller operand buffer when per_elem
  T expected{};             ///< compare-exchange: the shared expected value

  [[nodiscard]] FusedStage wire() const {
    return {op, static_cast<std::uint8_t>(per_elem ? 1 : 0)};
  }

  /// Slot `r` of this stage's operand region for a chunk whose caller
  /// positions are `pos`.
  T operand(std::size_t r, std::span<const std::size_t> pos) const {
    if (op == OpCode::kCompareExchange) {
      if (r == 0) return expected;
      --r;
    }
    return per_elem ? vals[pos[r]] : scalar;
  }
};

/// Collective reductions (iterator reduce) allocate their tree ids in a
/// dedicated space so they can never collide with one-sided reduce ids
/// ((root << 40) | seq): PEs number in 32 bits, so bit 62 is unreachable.
inline constexpr std::uint64_t kCollectiveReduceId = 1ull << 62;

template <typename T>
struct ArrayState {
  World* world = nullptr;
  Team team;
  SharedMemoryRegion<T> data;
  DistributionMap map;
  ArrayMode mode = ArrayMode::kUnsafe;

  /// LocalLockArray: one PE-wide readers-writer lock.
  std::unique_ptr<std::shared_mutex> local_lock;

  /// GenericAtomicArray: a 1-byte mutex per local element.
  std::unique_ptr<std::atomic<std::uint8_t>[]> elem_locks;
  std::size_t elem_locks_len = 0;

  // Batched-op pipeline metrics ("array.*"), resolved once in create_state
  // from this PE's registry (inert slots when metrics are disabled).
  obs::Counter* ops_batched = nullptr;
  obs::Counter* chunk_bytes_inline = nullptr;
  obs::Counter* plan_allocs = nullptr;
  // Lazy-chain fusion metrics: chain length per flushed group, and the
  // number of eager AM passes each fused dispatch avoided.
  obs::Counter* fused_ams_saved = nullptr;
  obs::Histogram* fused_chain_len = nullptr;

  /// One in-flight node of an async combining-tree reduction on this PE.
  /// The root fans every ReduceStartAm out directly, so a fast child's
  /// partial can arrive before this node's own start — contributions
  /// therefore fold order-tolerantly (`touched`/`remaining` go negative
  /// until `init` adds the expected count).  The final contribution either
  /// completes the root promise or forwards the folded value to
  /// `parent_rank`.
  struct ReduceNode {
    T acc{};
    ReduceOp op = ReduceOp::kSum;
    std::int64_t remaining = 0;  ///< outstanding contributions once `init`
    std::uint32_t parent_rank = 0;
    bool init = false;     ///< start arrived: remaining/parent/root valid
    bool touched = false;  ///< acc holds at least one folded value
    bool root = false;
    bool bcast = false;  ///< root of a collective: fan result to the team
    Promise<T> promise;  ///< meaningful only when `root`
  };
  struct ReduceCoord {
    std::mutex mu;
    std::unordered_map<std::uint64_t, ReduceNode> nodes;
    std::uint64_t next_seq = 0;
    /// Collective (iterator) reductions: every PE draws the same id from
    /// its own ordered counter and non-roots park their result promise
    /// here until the root's ReduceResultAm broadcast lands.
    std::uint64_t next_collective = 0;
    std::unordered_map<std::uint64_t, Promise<T>> pending_results;
  };
  std::unique_ptr<ReduceCoord> reduce_coord =
      std::make_unique<ReduceCoord>();

  ArrayState() = default;
  ArrayState(ArrayState&&) noexcept = default;
  ArrayState(const ArrayState&) = delete;
  ArrayState& operator=(const ArrayState&) = delete;

  [[nodiscard]] std::span<T> local_slab() { return data.unsafe_local_slice(); }

  [[nodiscard]] std::size_t my_rank() const { return team.my_rank(); }

  void ensure_elem_locks() {
    if (elem_locks) return;
    elem_locks_len = map.per_rank_capacity();
    elem_locks.reset(new std::atomic<std::uint8_t>[elem_locks_len]);
    for (std::size_t i = 0; i < elem_locks_len; ++i) elem_locks[i].store(0);
  }

  void ensure_local_lock() {
    if (!local_lock) local_lock = std::make_unique<std::shared_mutex>();
  }

  /// The contiguous range of *local* slots whose global indices fall inside
  /// the view [view_start, view_start + view_len).  Contiguity holds for
  /// both distributions: block views clip the slab; cyclic views stride
  /// uniformly, which is contiguous in local-slot space.
  [[nodiscard]] std::pair<std::size_t, std::size_t> local_view_range(
      global_index view_start, std::size_t view_len) const {
    const std::size_t rank = team.my_rank();
    const std::size_t llen = map.local_len(rank);
    if (view_len == 0 || llen == 0) return {0, 0};
    const global_index s = view_start;
    const global_index e = view_start + view_len;  // exclusive
    if (map.dist() == Distribution::kBlock) {
      const global_index base = rank * map.per_rank_capacity();
      const std::size_t lo =
          s > base ? std::min<std::size_t>(s - base, llen) : 0;
      const std::size_t hi =
          e > base ? std::min<std::size_t>(e - base, llen) : 0;
      return {lo, hi};
    }
    const std::size_t n = map.num_ranks();
    const std::size_t lo =
        s > rank ? std::min<std::size_t>(ceil_div(s - rank, n), llen) : 0;
    const std::size_t hi =
        e > rank ? std::min<std::size_t>(ceil_div(e - rank, n), llen) : 0;
    return {lo, hi};
  }

  // The state never travels by value; its Darc id does.
  template <class Ar>
  void serialize(Ar&) {
    throw Error("ArrayState is transferred via its Darc id only");
  }
};

namespace array_detail {

/// Spin on a 1-byte mutex (the paper's GenericAtomicArray element guard).
class ByteLockGuard {
 public:
  explicit ByteLockGuard(std::atomic<std::uint8_t>& b) : b_(b) {
    std::uint8_t expected = 0;
    while (!b_.compare_exchange_weak(expected, 1,
                                     std::memory_order_acquire)) {
      expected = 0;
    }
  }
  ~ByteLockGuard() { b_.store(0, std::memory_order_release); }
  ByteLockGuard(const ByteLockGuard&) = delete;
  ByteLockGuard& operator=(const ByteLockGuard&) = delete;

 private:
  std::atomic<std::uint8_t>& b_;
};

/// Pure value-level semantics of an op (no concurrency).
template <typename T>
T combine(OpCode op, T cur, T operand) {
  switch (op) {
    case OpCode::kAdd:
      return cur + operand;
    case OpCode::kSub:
      return cur - operand;
    case OpCode::kMul:
      return cur * operand;
    case OpCode::kDiv:
      return cur / operand;
    case OpCode::kRem:
      if constexpr (std::is_integral_v<T>) {
        return cur % operand;
      } else {
        throw Error("rem on non-integral element type");
      }
    case OpCode::kAnd:
      if constexpr (std::is_integral_v<T>) {
        return cur & operand;
      } else {
        throw Error("bit-op on non-integral element type");
      }
    case OpCode::kOr:
      if constexpr (std::is_integral_v<T>) {
        return cur | operand;
      } else {
        throw Error("bit-op on non-integral element type");
      }
    case OpCode::kXor:
      if constexpr (std::is_integral_v<T>) {
        return cur ^ operand;
      } else {
        throw Error("bit-op on non-integral element type");
      }
    case OpCode::kShl:
      if constexpr (std::is_integral_v<T>) {
        return cur << operand;
      } else {
        throw Error("shift on non-integral element type");
      }
    case OpCode::kShr:
      if constexpr (std::is_integral_v<T>) {
        return cur >> operand;
      } else {
        throw Error("shift on non-integral element type");
      }
    case OpCode::kStore:
    case OpCode::kSwap:
      return operand;
    case OpCode::kLoad:
      return cur;
    case OpCode::kCompareExchange:
      throw Error("compare_exchange handled separately");
  }
  throw Error("unknown op code");
}

/// Call `f` with `op` as a compile-time constant
/// (std::integral_constant<OpCode, op>): one switch, outside whatever loop
/// `f` runs, so each op gets its own inlined loop body.
template <typename F>
decltype(auto) visit_op(OpCode op, F&& f) {
  switch (op) {
#define LAMELLAR_VISIT_OP(CODE) \
  case OpCode::CODE:            \
    return f(std::integral_constant<OpCode, OpCode::CODE>{});
    LAMELLAR_VISIT_OP(kAdd)
    LAMELLAR_VISIT_OP(kSub)
    LAMELLAR_VISIT_OP(kMul)
    LAMELLAR_VISIT_OP(kDiv)
    LAMELLAR_VISIT_OP(kRem)
    LAMELLAR_VISIT_OP(kAnd)
    LAMELLAR_VISIT_OP(kOr)
    LAMELLAR_VISIT_OP(kXor)
    LAMELLAR_VISIT_OP(kShl)
    LAMELLAR_VISIT_OP(kShr)
    LAMELLAR_VISIT_OP(kStore)
    LAMELLAR_VISIT_OP(kLoad)
    LAMELLAR_VISIT_OP(kSwap)
    LAMELLAR_VISIT_OP(kCompareExchange)
#undef LAMELLAR_VISIT_OP
  }
  throw Error("unknown op code");
}

/// One native atomic read-modify-write of op `kOp` on `ref`; returns the
/// previous value.  The ops the ISA has an RMW for use it; mul, div, rem
/// and the shifts run a CAS loop.  Declared inline so that GCC also
/// inlines the CAS loops into the element loops of native_stage_loop.
template <OpCode kOp, typename T>
inline T native_rmw(std::atomic_ref<T> ref, T operand) {
  constexpr auto kAcqRel = std::memory_order_acq_rel;
  if constexpr (kOp == OpCode::kAdd) {
    return ref.fetch_add(operand, kAcqRel);
  } else if constexpr (kOp == OpCode::kSub) {
    return ref.fetch_sub(operand, kAcqRel);
  } else if constexpr (kOp == OpCode::kAnd) {
    return ref.fetch_and(operand, kAcqRel);
  } else if constexpr (kOp == OpCode::kOr) {
    return ref.fetch_or(operand, kAcqRel);
  } else if constexpr (kOp == OpCode::kXor) {
    return ref.fetch_xor(operand, kAcqRel);
  } else if constexpr (kOp == OpCode::kLoad) {
    return ref.load(std::memory_order_acquire);
  } else if constexpr (kOp == OpCode::kStore || kOp == OpCode::kSwap) {
    return ref.exchange(operand, kAcqRel);
  } else {
    T cur = ref.load(std::memory_order_acquire);
    while (!ref.compare_exchange_weak(cur, combine(kOp, cur, operand),
                                      kAcqRel)) {
    }
    return cur;
  }
}

/// The element loop of apply_native_stage for one op.  Everything arrives
/// by value, so the loop keeps it in registers across the RMWs.
template <OpCode kOp, typename T>
void native_stage_loop(T* slab, const std::uint64_t* locals, std::size_t n,
                       const T* ops, bool per_elem, FetchMode fetch,
                       T* results) {
  auto rmw = [slab](std::uint64_t local, T v) {
    return native_rmw<kOp>(std::atomic_ref<T>(slab[local]), v);
  };
  if (results == nullptr) {
    if (per_elem) {
      for (std::size_t j = 0; j < n; ++j) rmw(locals[j], ops[j]);
    } else {
      const T v = ops[0];
      for (std::size_t j = 0; j < n; ++j) rmw(locals[j], v);
    }
    return;
  }
  const bool pre = fetch == FetchMode::kPre;
  const std::size_t stride = per_elem ? 1 : 0;
  for (std::size_t j = 0; j < n; ++j) {
    const T v = ops[j * stride];
    const T prev = rmw(locals[j], v);
    results[j] = pre ? prev : combine(kOp, prev, v);
  }
}

/// A one-stage chain on a native atomic slab: the op's RMW is selected once
/// per chunk and runs inline for every element.  `ops` is the stage's
/// operand region (one shared value or one per element); when `results` is
/// non-null, results[j] receives element j's value from before the op
/// (FetchMode::kPre) or after it (kPost).  Compare-exchange has its own
/// loop in apply_fused_sink.
template <typename T>
void apply_native_stage(T* slab, const FusedStage& s, std::span<const T> ops,
                        std::span<const std::uint64_t> locals,
                        FetchMode fetch, T* results) {
  visit_op(s.op, [&](auto op) {
    native_stage_loop<decltype(op)::value>(slab, locals.data(), locals.size(),
                                           ops.data(), s.per_elem != 0,
                                           fetch, results);
  });
}

/// Apply one op to `slot` under this array mode's safety regime; returns the
/// previous value.  Serves the put/get AMs, fill and single-element reads;
/// element ops go through apply_fused_sink.
template <typename T>
T apply_one(ArrayState<T>& st, std::size_t local, OpCode op, T operand) {
  T* slot = st.local_slab().data() + local;
  switch (st.mode) {
    case ArrayMode::kUnsafe:
    case ArrayMode::kReadOnly: {
      // ReadOnly permits only loads (enforced by the wrapper API).
      // UnsafeArray promises no read-modify-write atomicity: racing updates
      // may lose increments, exactly as the paper specifies.  The individual
      // load and store still go through a relaxed atomic_ref so a racing
      // access is tear-free and not a C++ data race (plain accesses here
      // would be UB and drown TSan in by-design reports).
      if constexpr (kNativeAtomicCapable<T>) {
        std::atomic_ref<T> ref(*slot);
        const T prev = ref.load(std::memory_order_relaxed);
        if (op != OpCode::kLoad)
          ref.store(combine(op, prev, operand), std::memory_order_relaxed);
        return prev;
      } else {
        const T prev = *slot;
        if (op != OpCode::kLoad) *slot = combine(op, prev, operand);
        return prev;
      }
    }
    case ArrayMode::kAtomicNative: {
      if constexpr (kNativeAtomicCapable<T>) {
        return visit_op(op, [&](auto k) {
          return native_rmw<decltype(k)::value>(std::atomic_ref<T>(*slot),
                                                operand);
        });
      }
      throw Error("native atomic mode on incompatible element type");
    }
    case ArrayMode::kAtomicGeneric: {
      ByteLockGuard guard(st.elem_locks[local]);
      const T prev = *slot;
      if (op != OpCode::kLoad) *slot = combine(op, prev, operand);
      return prev;
    }
    case ArrayMode::kLocalLock: {
      // Callers batch under the PE-wide lock; this path takes it per-op.
      std::unique_lock lock(*st.local_lock);
      const T prev = *slot;
      if (op != OpCode::kLoad) *slot = combine(op, prev, operand);
      return prev;
    }
  }
  throw Error("unknown array mode");
}

/// A chunk's concatenated operand region as a generator of slot j, stage
/// by stage (stage_slots each).  Call with j = 0, 1, 2, ... in order — as
/// put_elems_gather does — so the stage cursor only moves forward.
template <typename T>
auto operand_walk(std::span<const FusedStageRec<T>> recs,
                  std::span<const std::size_t> pos, std::size_t n) {
  return [recs, pos, n, si = std::size_t{0},
          base = std::size_t{0}](std::size_t j) mutable {
    while (j - base >= stage_slots(recs[si].wire(), n)) {
      base += stage_slots(recs[si].wire(), n);
      ++si;
    }
    return recs[si].operand(j - base, pos);
  };
}

/// One stage applied to element j's value `cur`; `o` points at the stage's
/// operand region.  A compare-exchange stores its desired value only when
/// `cur` equals the region's leading `expected`.
template <typename T>
T fold_stage(const FusedStage& s, const T* o, std::size_t j, T cur) {
  const std::size_t at = s.per_elem != 0 ? j : 0;
  if (s.op == OpCode::kCompareExchange) return cur == o[0] ? o[1 + at] : cur;
  return combine(s.op, cur, o[at]);
}

/// Apply an op chain to a batch of local slots: per element, one load, a
/// fold of every stage, one store — regardless of chain length.  Every
/// element op runs through here: eager ops are one-stage chains and loads
/// are empty ones.  `ops` is the concatenated operand region (stage_slots
/// per stage).  When `results` is non-null, results[j] receives element j's
/// value from before the chain (FetchMode::kPre) or after it (kPost).
/// Safety regimes match the mode: kAtomicNative folds the whole chain in a
/// single CAS loop (the chain is element-atomic — stronger than k separate
/// atomic ops), kAtomicGeneric holds the element byte lock across the fold,
/// kLocalLock takes the PE-wide lock once for the batch, kUnsafe/kReadOnly
/// use relaxed tear-free accesses like apply_one.  Charges per-element
/// safety costs to the PE clock so Fig. 2/3 reflect the paper's observed
/// overhead ordering.
template <typename T>
void apply_fused_sink(ArrayState<T>& st, std::span<const FusedStage> stages,
                      std::span<const T> ops,
                      std::span<const std::uint64_t> locals, FetchMode fetch,
                      T* results) {
  const std::size_t n = locals.size();
  if (n == 0) return;
  const bool mutates = !stages.empty();
  const bool pre = fetch == FetchMode::kPre;
  if (st.mode == ArrayMode::kReadOnly && mutates) {
    throw Error("fused chain with mutating stages on ReadOnlyArray");
  }

  // One batch's worth of per-element safety cost, charged once: the fused
  // pass performs a single guarded read-modify-write per element no matter
  // how many stages fold into it.
  auto& lamellae = st.world->lamellae();
  const auto& params = lamellae.params();
  double cost = 0.0;
  switch (st.mode) {
    case ArrayMode::kAtomicNative:
      cost = params.atomic_store_ns * static_cast<double>(n);
      break;
    case ArrayMode::kAtomicGeneric:
      cost = params.generic_mutex_ns * static_cast<double>(n);
      break;
    case ArrayMode::kLocalLock:
      cost = params.rwlock_acquire_ns +
             static_cast<double>(n * sizeof(T)) / params.memcpy_bytes_per_ns;
      break;
    default:
      cost = static_cast<double>(n * sizeof(T)) / params.memcpy_bytes_per_ns;
      break;
  }
  lamellae.charge(cost);

  auto fold = [&](std::size_t j, T cur) {
    const T* o = ops.data();
    for (const FusedStage& s : stages) {
      cur = fold_stage(s, o, j, cur);
      o += stage_slots(s, n);
    }
    return cur;
  };

  T* slab = st.local_slab().data();
  switch (st.mode) {
    case ArrayMode::kUnsafe:
    case ArrayMode::kReadOnly: {
      for (std::size_t j = 0; j < n; ++j) {
        T* slot = slab + locals[j];
        T cur;
        T next;
        if constexpr (kNativeAtomicCapable<T>) {
          std::atomic_ref<T> ref(*slot);
          cur = ref.load(std::memory_order_relaxed);
          next = fold(j, cur);
          if (mutates) ref.store(next, std::memory_order_relaxed);
        } else {
          cur = *slot;
          next = fold(j, cur);
          if (mutates) *slot = next;
        }
        if (results != nullptr) results[j] = pre ? cur : next;
      }
      return;
    }
    case ArrayMode::kAtomicNative: {
      if constexpr (kNativeAtomicCapable<T>) {
        if (stages.size() == 1) {
          // One stage has nothing to fold: the op's own native RMW
          // (apply_native_stage; one compare_exchange_strong for a
          // compare-exchange) beats the load+CAS round trip the general
          // chain loop pays.
          const FusedStage s = stages[0];
          if (s.op == OpCode::kCompareExchange) {
            for (std::size_t j = 0; j < n; ++j) {
              const T want = ops[1 + (s.per_elem != 0 ? j : 0)];
              T cur = ops[0];
              const bool ok = std::atomic_ref<T>(slab[locals[j]])
                                  .compare_exchange_strong(
                                      cur, want, std::memory_order_acq_rel);
              if (results != nullptr) results[j] = pre || !ok ? cur : want;
            }
            return;
          }
          apply_native_stage<T>(slab, s, ops, locals, fetch, results);
          return;
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::atomic_ref<T> ref(slab[locals[j]]);
          T cur = ref.load(std::memory_order_acquire);
          T next = fold(j, cur);
          if (mutates) {
            while (!ref.compare_exchange_weak(cur, next,
                                              std::memory_order_acq_rel)) {
              next = fold(j, cur);
            }
          }
          if (results != nullptr) results[j] = pre ? cur : next;
        }
        return;
      }
      throw Error("native atomic mode on incompatible element type");
    }
    case ArrayMode::kAtomicGeneric: {
      for (std::size_t j = 0; j < n; ++j) {
        ByteLockGuard guard(st.elem_locks[locals[j]]);
        T* slot = slab + locals[j];
        const T cur = *slot;
        const T next = fold(j, cur);
        if (mutates) *slot = next;
        if (results != nullptr) results[j] = pre ? cur : next;
      }
      return;
    }
    case ArrayMode::kLocalLock: {
      std::shared_lock<std::shared_mutex> read;
      std::unique_lock<std::shared_mutex> write;
      if (mutates) {
        write = std::unique_lock(*st.local_lock);
      } else {
        read = std::shared_lock(*st.local_lock);
      }
      for (std::size_t j = 0; j < n; ++j) {
        T* slot = slab + locals[j];
        const T cur = *slot;
        const T next = fold(j, cur);
        if (mutates) *slot = next;
        if (results != nullptr) results[j] = pre ? cur : next;
      }
      return;
    }
  }
  throw Error("unknown array mode");
}

}  // namespace array_detail

}  // namespace lamellar
