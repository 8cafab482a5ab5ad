// Batch planning for array element operations (paper Sec. III-F3).
//
// The runtime "calculates the correct PEs and offsets for each array index,
// batching operations by destination PE within a single message", splitting
// batches at the configured op limit (default 10,000, the value the paper's
// experiments use).  plan_chunks is that step for every element op; the
// chain dispatcher (expr_fuse.hpp) applies local chunks directly and sends
// remote ones as ArrayFusedAm.  The range helpers below serve put/get.
//
// Memory discipline (DESIGN.md §9): planning is backed by the calling
// thread's ScratchArena — flat index/position arrays bucketed by rank, a
// chunk table of views into them — and rewound when the dispatch frame
// ends, so a steady-state loop of batch calls performs no planner heap
// allocation (array.plan_allocs counts arena growth; flat after warm-up).
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/scratch_arena.hpp"
#include "core/array/array_ams.hpp"

namespace lamellar {
namespace array_detail {

/// One destination-bound chunk: a view into the plan's flat arrays.
struct ChunkRef {
  std::size_t rank = 0;
  std::size_t offset = 0;  ///< start within locals_flat / pos_flat
  std::size_t len = 0;
};

/// Arena-backed batch plan: local indices and caller positions bucketed by
/// owner rank (caller order preserved within each bucket), split into
/// chunks at the batch limit.  Valid until the planning frame rewinds.
struct BatchPlan {
  std::span<std::uint64_t> locals_flat;
  std::span<std::size_t> pos_flat;
  std::span<ChunkRef> chunks;
};

/// Group view-relative indices by owner and split at the batch limit —
/// two passes over the indices (bounds check + place + count, then stable
/// bucket scatter), all staging in the arena.  The first pass is the only
/// bounds check an element op makes: an index at or past `view_len` throws
/// BoundsError before anything is applied or sent.  `want_positions` =
/// false skips the caller-position table entirely (non-fetch many-one
/// batches never read it).
inline BatchPlan plan_chunks(ScratchArena& arena, const DistributionMap& map,
                             std::span<const global_index> idxs,
                             std::size_t view_start, std::size_t view_len,
                             std::size_t batch_limit, bool want_positions) {
  BatchPlan plan;
  const std::size_t n = idxs.size();
  if (n == 0) return plan;
  const std::size_t nranks = map.num_ranks();

  auto ranks = arena.alloc_span<std::uint32_t>(n);
  auto locals = arena.alloc_span<std::uint64_t>(n);
  auto starts = arena.alloc_span<std::size_t>(nranks + 1);
  std::memset(starts.data(), 0, starts.size_bytes());
  for (std::size_t i = 0; i < n; ++i) {
    if (idxs[i] >= view_len) throw_bounds("array index", idxs[i], view_len);
    const Placement p = map.place_unchecked(view_start + idxs[i]);
    ranks[i] = static_cast<std::uint32_t>(p.rank);
    locals[i] = p.local_index;
    ++starts[p.rank];
  }

  // Counts -> bucket start offsets (exclusive prefix sum) + chunk count.
  std::size_t nchunks = 0;
  std::size_t run = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t c = starts[r];
    starts[r] = run;
    run += c;
    nchunks += ceil_div(c, batch_limit);
  }
  starts[nranks] = run;

  plan.locals_flat = arena.alloc_span<std::uint64_t>(n);
  if (want_positions) plan.pos_flat = arena.alloc_span<std::size_t>(n);
  plan.chunks = arena.alloc_span<ChunkRef>(nchunks);

  std::size_t ci = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t end = starts[r + 1];
    for (std::size_t off = starts[r]; off < end; off += batch_limit) {
      plan.chunks[ci++] = ChunkRef{r, off, std::min(batch_limit, end - off)};
    }
  }

  // Stable scatter: ascending caller position within each bucket, so fetch
  // results come back in caller order per chunk.
  auto cursor = arena.alloc_span<std::size_t>(nranks);
  std::memcpy(cursor.data(), starts.data(), cursor.size_bytes());
  if (want_positions) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = cursor[ranks[i]]++;
      plan.locals_flat[at] = locals[i];
      plan.pos_flat[at] = i;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      plan.locals_flat[cursor[ranks[i]]++] = locals[i];
    }
  }
  return plan;
}

/// Sentinel chunk offset: results map back 1:1 (single-chunk batches keep
/// caller order by construction, so no position table is needed).
inline constexpr std::size_t kIdentityScatter =
    static_cast<std::size_t>(-1);

/// Completion-only gather (no results): counts chunks into a Future<Unit>.
struct UnitGather {
  std::atomic<std::size_t> remaining{0};
  Promise<Unit> promise;
};

inline void finish_unit(const std::shared_ptr<UnitGather>& gather) {
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    gather->promise.set_value(Unit{});
  }
}

/// Contiguous owner ranges of the global span [start, start+len), in order.
/// For cyclic distributions a "range" is a strided run: local indices are
/// consecutive on the owner while caller offsets advance by caller_stride.
struct OwnedRange {
  std::size_t rank;
  std::uint64_t local_start;
  std::size_t len;
  std::size_t caller_offset;   ///< offset within the caller's buffer
  std::size_t caller_stride;   ///< 1 for block; num_ranks for cyclic
};

template <typename T>
std::vector<OwnedRange> plan_ranges(const ArrayState<T>& st,
                                    global_index start, std::size_t len) {
  std::vector<OwnedRange> ranges;
  if (len == 0) return ranges;
  if (st.map.dist() == Distribution::kBlock) {
    std::size_t off = 0;
    while (off < len) {
      const Placement p = st.map.place(start + off);
      const std::size_t owner_room =
          st.map.local_len(p.rank) - p.local_index;
      const std::size_t n = std::min(owner_room, len - off);
      ranges.push_back(OwnedRange{p.rank, p.local_index, n, off, 1});
      off += n;
    }
    return ranges;
  }
  // Cyclic: rank place(start + k).rank owns caller offsets k, k + n,
  // k + 2n, ... — consecutive local slots on the owner — so the whole span
  // coalesces into at most num_ranks strided runs, one per starting offset.
  const std::size_t n = st.map.num_ranks();
  for (std::size_t k = 0; k < n && k < len; ++k) {
    const Placement p = st.map.place(start + k);
    const std::size_t count = 1 + (len - 1 - k) / n;
    ranges.push_back(OwnedRange{p.rank, p.local_index, count, k, n});
  }
  return ranges;
}

/// A contiguous view of the caller elements a range covers: the buffer
/// slice itself for unit-stride runs, an arena-staged gather otherwise
/// (valid until the enclosing frame rewinds).
template <typename T>
std::span<const T> contiguous_slice(ScratchArena& arena,
                                    std::span<const T> data,
                                    const OwnedRange& r) {
  if (r.caller_stride <= 1) return data.subspan(r.caller_offset, r.len);
  auto staged = arena.alloc_span<T>(r.len);
  for (std::size_t j = 0; j < r.len; ++j) {
    staged[j] = data[r.caller_offset + j * r.caller_stride];
  }
  return staged;
}

/// Scatter a range's elements back into the caller's buffer.
template <typename T>
void scatter_range(T* out, const OwnedRange& r, std::span<const T> piece) {
  for (std::size_t j = 0; j < piece.size(); ++j) {
    out[r.caller_offset + j * r.caller_stride] = piece[j];
  }
}

}  // namespace array_detail
}  // namespace lamellar
