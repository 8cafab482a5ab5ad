// Chain lowering for every array element op (DESIGN.md §11).
//
// Eager element ops dispatch as one-stage chains (loads as empty ones) and
// lazy expression chains flush their groups here too.  A chain group — one
// index span plus the stages recorded against it — lowers through exactly
// ONE plan_chunks pass and ONE serialized AM per destination lane, no
// matter how many stages the chain holds: the stage table and the
// concatenated operand regions ride in a single ArrayFusedAm per chunk,
// written straight into the aggregation lane with the zero-copy record
// writer (operand gathers happen during that single write), and the owner
// applies the composed kernel in one load-fold-store pass per element.
// Planning and local staging live in the calling thread's ScratchArena and
// rewind when the flush frame ends, so a steady-state loop of dispatches
// performs no planner heap allocation (array.plan_allocs).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/unique_function.hpp"
#include "core/array/batch.hpp"

namespace lamellar {
namespace array_detail {

/// Completion state shared by every chunk of every group a chain
/// dispatches (one group for an eager op).  `remaining` starts at 1 — the
/// recorder's hold — so a group that completes while later groups are
/// still being recorded can never fire the terminal early; the terminal
/// stores `on_complete` and then releases the hold.  Fetched values and
/// (for multi-chunk fetch groups) caller positions live here because chunk
/// completions can outlive the dispatch frame.
template <typename T>
struct FusedRun {
  std::atomic<std::size_t> remaining{1};
  std::vector<T> out;
  std::vector<std::size_t> positions;
  UniqueFunction<void()> on_complete;

  void complete_one() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The caller of the final complete_one holds a shared_ptr, so `this`
      // outlives the callback.
      on_complete();
    }
  }
};

/// Lower one chain group: a single plan pass over the view-relative `idxs`
/// (which also bounds-checks them against `view_len`), then per chunk
/// either a local composed-kernel application or one ArrayFusedAm.  Chunks
/// go out remote-first: the walk starts at the first rank after the
/// caller's and wraps, so the caller's own chunks apply last, while the
/// peers already work on theirs (and P callers do not all hit rank 0
/// first).  Unless `fetch` is kNone, the pre- or post-chain element values
/// scatter into run->out in caller order (the run's positions table serves
/// multi-chunk scatter).  Each dispatched chunk adds one count to
/// run->remaining before any completion can observe it.
template <typename T>
void fuse_dispatch(const Darc<ArrayState<T>>& state, std::size_t view_start,
                   std::size_t view_len, std::span<const global_index> idxs,
                   std::span<const FusedStageRec<T>> recs, FetchMode fetch,
                   const std::shared_ptr<FusedRun<T>>& run) {
  ArrayState<T>& st = *state;
  const std::size_t n = idxs.size();
  const std::size_t k = recs.size();
  if (n == 0) return;

  bool any_per_elem = false;
  for (const FusedStageRec<T>& r : recs) any_per_elem |= r.per_elem;

  ScratchArena& arena = ScratchArena::local();
  const std::uint64_t grows_before = arena.grow_events();
  ArenaFrame frame(arena);
  const bool want = fetch != FetchMode::kNone;
  // Positions drive fetch-result scatter and per-element operand gather; a
  // non-fetch shared-operand batch (the histogram hot path) needs neither.
  const bool need_pos = want || any_per_elem;
  auto plan = plan_chunks(arena, st.map, idxs, view_start, view_len,
                          st.world->config().batch_op_limit, need_pos);
  // The chain applies k element ops per index in one pass (a load is one
  // op); account for all of them.
  st.ops_batched->inc(n * std::max<std::size_t>(k, 1));
  st.fused_chain_len->record(k);

  if (plan.chunks.empty()) {
    st.plan_allocs->inc(arena.grow_events() - grows_before);
    return;
  }

  // The wire stage table, shared by every chunk of this group.
  auto hdrs = arena.alloc_span<FusedStage>(k);
  for (std::size_t s = 0; s < k; ++s) hdrs[s] = recs[s].wire();

  const bool multi = plan.chunks.size() > 1;
  if (want) {
    run->out.resize(n);
    if (multi) {
      run->positions.assign(plan.pos_flat.begin(), plan.pos_flat.end());
    }
  }
  const std::size_t my_rank = st.my_rank();
  // Chunks are in rank order: start past the caller's own.
  const std::size_t nchunks = plan.chunks.size();
  const std::size_t first = static_cast<std::size_t>(
      std::partition_point(
          plan.chunks.begin(), plan.chunks.end(),
          [my_rank](const ChunkRef& c) { return c.rank <= my_rank; }) -
      plan.chunks.begin());
  std::size_t remote_chunks = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const ChunkRef& chunk = plan.chunks[(first + c) % nchunks];
    const std::span<const std::uint64_t> locals =
        plan.locals_flat.subspan(chunk.offset, chunk.len);
    const std::span<const std::size_t> pos =
        need_pos ? plan.pos_flat.subspan(chunk.offset, chunk.len)
                 : std::span<const std::size_t>{};
    run->remaining.fetch_add(1, std::memory_order_relaxed);
    if (chunk.rank == my_rank) {
      // Owner == caller: stage this chunk's operand region in the arena
      // (the same walk the serializer writes) and run the same composed
      // kernel the remote side runs, sinking fetch results straight into
      // the run's output for single-chunk groups.
      auto ops = arena.alloc_span<T>(region_len(hdrs, chunk.len));
      auto walk = operand_walk<T>(recs, pos, chunk.len);
      for (std::size_t j = 0; j < ops.size(); ++j) ops[j] = walk(j);
      T* sink = nullptr;
      std::span<T> staged;
      if (want) {
        if (multi) {
          staged = arena.alloc_span<T>(chunk.len);
          sink = staged.data();
        } else {
          sink = run->out.data();
        }
      }
      apply_fused_sink<T>(st, hdrs, ops, locals, fetch, sink);
      if (want && multi) {
        for (std::size_t j = 0; j < chunk.len; ++j) {
          run->out[pos[j]] = staged[j];
        }
      }
      run->complete_one();
      continue;
    }
    ++remote_chunks;
    ArrayFusedAm<T> am;
    am.state = state;
    am.fetch = fetch;
    am.locals = locals;
    am.stages = hdrs;
    am.recs = recs;
    am.gather_pos = pos;
    st.chunk_bytes_inline->inc(locals.size_bytes() + hdrs.size_bytes() +
                               region_len(hdrs, chunk.len) * sizeof(T));
    st.world->engine().send_cb(
        st.team.world_pe(chunk.rank), std::move(am),
        [run, want,
         pos_offset = multi ? chunk.offset : kIdentityScatter](ValSpan<T> r) {
          if (want) {
            if (pos_offset == kIdentityScatter) {
              for (std::size_t j = 0; j < r.view.size(); ++j) {
                run->out[j] = r.view[j];
              }
            } else {
              for (std::size_t j = 0; j < r.view.size(); ++j) {
                run->out[run->positions[pos_offset + j]] = r.view[j];
              }
            }
          }
          run->complete_one();
        });
  }
  // Each remote chunk would have cost one AM per eager stage (plus one for
  // a post-chain gather); the fused pass sends exactly one.
  const std::size_t eager_ams = k + (fetch == FetchMode::kPost ? 1 : 0);
  if (eager_ams > 1) {
    st.fused_ams_saved->inc(remote_chunks * (eager_ams - 1));
  }
  st.plan_allocs->inc(arena.grow_events() - grows_before);
}

/// Dispatch one element op over `idxs` as a chain of zero or one stage
/// (`recs`).  Once every chunk has applied, the future resolves with
/// `finish` of the fetched values (caller order; empty for kNone).  The
/// run's hold is released only after on_complete is set, so no completion
/// can fire early.
template <typename R, typename T, typename Finish>
Future<R> dispatch_chain(const Darc<ArrayState<T>>& state,
                         std::size_t view_start, std::size_t view_len,
                         std::span<const global_index> idxs,
                         std::span<const FusedStageRec<T>> recs,
                         FetchMode fetch, Finish finish) {
  auto run = std::make_shared<FusedRun<T>>();
  fuse_dispatch<T>(state, view_start, view_len, idxs, recs, fetch, run);
  Promise<R> promise;
  auto fut = promise.future();
  run->on_complete = UniqueFunction<void()>{
      [promise, self = run.get(), finish = std::move(finish)]() mutable {
        promise.set_value(finish(std::move(self->out)));
      }};
  run->complete_one();
  return fut;
}

}  // namespace array_detail
}  // namespace lamellar
