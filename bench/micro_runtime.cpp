// Micro-benchmarks of the runtime building blocks (google-benchmark).
// Not a paper figure; used to keep internal regressions visible and to
// support the D4/D5 design discussions in DESIGN.md.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/scratch_arena.hpp"
#include "common/serialize.hpp"
#include "common/unique_function.hpp"
#include "core/am/completer_table.hpp"
#include "core/array/batch.hpp"
#include "core/scheduler/deque.hpp"
#include "lamellae/heap.hpp"

namespace {

using namespace lamellar;

void BM_SerializeVecU64(benchmark::State& state) {
  std::vector<std::uint64_t> v(state.range(0));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  for (auto _ : state) {
    auto buf = serialize_to_buffer(v);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SerializeVecU64)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DeserializeVecU64(benchmark::State& state) {
  std::vector<std::uint64_t> v(state.range(0), 7);
  auto buf = serialize_to_buffer(v);
  for (auto _ : state) {
    buf.seek(0);
    auto out = deserialize_from_buffer<std::vector<std::uint64_t>>(buf);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_DeserializeVecU64)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DequePushPop(benchmark::State& state) {
  WorkStealingDeque<int> dq;
  int item = 1;
  for (auto _ : state) {
    dq.push(&item);  // note: pop below returns it before deletion matters
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_HeapAllocFree(benchmark::State& state) {
  OffsetHeap heap(0, 64 * 1024 * 1024);
  for (auto _ : state) {
    auto a = heap.alloc(256);
    auto b = heap.alloc(1024);
    heap.free(a);
    heap.free(b);
  }
}
BENCHMARK(BM_HeapAllocFree);

void BM_UniqueFunctionInvoke(benchmark::State& state) {
  std::uint64_t acc = 0;
  UniqueFunction<void()> f([&acc] { ++acc; });
  for (auto _ : state) {
    f();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_UniqueFunctionInvoke);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.uniform(1'000'000);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Xoshiro);

// Completer lookup, one thread: each iteration takes the oldest of
// `range(0)` outstanding requests and registers a new one, the order a
// window of remote AMs completes in.
void BM_CompleterInsertTake(benchmark::State& state) {
  CompleterTable table;
  std::uint64_t acc = 0;
  Deserializer unit{std::span<const std::byte>{}};
  std::deque<request_id> live;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    live.push_back(table.insert([&acc](Deserializer&) { ++acc; }));
  }
  for (auto _ : state) {
    table.take(live.front())(unit);
    live.pop_front();
    live.push_back(table.insert([&acc](Deserializer&) { ++acc; }));
  }
  for (request_id rid : live) table.take(rid)(unit);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompleterInsertTake)->Arg(1)->Arg(10000);

// Completer lookup, sender and taker on two threads: thread 0 registers and
// hands the ids over a ring of up to 4096 outstanding requests, thread 1
// takes and runs them.  Ids cross in batches of 64, the way records share
// an aggregation buffer, so the ring's shared lines cost little per
// request next to the table's.  One iteration is one request on each side.
struct CompleterHandoff {
  static constexpr std::uint64_t kRing = 4096;
  static constexpr std::uint64_t kBatch = 64;
  CompleterTable table;
  std::array<request_id, kRing> ring{};
  alignas(64) std::atomic<std::uint64_t> head{0};  // taker
  alignas(64) std::atomic<std::uint64_t> tail{0};  // sender
  alignas(64) std::uint64_t acc = 0;               // taker-only
};
std::unique_ptr<CompleterHandoff> g_handoff;

void BM_CompleterSenderTaker(benchmark::State& state) {
  using H = CompleterHandoff;
  if (state.thread_index() == 0) g_handoff = std::make_unique<H>();
  const auto last = static_cast<std::uint64_t>(state.max_iterations);
  std::uint64_t mine = 0;    // this side's next ring index
  std::uint64_t theirs = 0;  // the other side's published index
  // The loop's start and end are barriers across the benchmark's threads.
  for (auto _ : state) {
    H& h = *g_handoff;
    if (state.thread_index() == 0) {
      const request_id rid =
          h.table.insert([&h](Deserializer&) { ++h.acc; });
      while (mine - theirs >= H::kRing) {
        std::this_thread::yield();
        theirs = h.head.load(std::memory_order_acquire);
      }
      h.ring[mine % H::kRing] = rid;
      if (++mine % H::kBatch == 0 || mine == last) {
        h.tail.store(mine, std::memory_order_release);
      }
    } else {
      while ((theirs = h.tail.load(std::memory_order_acquire)) == mine) {
        std::this_thread::yield();
      }
      const request_id rid = h.ring[mine % H::kRing];
      if (++mine % H::kBatch == 0) {
        h.head.store(mine, std::memory_order_release);
      }
      Deserializer unit{std::span<const std::byte>{}};
      h.table.take(rid)(unit);
    }
  }
  if (state.thread_index() == 0) state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompleterSenderTaker)->Threads(2)->UseRealTime();

// ---- array element ops: one case per layer, plus the hardware floor ----
//
// Shapes of the perfbench histogram: a Block map of 2,000 elements over 2
// ranks (1,000 slots per PE) and batches of 100k random indices.  Each
// iteration is one batch; items are elements, so ns/element is the
// reciprocal of the reported rate (times the thread count for the
// two-thread cases, whose rate sums both threads).

constexpr std::size_t kSlotsPerPe = 1000;
constexpr std::size_t kBatch = 100'000;

std::vector<std::uint64_t> random_indices(std::size_t n, std::uint64_t bound,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& i : out) i = rng.uniform(bound);
  return out;
}

// The perfbench map, built from a length the compiler cannot see, so its
// divisor is no compile-time constant (as in an array's state).
DistributionMap histo_map() {
  std::size_t len = 2 * kSlotsPerPe;
  benchmark::DoNotOptimize(len);
  return DistributionMap(Distribution::kBlock, len, 2);
}

// Owner placement of one index (DistributionMap::place).
void BM_Place(benchmark::State& state) {
  const DistributionMap map = histo_map();
  const auto idxs = random_indices(kBatch, map.global_len(), 1);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const std::uint64_t i : idxs) {
      const Placement p = map.place(i);
      acc += p.rank + p.local_index;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Place);

// The batch plan: bounds check, placement, bucket counts and the stable
// scatter into per-rank chunks, staged in the thread's scratch arena.
void BM_PlanChunks(benchmark::State& state) {
  const DistributionMap map = histo_map();
  const auto idxs = random_indices(state.range(0), map.global_len(), 2);
  ScratchArena& arena = ScratchArena::local();
  for (auto _ : state) {
    ArenaFrame frame(arena);
    const auto plan = array_detail::plan_chunks(
        arena, map, idxs, 0, map.global_len(), 10'000, false);
    benchmark::DoNotOptimize(plan.chunks.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanChunks)->Arg(100'000);

// One PE's 1,000-slot table, shared by the benchmark's threads.
std::array<std::uint64_t, kSlotsPerPe> g_table{};

// The owner-side kernel of a single-stage native add (shared operand, no
// fetch) over one batch of local slots.
void BM_NativeAddStage(benchmark::State& state) {
  const auto locals =
      random_indices(kBatch, kSlotsPerPe, 3 + state.thread_index());
  const FusedStage stage{OpCode::kAdd, 0};
  const std::uint64_t one = 1;
  for (auto _ : state) {
    array_detail::apply_native_stage<std::uint64_t>(
        g_table.data(), stage, {&one, 1}, locals, FetchMode::kNone, nullptr);
    benchmark::DoNotOptimize(g_table.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_NativeAddStage)->Threads(1)->Threads(2)->UseRealTime();

// Speed-of-light floor for the kernel above: a bare relaxed fetch_add per
// index over the same table.
void BM_FetchAddFloor(benchmark::State& state) {
  const auto locals =
      random_indices(kBatch, kSlotsPerPe, 3 + state.thread_index());
  for (auto _ : state) {
    for (const std::uint64_t i : locals) {
      std::atomic_ref<std::uint64_t>(g_table[i]).fetch_add(
          1, std::memory_order_relaxed);
    }
    benchmark::DoNotOptimize(g_table.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FetchAddFloor)->Threads(1)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
