// Micro-benchmarks of the runtime building blocks (google-benchmark).
// Not a paper figure; used to keep internal regressions visible and to
// support the D4/D5 design discussions in DESIGN.md.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/unique_function.hpp"
#include "core/am/completer_table.hpp"
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

}  // namespace

BENCHMARK_MAIN();
