// Tests for the shared-memory fabric, heap allocator, lamellae, command
// queues, and the performance model.
#include <gtest/gtest.h>

#include <span>
#include <thread>

#include "fabric/perf_model.hpp"
#include "lamellae/cmd_queue.hpp"
#include "lamellae/heap.hpp"
#include "lamellae/shmem_lamellae.hpp"
#include "lamellar.hpp"

namespace {

using namespace lamellar;

/// Stage one pre-serialized record on `dst`'s lane through the in-place
/// record path.
void stage(OutgoingQueues& out, pe_id dst, std::span<const std::byte> record,
           const OutgoingQueues::ProgressFn& progress) {
  auto w = out.begin_record(dst);
  w.buffer().write(record.data(), record.size());
  out.commit_record(w, progress);
}

TEST(Heap, AllocFreeConservation) {
  OffsetHeap heap(100, 1000);
  const auto total = heap.bytes_free();
  auto a = heap.alloc(128);
  auto b = heap.alloc(256);
  auto c = heap.alloc(64);
  EXPECT_NE(a, b);
  EXPECT_GE(a, 100u);
  heap.free(b);
  heap.free(a);
  heap.free(c);
  EXPECT_EQ(heap.bytes_free(), total);
  EXPECT_EQ(heap.live_allocations(), 0u);
}

TEST(Heap, CoalescingAllowsFullReuse) {
  OffsetHeap heap(0, 1024);
  std::vector<std::size_t> offs;
  for (int i = 0; i < 8; ++i) offs.push_back(heap.alloc(128, 1));
  for (auto o : offs) heap.free(o);
  // After coalescing, a single max-size block must fit.
  EXPECT_NO_THROW(heap.alloc(1024, 1));
}

TEST(Heap, AlignmentRespected) {
  OffsetHeap heap(3, 1021);
  auto a = heap.alloc(10, 64);
  EXPECT_EQ(a % 64, 0u);
  auto b = heap.alloc(10, 256);
  EXPECT_EQ(b % 256, 0u);
}

TEST(Heap, ExhaustionThrows) {
  OffsetHeap heap(0, 128);
  heap.alloc(100, 1);
  EXPECT_THROW(heap.alloc(100, 1), OutOfMemoryError);
}

TEST(Heap, DoubleFreeThrows) {
  OffsetHeap heap(0, 128);
  auto a = heap.alloc(16);
  heap.free(a);
  EXPECT_THROW(heap.free(a), Error);
}

/// Arenas of the reserved page plus `heap_bytes` of symmetric heap.
ArenaLayout arena_layout(std::size_t heap_bytes) {
  return {.symmetric_bytes = heap_bytes, .onesided_bytes = 0};
}

TEST(Fabric, PutGetBetweenArenas) {
  ShmemLamellaeGroup group(2, arena_layout(0));
  auto l0 = group.endpoint(0);
  std::vector<std::byte> data(64, std::byte{0x5a});
  l0->put(1, 128, data);
  std::vector<std::byte> back(64);
  l0->get(1, 128, back);
  EXPECT_EQ(back, data);
}

TEST(Fabric, ArenaZeroInitialized) {
  ShmemLamellaeGroup group(1, arena_layout(0));
  auto l0 = group.endpoint(0);
  for (std::size_t i = 0; i < l0->layout().total(); ++i) {
    EXPECT_EQ(l0->base()[i], std::byte{0});
  }
}

TEST(Fabric, BoundsChecked) {
  ShmemLamellaeGroup group(2, arena_layout(0));
  auto l0 = group.endpoint(0);
  std::vector<std::byte> data(64);
  EXPECT_THROW(l0->put(1, kReservedArenaBytes - 32, data), BoundsError);
  EXPECT_THROW(l0->put(9, 0, data), BoundsError);
}

TEST(Fabric, RemoteAtomics) {
  ShmemLamellaeGroup group(2, arena_layout(0));
  auto l0 = group.endpoint(0);
  EXPECT_EQ(l0->atomic_fetch_add_u64(1, 8, 5), 0u);
  EXPECT_EQ(l0->atomic_load_u64(1, 8), 5u);
  l0->atomic_store_u64(1, 8, 42);
  std::uint64_t expected = 42;
  EXPECT_TRUE(l0->atomic_cas_u64(1, 8, expected, 43));
  expected = 42;
  EXPECT_FALSE(l0->atomic_cas_u64(1, 8, expected, 44));
  EXPECT_EQ(expected, 43u);
}

TEST(Fabric, VirtualTimeChargesTransfers) {
  PeMapping mapping{1};  // each PE on its own node -> NIC path
  ShmemLamellaeGroup group(2, arena_layout(1 << 20), paper_perf_params(),
                           mapping, true);
  auto l0 = group.endpoint(0);
  const auto t0 = l0->now();
  std::vector<std::byte> data(1 << 16);
  l0->put(1, 0, data);
  const auto dt = l0->now() - t0;
  // 64 KiB at ~12 GB/s plus overheads: roughly 6-8 us.
  EXPECT_GT(dt, 4'000u);
  EXPECT_LT(dt, 20'000u);
}

TEST(Fabric, IntraNodeCheaperThanInterNode) {
  std::vector<std::byte> data(1 << 16);
  PeMapping inter{1}, intra{2};
  ShmemLamellaeGroup g1(2, arena_layout(1 << 20), paper_perf_params(), inter,
                        true);
  ShmemLamellaeGroup g2(2, arena_layout(1 << 20), paper_perf_params(), intra,
                        true);
  auto inter0 = g1.endpoint(0);
  auto intra0 = g2.endpoint(0);
  inter0->put(1, 0, data);
  intra0->put(1, 0, data);
  EXPECT_GT(inter0->now(), intra0->now());
}

// Every RDMA op advances the initiator's virtual clock by exactly its
// PerfParams cost, truncated to whole nanoseconds, toward the initiator
// itself, a PE on its node and a PE on another node.
TEST(Fabric, RdmaChargesPinnedToPerfParams) {
  constexpr std::size_t kBytes = 4096;
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  const PerfParams p = paper_perf_params();
  // PEs 0 and 1 share a node; PE 2 is alone on the next one.
  ShmemLamellaeGroup group(3, arena_layout(kBytes), p, PeMapping{2}, true);
  auto l0 = group.endpoint(0);
  const auto intra_ns = [&](std::size_t bytes) {
    return 120.0 + static_cast<double>(bytes) / p.memcpy_bytes_per_ns;
  };
  struct Expected {
    pe_id peer;
    double transfer, pipelined, atomic;
  };
  const Expected cases[] = {
      {0, p.memcpy_ns(kBytes), p.memcpy_ns(kBytes), p.atomic_store_ns},
      {1, intra_ns(kBytes), p.memcpy_ns(kBytes), intra_ns(kWord)},
      {2, p.rdma_cost_ns(kBytes), p.pipelined_cost_ns(kBytes),
       p.rdma_cost_ns(kWord)},
  };
  const std::size_t off = kReservedArenaBytes;
  std::vector<std::byte> buf(kBytes);
  for (const Expected& e : cases) {
    SCOPED_TRACE(e.peer);
    const auto expect_charge = [&](const char* op, double cost,
                                   const auto& run) {
      const sim_nanos t0 = l0->now();
      run();
      EXPECT_EQ(l0->now() - t0,
                static_cast<sim_nanos>(cost))
          << op;
    };
    expect_charge("put", e.transfer, [&] { l0->put(e.peer, off, buf); });
    expect_charge("get", e.transfer, [&] { l0->get(e.peer, off, buf); });
    expect_charge("get_pipelined", e.pipelined,
                  [&] { l0->get_pipelined(e.peer, off, buf); });
    expect_charge("atomic_fetch_add_u64", e.atomic,
                  [&] { l0->atomic_fetch_add_u64(e.peer, off, 1); });
    expect_charge("atomic_load_u64", e.atomic,
                  [&] { l0->atomic_load_u64(e.peer, off); });
    expect_charge("atomic_store_u64", e.atomic,
                  [&] { l0->atomic_store_u64(e.peer, off, 2); });
    std::uint64_t expected = 2;
    expect_charge("atomic_cas_u64", e.atomic,
                  [&] { l0->atomic_cas_u64(e.peer, off, expected, 3); });
  }
}

TEST(Fabric, BarrierSynchronizesClocks) {
  ShmemLamellaeGroup group(2, arena_layout(0));
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  l0->charge(1'000'000);
  std::thread t([&] { l1->barrier(); });
  l0->barrier();
  t.join();
  EXPECT_GE(l1->now(), 1'000'000u);
}

TEST(PerfModel, InjectThresholdDrop) {
  const auto p = paper_perf_params();
  // Bandwidth at 128 B (inject path) exceeds bandwidth at 256 B (post path):
  // the Fig. 2 drop between 128 B and 256 B.
  const double bw128 = bandwidth_mb_s(128, p.pipelined_cost_ns(128));
  const double bw256 = bandwidth_mb_s(256, p.pipelined_cost_ns(256));
  EXPECT_GT(bw128, bw256);
  // And recovery by 1 KiB.
  const double bw1k = bandwidth_mb_s(1024, p.pipelined_cost_ns(1024));
  EXPECT_GT(bw1k, bw128);
}

TEST(PerfModel, ApproachesLinkPeak) {
  const auto p = paper_perf_params();
  const std::size_t big = 4u << 20;
  const double bw = bandwidth_mb_s(big, p.pipelined_cost_ns(big));
  EXPECT_GT(bw, 11'500.0);   // near 12.5 GB/s
  EXPECT_LT(bw, 12'500.0);   // below theoretical peak
}

TEST(PerfModel, MonotoneCosts) {
  const auto p = paper_perf_params();
  double prev = 0;
  for (std::size_t s = 1; s <= (1u << 24); s *= 4) {
    const double c = p.rdma_cost_ns(s);
    EXPECT_GT(c, 0.0);
    EXPECT_GE(c + 1e-9, prev * 0.999);  // cost never decreases with size
    prev = c;
  }
}

TEST(Lamellae, SymmetricAllocSameOffsetAllPes) {
  ShmemLamellaeGroup group(3, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  auto l2 = group.endpoint(2);
  // SPMD order: every PE performs the same sequence of collective allocs.
  auto a0 = l0->alloc_symmetric(1024, 16);
  auto a1 = l1->alloc_symmetric(1024, 16);
  auto a2 = l2->alloc_symmetric(1024, 16);
  EXPECT_EQ(a0, a1);
  EXPECT_EQ(a1, a2);
  auto b0 = l0->alloc_symmetric(512, 16);
  auto b1 = l1->alloc_symmetric(512, 16);
  auto b2 = l2->alloc_symmetric(512, 16);
  EXPECT_EQ(b0, b1);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(a0, b0);
}

TEST(Lamellae, SymmetricFreeNeedsAllPes) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  auto a0 = l0->alloc_symmetric(1 << 20, 16);
  (void)l1->alloc_symmetric(1 << 20, 16);
  l0->free_symmetric(a0);
  // Not yet freed: an immediate allocation must not reuse the offset.
  auto b0 = l0->alloc_symmetric(1 << 20, 16);
  auto b1 = l1->alloc_symmetric(1 << 20, 16);
  EXPECT_EQ(b1, b0);  // a symmetric allocation has one offset on every PE
  EXPECT_NE(b0, a0);
  l1->free_symmetric(a0);  // second call completes the collective free
  auto c0 = l0->alloc_symmetric(1 << 20, 16);
  (void)l1->alloc_symmetric(1 << 20, 16);
  EXPECT_EQ(c0, a0);  // first-fit reuses the released block
}

TEST(Lamellae, OneSidedHeapsIndependent) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  auto a = l0->alloc_onesided(64, 16);
  auto b = l1->alloc_onesided(64, 16);
  // Independent per-PE allocators may return identical offsets.
  EXPECT_EQ(a, b);
  l0->free_onesided(a);
  l1->free_onesided(b);
}

TEST(Lamellae, SinglePe) {
  ShmemLamellaeGroup group(1, {});
  auto l0 = group.endpoint(0);
  EXPECT_EQ(l0->num_pes(), 1u);
  EXPECT_EQ(l0->my_pe(), 0u);
  auto off = l0->alloc_symmetric(256, 16);
  std::vector<std::byte> data(8, std::byte{1});
  l0->put(0, off, data);
  std::vector<std::byte> back(8);
  l0->get(0, off, back);
  EXPECT_EQ(back, data);
  l0->barrier();  // one participant: must not deadlock
  l0->free_symmetric(off);
}

TEST(CmdQueue, AggregatesUntilThreshold) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  OutgoingQueues out(*l0, 256);
  // The ad-hoc buffer counter now lives in the PE's metrics registry.
  const obs::Counter& sent = l0->metrics().counter("cmdq.buffers_sent");
  std::vector<std::byte> record(100, std::byte{7});
  auto progress = [] {};
  stage(out, 1, record, progress);
  stage(out, 1, record, progress);
  EXPECT_EQ(sent.get(), 0u);        // 200 < 256
  stage(out, 1, record, progress);  // 300 >= 256 -> flush
  EXPECT_EQ(sent.get(), 1u);
  EXPECT_EQ(l0->metrics().counter("cmdq.flush_threshold").get(), 1u);
  FabricMessage msg;
  ASSERT_TRUE(l1->poll(msg));
  EXPECT_EQ(msg.payload.size(), 300u);
}

TEST(CmdQueue, FlushSendsResiduals) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  OutgoingQueues out(*l0, 1 << 20);
  std::vector<std::byte> record(10, std::byte{7});
  stage(out, 1, record, [] {});
  EXPECT_TRUE(out.has_pending());
  out.flush_all([] {});
  EXPECT_FALSE(out.has_pending());
  EXPECT_EQ(l0->metrics().counter("cmdq.buffers_sent").get(), 1u);
  EXPECT_EQ(l0->metrics().counter("cmdq.flush_explicit").get(), 1u);
}

}  // namespace

namespace {

struct EchoAm {
  std::uint64_t x = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x);
  }
  std::uint64_t exec(AmContext&) { return x; }
};

}  // namespace

LAMELLAR_REGISTER_AM(EchoAm);

namespace {

TEST(Fabric, WallClockWorldChargesNothing) {
  // The same AM round trips and team barriers charge the modeled clock in a
  // virtual-time world and leave it at zero in a wall-clock one.
  for (const bool virtual_time : {false, true}) {
    SCOPED_TRACE(virtual_time ? "virtual time" : "wall clock");
    std::vector<std::uint64_t> charged(2, 0);
    std::vector<sim_nanos> clock(2, 0);
    run_world(
        2,
        [&](World& w) {
          const pe_id other = 1 - w.my_pe();
          for (std::uint64_t i = 0; i < 500; ++i) {
            (void)w.exec_am_pe(other, EchoAm{i});
          }
          w.wait_all();
          // Array creation and fill run team barriers.
          auto arr = AtomicArray<std::uint64_t>::create(w, 16,
                                                        Distribution::kBlock);
          arr.fill(1);
          w.barrier();
          charged[w.my_pe()] =
              w.metrics_snapshot().counter("fabric.vtime_charged_ns");
          clock[w.my_pe()] =
              static_cast<ShmemLamellae&>(w.lamellae()).clock().now();
        },
        RuntimeConfig{}, paper_perf_params(), PeMapping{}, virtual_time);
    for (pe_id pe = 0; pe < 2; ++pe) {
      SCOPED_TRACE(pe);
      if (virtual_time) {
        EXPECT_GT(charged[pe], 0u);
        EXPECT_GT(clock[pe], 0u);
      } else {
        EXPECT_EQ(charged[pe], 0u);
        EXPECT_EQ(clock[pe], 0u);
      }
    }
  }
}

}  // namespace
