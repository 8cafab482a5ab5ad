// ShmemLamellae: the in-process, multi-PE Lamellae.
//
// Plays the role of both the paper's ROFI Lamellae (when given a PeMapping
// that spreads PEs across modeled nodes) and its Shmem Lamellae (all PEs on
// one node).  All PEs share one ShmemFabric; each PE's arena is split into
// [reserved page | symmetric heap | one-sided heap], mirroring the paper's
// layout: a runtime-reserved region plus a dynamic heap.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lamellae/heap.hpp"
#include "lamellae/lamellae.hpp"

namespace lamellar {

class ShmemLamellae;

/// World-wide state shared by the per-PE ShmemLamellae endpoints.
class ShmemLamellaeGroup {
 public:
  struct Layout {
    std::size_t symmetric_bytes = 64 * 1024 * 1024;
    std::size_t onesided_bytes = 32 * 1024 * 1024;
    [[nodiscard]] std::size_t total() const {
      return kReservedArenaBytes + symmetric_bytes + onesided_bytes;
    }
  };

  ShmemLamellaeGroup(std::size_t num_pes, Layout layout,
                     PerfParams params = paper_perf_params(),
                     PeMapping mapping = PeMapping{},
                     bool virtual_time = true, bool metrics_enabled = true);

  /// Build the endpoint for one PE.  Endpoints borrow the group; the group
  /// must outlive them.
  std::unique_ptr<ShmemLamellae> endpoint(pe_id pe);

  ShmemFabric& fabric() { return fabric_; }
  [[nodiscard]] const Layout& layout() const { return layout_; }

  /// Introspection for tests and the stress harness: the per-PE one-sided
  /// heap (invariant checks at quiesce points) and the shared symmetric
  /// heap.  The heaps are internally locked; callers get no allocation
  /// authority they did not already have via alloc/free.
  OffsetHeap& onesided_heap(pe_id pe) { return *onesided_heaps_[pe]; }
  OffsetHeap& symmetric_heap() { return symmetric_heap_; }

  /// PE `pe`'s lane-buffer pool.  Owned here rather than by the endpoint:
  /// messages hand the sender's buffer over by pointer, and the receiver
  /// returns it to this pool, possibly after the sender's endpoint is gone.
  BufferPool& buffer_pool(pe_id pe) { return *buffer_pools_[pe]; }

 private:
  friend class ShmemLamellae;

  // Collective symmetric allocation bookkeeping: all PEs perform the same
  // sequence of collective calls (standard SPMD requirement); the first
  // arrival allocates, the rest pick up the result, the last erases it.
  void collective_free(std::size_t offset, std::size_t participants);

  Layout layout_;
  ShmemFabric fabric_;
  OffsetHeap symmetric_heap_;
  std::vector<std::unique_ptr<OffsetHeap>> onesided_heaps_;
  std::vector<std::unique_ptr<BufferPool>> buffer_pools_;

  struct PendingAlloc {
    std::size_t offset = 0;
    std::size_t remaining = 0;
  };
  struct PendingFree {
    std::size_t calls = 0;
    std::size_t participants = 0;
  };
  // Rendezvous state sharded by collective key / freed offset so that at
  // high PE counts unrelated collectives do not serialize on one global
  // mutex (the heap itself is internally locked).  Padded to a cache line
  // each to keep shard locks from false-sharing.
  static constexpr std::size_t kCollectiveShards = 16;
  struct alignas(64) CollectiveShard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, PendingAlloc> pending_allocs;
    std::unordered_map<std::size_t, PendingFree> pending_frees;
  };
  CollectiveShard& alloc_shard(std::uint64_t key) {
    return collective_shards_[key % kCollectiveShards];
  }
  CollectiveShard& free_shard(std::size_t offset) {
    return collective_shards_[std::hash<std::size_t>{}(offset) %
                              kCollectiveShards];
  }
  std::array<CollectiveShard, kCollectiveShards> collective_shards_;
  /// Per-PE collective sequence numbers, lock-free: the n-th world-wide
  /// collective call on every PE derives the same key with no shared lock.
  std::vector<std::atomic<std::uint64_t>> alloc_seq_;
};

class ShmemLamellae final : public Lamellae {
 public:
  ShmemLamellae(ShmemLamellaeGroup& group, pe_id pe)
      : Lamellae(group.fabric().metrics(pe)), group_(group), pe_(pe) {}

  [[nodiscard]] pe_id my_pe() const override { return pe_; }
  [[nodiscard]] std::size_t num_pes() const override {
    return group_.fabric_.num_pes();
  }

  std::size_t alloc_symmetric(std::size_t bytes, std::size_t align) override;
  void free_symmetric(std::size_t offset) override;
  std::size_t alloc_symmetric_group(std::uint64_t key,
                                    std::size_t participants,
                                    std::size_t bytes,
                                    std::size_t align) override;
  void free_symmetric_group(std::size_t offset,
                            std::size_t participants) override;
  std::size_t alloc_onesided(std::size_t bytes, std::size_t align) override;
  void free_onesided(std::size_t offset) override;

  bool try_send(pe_id dst, ByteBuffer& buf) override {
    return group_.fabric_.try_send(pe_, dst, buf);
  }
  bool poll(FabricMessage& out) override { return group_.fabric_.poll(pe_, out); }
  [[nodiscard]] bool inbox_empty() const override {
    return group_.fabric_.inbox_empty(pe_);
  }
  BufferPool& buffer_pool(pe_id pe) override { return group_.buffer_pool(pe); }

  /// This PE's one-sided heap (tests / stress-harness invariant checks).
  OffsetHeap& onesided_heap() { return group_.onesided_heap(pe_); }

  void barrier() override { group_.fabric_.barrier(pe_); }
  void barrier(SenseBarrier& team, std::size_t rank) override {
    group_.fabric_.barrier(pe_, team, rank);
  }
  /// With virtual time off the PE clock stays at zero: real time instead.
  [[nodiscard]] sim_nanos now() const override {
    return group_.fabric_.virtual_time_enabled()
               ? group_.fabric_.clock(pe_).now()
               : real_now_ns();
  }
  [[nodiscard]] const PerfParams& params() const override {
    return group_.fabric_.params();
  }
  void charge(double ns) override { group_.fabric_.charge(pe_, ns); }
  [[nodiscard]] std::size_t pes_per_node() const override {
    return group_.fabric_.mapping().pes_per_node;
  }

 private:
  [[nodiscard]] std::span<std::byte> arena(pe_id pe) const override {
    return {group_.fabric_.arena(pe), group_.fabric_.arena_bytes()};
  }
  [[nodiscard]] double access_cost_ns(pe_id peer, Access kind,
                                      std::size_t bytes) const override;

  ShmemLamellaeGroup& group_;
  pe_id pe_;
};

}  // namespace lamellar
