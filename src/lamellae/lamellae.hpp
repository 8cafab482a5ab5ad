// The Lamellae interface (paper Sec. III-A): the boundary between the
// runtime and a network backend.
//
// Exactly as in the paper, a Lamellae knows how to (de)initialize, report PE
// identity, (de)allocate RDMA memory regions, perform remote put/get
// transfers, run barriers, and move serialized message buffers between PEs.
// Implementations here: ShmemLamellae (PEs as threads over in-process
// arenas — models both the paper's ROFI and Shmem lamellae, with a
// PeMapping deciding which transfers are "inter-node"; a one-PE group plays
// the paper's SMP lamellae) and MmapLamellae (one forked process per PE over
// a shared segment).  The base holds what every PE's endpoint owns on both
// backends: its identity, its metrics registry and its one-sided heap, and
// the symmetric heap it is handed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>

#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/rendezvous.hpp"
#include "common/types.hpp"
#include "fabric/barrier.hpp"
#include "fabric/perf_model.hpp"
#include "lamellae/heap.hpp"
#include "obs/metrics.hpp"

namespace lamellar {

/// The runtime's own page at the base of every PE's arena: both backends'
/// symmetric and one-sided heaps start above it, so no user allocation
/// ever aliases a runtime word.
inline constexpr std::size_t kReservedArenaBytes = 4096;

/// Offset in PE 0's reserved page of the count word that
/// World::quiesce_round adds every PE's outstanding work into.
inline constexpr std::size_t kQuiesceCountOffset = 0;

/// The split of every PE's arena: [reserved page | symmetric heap |
/// one-sided heap].  Every PE's arena has this one layout.
struct ArenaLayout {
  std::size_t symmetric_bytes = std::size_t{64} * 1024 * 1024;
  std::size_t onesided_bytes = std::size_t{32} * 1024 * 1024;

  [[nodiscard]] std::size_t onesided_base() const {
    return kReservedArenaBytes + symmetric_bytes;
  }
  [[nodiscard]] std::size_t total() const {
    return onesided_base() + onesided_bytes;
  }
};

/// The symmetric heap and the rendezvous its collectives meet in.  An
/// in-process group hands every endpoint the one it shares; each mmap
/// process keeps its own replica.  `local_pes` is the backend's one fact:
/// how many of the world's `world_pes` PEs this process runs.
struct SymmetricHeap {
  SymmetricHeap(const ArenaLayout& layout, std::size_t world_pes,
                std::size_t local_pes)
      : heap(kReservedArenaBytes, layout.symmetric_bytes),
        rendezvous(world_pes, local_pes) {}
  OffsetHeap heap;
  Rendezvous<std::size_t> rendezvous;
};

/// A serialized message in flight between two PEs.
struct FabricMessage {
  pe_id src = 0;
  sim_nanos arrival_time = 0;
  ByteBuffer payload;
};

/// Handles on one PE's `fabric.*` transport counters, the names both
/// backends share.  Resolved once at construction; ops update them with
/// relaxed atomics (no name lookups on the data path).
struct FabricCounters {
  explicit FabricCounters(obs::MetricsRegistry& reg);
  obs::Counter* puts;
  obs::Counter* gets;
  obs::Counter* atomics;
  obs::Counter* bytes_put;
  obs::Counter* bytes_get;
  obs::Counter* msgs_sent;
  obs::Counter* msgs_polled;
  obs::Counter* bytes_sent;
  obs::Counter* barriers;
};

class Lamellae {
 public:
  virtual ~Lamellae() = default;
  Lamellae(const Lamellae&) = delete;
  Lamellae& operator=(const Lamellae&) = delete;

  [[nodiscard]] pe_id my_pe() const { return pe_; }
  [[nodiscard]] std::size_t num_pes() const { return num_pes_; }
  [[nodiscard]] const ArenaLayout& layout() const { return layout_; }
  /// How many of the world's PEs this process runs: all of them
  /// in-process, one under mmap.
  [[nodiscard]] std::size_t local_pes() const {
    return symmetric_->rendezvous.local_pes();
  }

  /// Base of this PE's registered memory arena.
  std::byte* base() { return arena(pe_); }

  // ---- RDMA memory-region management ----

  // Written once for every backend (lamellae.cpp), over the symmetric heap
  // this endpoint is handed; its rendezvous (common/rendezvous.hpp) makes
  // one offset per collective.

  /// Collective: every PE must call with identical arguments and in the same
  /// order; the same offset is returned on all PEs.  Blocks only the calling
  /// thread (paper Sec. III-A1).
  std::size_t alloc_symmetric(std::size_t bytes, std::size_t align);

  /// Collective release; storage is reclaimed when the last PE calls.
  void free_symmetric(std::size_t offset);

  /// Team-scoped collective allocation: `key` identifies the collective
  /// instance (identical on all participants, unique per call) and
  /// `participants` how many PEs take part.  Same offset returned to all.
  /// A process that holds a replica throws Error unless all PEs take part.
  std::size_t alloc_symmetric_group(std::uint64_t key,
                                    std::size_t participants,
                                    std::size_t bytes, std::size_t align);

  /// Team-scoped collective release.
  void free_symmetric_group(std::size_t offset, std::size_t participants);

  /// One-sided allocation from this PE's dynamic heap.
  std::size_t alloc_onesided(std::size_t bytes, std::size_t align) {
    return onesided_heap_.alloc(bytes, align);
  }
  void free_onesided(std::size_t offset) { onesided_heap_.free(offset); }

  /// This PE's one-sided heap (the stress harness checks it at quiesce
  /// points).  It is internally locked.
  OffsetHeap& onesided_heap() { return onesided_heap_; }

  // ---- RDMA transfers (unsafe tier: no access control) ----
  //
  // Written once for every backend (lamellae.cpp): each maps every PE's
  // arena into this process, so a put or get is a memcpy and a remote
  // atomic is a std::atomic_ref on the peer's word.  Each op throws
  // BoundsError unless the PE is in range and [offset, offset + len) lies
  // inside the arena; an atomic's offset must also be 8-byte aligned.

  void put(pe_id dst, std::size_t dst_offset, std::span<const std::byte> data);
  void get(pe_id src, std::size_t remote_offset, std::span<std::byte> out);

  /// get() charged at the pipelined (back-to-back descriptor) rate.
  void get_pipelined(pe_id src, std::size_t remote_offset,
                     std::span<std::byte> out);

  // ---- remote atomics on 64-bit words in the arena ----
  std::uint64_t atomic_fetch_add_u64(pe_id dst, std::size_t offset,
                                     std::uint64_t v);
  std::uint64_t atomic_load_u64(pe_id dst, std::size_t offset);
  void atomic_store_u64(pe_id dst, std::size_t offset, std::uint64_t v);
  bool atomic_cas_u64(pe_id dst, std::size_t offset, std::uint64_t& expected,
                      std::uint64_t desired);

  // ---- serialized message transport ----

  /// Attempt to hand a finished buffer to the fabric.  On success the
  /// buffer is consumed (moved from); false means the destination is
  /// backpressured and the buffer is untouched — the caller should make
  /// progress (drain its own inbox) and retry.
  virtual bool try_send(pe_id dst, ByteBuffer& buf) = 0;

  /// Pop one incoming message buffer, if any.
  virtual bool poll(FabricMessage& out) = 0;

  [[nodiscard]] virtual bool inbox_empty() const = 0;

  /// Free list of the message buffers that `pe`'s outgoing lanes fill.  A
  /// receiver returns each drained inbox buffer to its sender's pool, so
  /// every PE's buffer stock circulates back to it however unevenly two
  /// PEs send.  Backends that copy messages out of a ring allocate inbox
  /// buffers locally and answer with this PE's own pool for any `pe`.
  virtual BufferPool& buffer_pool(pe_id pe) = 0;

  // ---- synchronization / accounting ----

  /// World barrier over every PE.
  virtual void barrier() = 0;

  /// Team barrier: this PE arrives at `team` as participant `rank`.
  virtual void barrier(SenseBarrier& team, std::size_t rank) = 0;

  /// This PE's time in nanoseconds, the one time source every stamp reads
  /// (trace events, stage histograms): the PE's virtual clock
  /// while the performance model charges it, steady-clock nanoseconds
  /// otherwise.
  [[nodiscard]] virtual sim_nanos now() const { return real_now_ns(); }

  /// This PE's metrics registry (observability layer): the home of every
  /// runtime counter on this PE.
  obs::MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] virtual const PerfParams& params() const = 0;

  /// Charge modeled host-side time to this PE.
  virtual void charge(double ns) = 0;

  /// PEs co-located per modeled node (the RouteGrid uses this to align
  /// 2-hop relay rows with nodes).  Backends without a node concept report 1.
  [[nodiscard]] virtual std::size_t pes_per_node() const { return 1; }

 protected:
  Lamellae(pe_id pe, std::size_t num_pes, ArenaLayout layout,
           std::shared_ptr<SymmetricHeap> symmetric);

  [[nodiscard]] static sim_nanos real_now_ns() {
    return static_cast<sim_nanos>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// The RDMA accesses the cost model tells apart.
  enum class Access { kTransfer, kPipelined, kAtomic };

  /// Base of PE `pe`'s arena as mapped in this process; every arena is
  /// layout().total() bytes.
  [[nodiscard]] virtual std::byte* arena(pe_id pe) const = 0;

  /// Modeled time one access of `bytes` into `peer`'s arena costs this PE.
  /// Backends that run on real time charge nothing.
  [[nodiscard]] virtual double access_cost_ns(pe_id /*peer*/, Access /*kind*/,
                                              std::size_t /*bytes*/) const {
    return 0.0;
  }

  /// This PE's registry; declared first, since fabric_counters_ resolves
  /// its handles here.
  obs::MetricsRegistry metrics_;
  /// This PE's `fabric.*` counters; backends count messages and barriers
  /// here too.
  FabricCounters fabric_counters_;

 private:
  /// Start of [offset, offset + len) in `pe`'s arena, after the PE and
  /// bounds checks.
  std::byte* checked(pe_id pe, std::size_t offset, std::size_t len) const;
  void read(pe_id src, std::size_t remote_offset, std::span<std::byte> out,
            Access kind);
  /// The checked, charged and counted word one remote atomic acts on.
  std::atomic_ref<std::uint64_t> atomic_word(pe_id pe, std::size_t offset);

  const pe_id pe_;
  const std::size_t num_pes_;
  const ArenaLayout layout_;
  OffsetHeap onesided_heap_;
  std::shared_ptr<SymmetricHeap> symmetric_;
  /// World-wide collective allocations so far: the n-th one on every PE
  /// derives the same rendezvous key with no shared lock.
  std::atomic<std::uint64_t> world_allocs_{0};
};

}  // namespace lamellar
