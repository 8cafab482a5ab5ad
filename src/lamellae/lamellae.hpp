// The Lamellae interface (paper Sec. III-A): the boundary between the
// runtime and a network backend.
//
// Exactly as in the paper, a Lamellae knows how to (de)initialize, report PE
// identity, (de)allocate RDMA memory regions, perform remote put/get
// transfers, run barriers, and move serialized message buffers between PEs.
// Implementations here: ShmemLamellae (PEs as threads, in-process arenas
// over ShmemFabric — models both the paper's ROFI and Shmem lamellae, with a
// PeMapping deciding which transfers are "inter-node"; a one-PE group plays
// the paper's SMP lamellae) and MmapLamellae (one forked process per PE over
// a shared segment).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>

#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "fabric/perf_model.hpp"
#include "fabric/shmem_fabric.hpp"

namespace lamellar {

/// The runtime's own page at the base of every PE's arena: both backends'
/// symmetric and one-sided heaps start above it, so no user allocation
/// ever aliases a runtime word.
inline constexpr std::size_t kReservedArenaBytes = 4096;

/// Offset in PE 0's reserved page of the count word that
/// World::quiesce_round adds every PE's outstanding work into.
inline constexpr std::size_t kQuiesceCountOffset = 0;

class Lamellae {
 public:
  virtual ~Lamellae() = default;
  Lamellae(const Lamellae&) = delete;
  Lamellae& operator=(const Lamellae&) = delete;

  [[nodiscard]] virtual pe_id my_pe() const = 0;
  [[nodiscard]] virtual std::size_t num_pes() const = 0;

  /// Base of this PE's registered memory arena.
  std::byte* base() { return arena(my_pe()).data(); }

  // ---- RDMA memory-region management ----

  /// Collective: every PE must call with identical arguments and in the same
  /// order; the same offset is returned on all PEs.  Blocks only the calling
  /// thread (paper Sec. III-A1).
  virtual std::size_t alloc_symmetric(std::size_t bytes,
                                      std::size_t align) = 0;

  /// Collective release; storage is reclaimed when the last PE calls.
  virtual void free_symmetric(std::size_t offset) = 0;

  /// Team-scoped collective allocation: `key` identifies the collective
  /// instance (identical on all participants, unique per call) and
  /// `participants` how many PEs take part.  Same offset returned to all.
  virtual std::size_t alloc_symmetric_group(std::uint64_t key,
                                            std::size_t participants,
                                            std::size_t bytes,
                                            std::size_t align) = 0;

  /// Team-scoped collective release.
  virtual void free_symmetric_group(std::size_t offset,
                                    std::size_t participants) = 0;

  /// One-sided allocation from this PE's dynamic heap.
  virtual std::size_t alloc_onesided(std::size_t bytes, std::size_t align) = 0;
  virtual void free_onesided(std::size_t offset) = 0;

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

  /// This PE's metrics registry (observability layer).  Always valid; an
  /// inert registry is returned when metrics are disabled.
  obs::MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] virtual const PerfParams& params() const = 0;

  /// Charge modeled host-side time to this PE.
  virtual void charge(double ns) = 0;

  /// PEs co-located per modeled node (the RouteGrid uses this to align
  /// 2-hop relay rows with nodes).  Backends without a node concept report 1.
  [[nodiscard]] virtual std::size_t pes_per_node() const { return 1; }

 protected:
  /// `metrics` is this PE's registry; it must outlive the endpoint.
  explicit Lamellae(obs::MetricsRegistry& metrics)
      : fabric_counters_(metrics), metrics_(metrics) {}

  [[nodiscard]] static sim_nanos real_now_ns() {
    return static_cast<sim_nanos>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// The RDMA accesses the cost model tells apart.
  enum class Access { kTransfer, kPipelined, kAtomic };

  /// PE `pe`'s arena as mapped in this process; every PE's has one size.
  [[nodiscard]] virtual std::span<std::byte> arena(pe_id pe) const = 0;

  /// Modeled time one access of `bytes` into `peer`'s arena costs this PE.
  /// Backends that run on real time charge nothing.
  [[nodiscard]] virtual double access_cost_ns(pe_id /*peer*/, Access /*kind*/,
                                              std::size_t /*bytes*/) const {
    return 0.0;
  }

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

  obs::MetricsRegistry& metrics_;
};

}  // namespace lamellar
