// MmapLamellae: the process-separated Lamellae (DESIGN.md §13).
//
// PEs are forked OS processes sharing one mmap'd /dev/shm segment.  The
// segment holds, in order: a control page (barrier + lifecycle state), one
// SPSC byte ring per (dst, src) PE pair (the cross-process command-queue
// transport, with futex-based backpressure wakeup), and one RDMA arena per
// PE, [reserved page | symmetric | one-sided] as in-process.  Every process
// maps the whole segment, so the Lamellae's one RDMA path (memcpy into a
// peer's arena, std::atomic_ref on its words) runs here unchanged, now
// across genuine address-space boundaries; this backend only says where
// each arena is mapped.  Everything above the Lamellae interface (AM
// engine, aggregation lanes, arrays, Darc, termination detection) runs
// unmodified.
//
// Because this is the first backend where a peer can die independently,
// teardown is defensive: the barrier is a bounded futex wait that checks
// peer liveness every slice and aborts with a diagnostic naming the dead or
// straggling PE instead of hanging; the parent marks reaped casualties in
// the control page and wakes waiters; segments embed their creator's pid so
// orphans from a crashed parent are unlinked at the next startup.
//
// Addressing discipline: nothing stored in the segment is an absolute
// pointer.  Arenas, rings, and heap bookkeeping all use base-relative
// offsets, so the segment may map at a different address in every process
// (see the two-view MAP_FIXED regression test).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "lamellae/heap.hpp"
#include "lamellae/lamellae.hpp"

namespace lamellar {

namespace mpshm {

inline constexpr std::uint64_t kMagic = 0x4c414d4d50534831ull;  // "LAMMPSH1"
inline constexpr std::uint32_t kVersion = 2;

/// Per-PE lifecycle states in MpPeSlot::state.
enum PeState : std::uint32_t {
  kEmpty = 0,   ///< never attached
  kJoined = 1,  ///< process attached and running
  kExited = 2,  ///< detached cleanly
  kDead = 3,    ///< parent reaped a crash/nonzero exit before clean detach
};

struct alignas(64) MpPeSlot {
  std::atomic<std::int32_t> pid{0};
  std::atomic<std::uint32_t> state{kEmpty};
  /// Barrier generation this PE last arrived at (gen + 1); waiters use it to
  /// name stragglers in timeout diagnostics.
  std::atomic<std::uint32_t> bar_seen{0};
};

/// One SPSC byte ring: a single producer process (src) appends
/// length-prefixed records, a single consumer process (dst) pops them.
/// head/tail are free-running byte counts; head_seq mirrors the low 32 bits
/// of head as the futex word a backpressured producer sleeps on.
struct alignas(64) MpRingHdr {
  alignas(64) std::atomic<std::uint64_t> head{0};          // consumer-owned
  std::atomic<std::uint32_t> head_seq{0};
  std::atomic<std::uint32_t> producer_waiting{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};          // producer-owned
};

struct MpControl {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t num_pes = 0;
  std::int32_t creator_pid = 0;
  std::uint32_t pad0 = 0;
  // Segment geometry (byte offsets from the mapping base; never pointers).
  std::uint64_t slots_off = 0;
  std::uint64_t rings_off = 0;
  std::uint64_t ring_data_off = 0;
  std::uint64_t ring_bytes = 0;
  std::uint64_t arenas_off = 0;
  std::uint64_t arena_stride = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t total_bytes = 0;
  // Heap split above each arena's reserved page (mirrors
  // ShmemLamellaeGroup::Layout).
  std::uint64_t symmetric_bytes = 0;
  std::uint64_t onesided_bytes = 0;
  // Central barrier: bar_word packs (generation << 32) | arrived; bar_gen
  // mirrors the generation as the futex word waiters sleep on.
  alignas(64) std::atomic<std::uint64_t> bar_word{0};
  alignas(64) std::atomic<std::uint32_t> bar_gen{0};
  std::atomic<std::uint32_t> bar_abort{0};
  std::atomic<std::uint32_t> bar_abort_pe{0};
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need address-free 64-bit atomics");

}  // namespace mpshm

/// Parent-side handle on a created segment: owns the name (unlink-on-
/// destruction unless released), keeps a mapping so the parent can mark
/// reaped casualties for surviving PEs, and provides startup orphan
/// collection.
class MmapSegment {
 public:
  /// Create a fresh segment sized for `num_pes` PEs from the config's heap
  /// layout and mp knobs.  Also sweeps orphaned segments whose creator died.
  static MmapSegment create(std::size_t num_pes, const RuntimeConfig& cfg);

  ~MmapSegment();
  MmapSegment(MmapSegment&& o) noexcept;
  MmapSegment& operator=(MmapSegment&&) = delete;
  MmapSegment(const MmapSegment&) = delete;
  MmapSegment& operator=(const MmapSegment&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Mark `pe` dead (crash or nonzero exit reaped before clean detach) and
  /// wake any barrier waiters so they diagnose it immediately.
  void mark_pe_dead(pe_id pe);

  /// Unlink the segment name now (mappings stay valid until unmapped).
  void unlink();

  /// Unlink segments whose embedded creator pid no longer exists.  Returns
  /// the number swept.  Safe to call concurrently with live runs: live
  /// creators keep their segments.
  static int cleanup_orphans();

  /// Segment names under /dev/shm created by pid `creator` that still
  /// exist — the leak check used by the mp test fixtures.
  static std::vector<std::string> segments_of(std::int32_t creator);

 private:
  MmapSegment(std::string name, void* map, std::size_t bytes);

  std::string name_;
  void* map_ = nullptr;
  std::size_t bytes_ = 0;
  bool unlinked_ = false;
};

/// Child-side endpoint: one per forked PE process.
class MmapLamellae final : public Lamellae {
 public:
  MmapLamellae(const std::string& segment_name, pe_id pe,
               const RuntimeConfig& cfg);
  ~MmapLamellae() override;

  [[nodiscard]] pe_id my_pe() const override { return pe_; }
  [[nodiscard]] std::size_t num_pes() const override { return num_pes_; }

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

  bool try_send(pe_id dst, ByteBuffer& buf) override;
  bool poll(FabricMessage& out) override;
  [[nodiscard]] bool inbox_empty() const override;
  BufferPool& buffer_pool(pe_id) override { return *buffer_pool_; }

  void barrier() override;
  /// Only the full-world team can meet here, in the segment's world
  /// barrier: a sub-team would need team state in the shared segment (the
  /// mp rendezvous already rejects creating one).
  void barrier(SenseBarrier& team, std::size_t rank) override;
  [[nodiscard]] const PerfParams& params() const override { return params_; }
  /// Real processes run on real time: there is no modeled time to charge.
  void charge(double) override {}
  [[nodiscard]] std::size_t pes_per_node() const override { return num_pes_; }

  /// Clean detach: publish kExited so peers stop expecting this PE.
  void mark_exited();

  OffsetHeap& symmetric_heap() { return *symmetric_heap_; }
  OffsetHeap& onesided_heap() { return *onesided_heap_; }
  [[nodiscard]] const std::string& segment_name() const { return name_; }

 private:
  /// The public constructor builds the registry first, so that the base
  /// can resolve its counters from it.
  MmapLamellae(const std::string& segment_name, pe_id pe,
               const RuntimeConfig& cfg,
               std::unique_ptr<obs::MetricsRegistry> registry);

  [[nodiscard]] std::span<std::byte> arena(pe_id pe) const override {
    return {map_ + ctl_->arenas_off + pe * ctl_->arena_stride,
            ctl_->arena_bytes};
  }
  mpshm::MpPeSlot& slot(pe_id pe) const {
    return *reinterpret_cast<mpshm::MpPeSlot*>(map_ + ctl_->slots_off + pe * sizeof(mpshm::MpPeSlot));
  }
  mpshm::MpRingHdr& ring_hdr(pe_id dst, pe_id src) const {
    return *reinterpret_cast<mpshm::MpRingHdr*>(
        map_ + ctl_->rings_off +
        (dst * num_pes_ + src) * sizeof(mpshm::MpRingHdr));
  }
  std::byte* ring_data(pe_id dst, pe_id src) const {
    return map_ + ctl_->ring_data_off +
           (dst * num_pes_ + src) * ctl_->ring_bytes;
  }
  [[noreturn]] void abort_barrier(pe_id culprit, const std::string& why);
  [[noreturn]] void rethrow_barrier_abort() const;

  std::string name_;
  pe_id pe_ = 0;
  std::size_t num_pes_ = 0;
  int fd_ = -1;
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  mpshm::MpControl* ctl_ = nullptr;
  std::uint64_t barrier_timeout_ms_ = 10'000;

  // Symmetric heap: a deterministic per-process REPLICA.  World collectives
  // call alloc/free with identical arguments in identical order on every PE
  // (the SPMD contract the paper's runtime also relies on), so each
  // process's replica computes the same offsets with zero communication.
  std::unique_ptr<OffsetHeap> symmetric_heap_;
  std::unique_ptr<OffsetHeap> onesided_heap_;
  std::unique_ptr<BufferPool> buffer_pool_;

  PerfParams params_;
  std::unique_ptr<obs::MetricsRegistry> registry_;

  // Process-local producer/consumer locks: cross-process safety comes from
  // the ring head/tail protocol; these only serialize threads of THIS
  // process on the same ring.
  std::vector<std::unique_ptr<std::mutex>> send_mu_;  // one per destination
  mutable std::mutex poll_mu_;
  pe_id poll_cursor_ = 0;

  // Resolved handles on the mp.* events only this backend has (the
  // transport's fabric.* counters live in the base).
  obs::Counter* backpressure_waits_;
  obs::Counter* ring_wakes_;
  obs::Counter* barrier_futex_waits_;
};

}  // namespace lamellar
