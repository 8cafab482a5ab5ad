// ShmemLamellae: the in-process, multi-PE Lamellae — this repo's substitute
// for ROFI/libfabric (paper Sec. III-A).
//
// Plays the role of both the paper's ROFI Lamellae (when given a PeMapping
// that spreads PEs across modeled nodes) and its Shmem Lamellae (all PEs on
// one node).  The PEs of one world share a ShmemLamellaeGroup: every PE's
// arena (its registered RDMA memory region, split by ArenaLayout), its
// bounded message inbox, the world barrier and the one symmetric heap,
// whose rendezvous meets the participants (this process runs every PE).
// Each PE's endpoint owns the rest: its virtual clock, which every
// operation is charged to via the PerfParams model, and (in the Lamellae
// base) its metrics registry and one-sided heap.  Message arrival times
// propagate causality to receivers, so benchmark numbers reflect the
// modeled InfiniBand fabric.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "fabric/topology.hpp"
#include "fabric/virtual_clock.hpp"
#include "lamellae/lamellae.hpp"

namespace lamellar {

class ShmemLamellae;

/// What the PEs of one in-process world share.  Endpoints borrow the
/// group; the group must outlive them.
class ShmemLamellaeGroup {
 public:
  ShmemLamellaeGroup(std::size_t num_pes, ArenaLayout layout = {},
                     PerfParams params = paper_perf_params(),
                     PeMapping mapping = PeMapping{},
                     bool virtual_time = true);

  /// Build the endpoint for one PE.  Build each PE's endpoint once: it owns
  /// that PE's clock, registry and one-sided heap.
  std::unique_ptr<ShmemLamellae> endpoint(pe_id pe);

  [[nodiscard]] std::size_t num_pes() const { return arenas_.size(); }

  /// PE `pe`'s lane-buffer pool.  Owned here rather than by the endpoint:
  /// messages hand the sender's buffer over by pointer, and the receiver
  /// returns it to this pool, possibly after the sender's endpoint is gone.
  BufferPool& buffer_pool(pe_id pe) { return *buffer_pools_[pe]; }

 private:
  friend class ShmemLamellae;

  /// One PE's arena: a private anonymous mapping, so fresh regions read as
  /// zero (the registered-region behaviour higher layers rely on for flags)
  /// and pages are committed on first touch instead of zeroed at bring-up.
  class Arena {
   public:
    explicit Arena(std::size_t bytes);
    Arena(Arena&& o) noexcept
        : base_(std::exchange(o.base_, nullptr)), bytes_(o.bytes_) {}
    Arena& operator=(Arena&&) = delete;
    ~Arena();
    [[nodiscard]] std::byte* base() const { return base_; }

   private:
    std::byte* base_ = nullptr;
    std::size_t bytes_ = 0;
  };

  struct Inbox {
    mutable std::mutex mu;
    std::deque<FabricMessage> messages;
  };

  const ArenaLayout layout_;
  const PerfParams params_;
  const PeMapping mapping_;
  const bool virtual_time_;
  std::vector<Arena> arenas_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::size_t inbox_capacity_ = 4096;
  SenseBarrier world_barrier_;
  std::vector<std::unique_ptr<BufferPool>> buffer_pools_;
  std::shared_ptr<SymmetricHeap> symmetric_;
};

class ShmemLamellae final : public Lamellae {
 public:
  ShmemLamellae(ShmemLamellaeGroup& group, pe_id pe);

  /// Enqueue into `dst`'s inbox; false when that inbox is full.
  bool try_send(pe_id dst, ByteBuffer& buf) override;
  /// Pop one message, raising this PE's clock to its arrival time.
  bool poll(FabricMessage& out) override;
  [[nodiscard]] bool inbox_empty() const override;
  BufferPool& buffer_pool(pe_id pe) override { return group_.buffer_pool(pe); }

  /// World barrier (counted in fabric.barriers).
  void barrier() override;
  /// This PE's clock joins the barrier only while virtual time is on.
  void barrier(SenseBarrier& team, std::size_t rank) override;

  /// With virtual time off the PE clock stays at zero: real time instead.
  [[nodiscard]] sim_nanos now() const override {
    return group_.virtual_time_ ? clock_.now() : real_now_ns();
  }
  [[nodiscard]] const PerfParams& params() const override {
    return group_.params_;
  }
  /// Wall-clock runs charge nothing: the clock and fabric.vtime_charged_ns
  /// stay at zero.
  void charge(double ns) override {
    if (!group_.virtual_time_) return;
    clock_.advance(ns);
    vtime_charged_ns_->inc(static_cast<std::uint64_t>(ns));
  }
  [[nodiscard]] std::size_t pes_per_node() const override {
    return group_.mapping_.pes_per_node;
  }

  /// This PE's modeled clock itself, which now() reads only while virtual
  /// time is on.
  [[nodiscard]] const VirtualClock& clock() const { return clock_; }

 private:
  [[nodiscard]] std::byte* arena(pe_id pe) const override {
    return group_.arenas_[pe].base();
  }
  [[nodiscard]] double access_cost_ns(pe_id peer, Access kind,
                                      std::size_t bytes) const override;
  /// Cost of one put, get or message of `bytes` to or from `peer`
  /// (intra-node transfers bypass the NIC and are charged at memory-copy
  /// rates).
  [[nodiscard]] double transfer_cost_ns(pe_id peer, std::size_t bytes) const;

  ShmemLamellaeGroup& group_;
  VirtualClock clock_;
  obs::Counter* vtime_charged_ns_;
};

}  // namespace lamellar
