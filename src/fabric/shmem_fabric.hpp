// The in-process shared-memory fabric — this repo's substitute for
// ROFI/libfabric (paper Sec. III-A).
//
// Every PE owns a byte arena playing the role of its registered RDMA memory
// region; put/get and remote atomics on it are the Lamellae's one RDMA path
// (lamellae.cpp).  Message buffers travel through bounded per-destination
// inboxes (the command-queue transport).  Every operation is charged to the
// initiating PE's virtual clock via the PerfParams model, and message
// arrival times propagate causality to receivers, so benchmark numbers
// reflect the modeled InfiniBand fabric.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "fabric/barrier.hpp"
#include "fabric/perf_model.hpp"
#include "fabric/topology.hpp"
#include "fabric/virtual_clock.hpp"
#include "obs/metrics.hpp"

namespace lamellar {

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

class ShmemFabric {
 public:
  /// `metrics_enabled=false` makes every per-PE registry inert
  /// (LAMELLAR_METRICS=off): lookups return shared dummy slots and
  /// snapshots are empty.
  ShmemFabric(std::size_t num_pes, std::size_t arena_bytes,
              PerfParams params = paper_perf_params(),
              PeMapping mapping = PeMapping{}, bool virtual_time = true,
              bool metrics_enabled = true);

  [[nodiscard]] std::size_t num_pes() const { return clocks_.size(); }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_bytes_; }
  [[nodiscard]] std::byte* arena(pe_id pe) const { return arenas_[pe].base(); }
  [[nodiscard]] const PerfParams& params() const { return params_; }
  [[nodiscard]] const PeMapping& mapping() const { return mapping_; }

  // ---- messaging (command-queue transport) ----

  /// Attempt to enqueue a serialized buffer for `dst`.  Returns false when
  /// the destination inbox is full (caller should make progress and retry).
  bool try_send(pe_id src, pe_id dst, ByteBuffer& payload);

  /// Pop one pending message for `pe`.  Raises the PE clock to the message
  /// arrival time.  Returns false when the inbox is empty.
  bool poll(pe_id pe, FabricMessage& out);

  [[nodiscard]] bool inbox_empty(pe_id pe) const;

  // ---- synchronization ----

  /// World barrier (counted in fabric.barriers).
  void barrier(pe_id pe);

  /// `pe` arrives at `b` as participant `rank`; its clock joins the
  /// barrier only while virtual time is on.
  void barrier(pe_id pe, SenseBarrier& b, std::size_t rank);

  VirtualClock& clock(pe_id pe) { return clocks_[pe]; }

  /// The per-PE metrics registry (the canonical home of every runtime
  /// counter on that PE; higher layers register their own metrics here).
  obs::MetricsRegistry& metrics(pe_id pe) { return registries_[pe]; }

  /// Charge local host-side work to a PE clock (used by higher layers).
  /// Wall-clock runs charge nothing: the clock and
  /// fabric.vtime_charged_ns stay at zero.
  void charge(pe_id pe, double ns) {
    if (!virtual_time_) return;
    clocks_[pe].advance(ns);
    vtime_charged_ns_[pe]->inc(static_cast<std::uint64_t>(ns));
  }

  [[nodiscard]] bool virtual_time_enabled() const { return virtual_time_; }

  /// Cost of one put, get or message of `bytes` between these PEs
  /// (intra-node transfers bypass the NIC and are charged at memory-copy
  /// rates).
  [[nodiscard]] double transfer_cost_ns(pe_id a, pe_id b,
                                        std::size_t bytes) const;

 private:
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

  std::size_t arena_bytes_;
  PerfParams params_;
  PeMapping mapping_;
  bool virtual_time_;
  std::vector<Arena> arenas_;
  std::vector<VirtualClock> clocks_;
  std::deque<obs::MetricsRegistry> registries_;  // deque: non-movable elems
  std::vector<FabricCounters> fab_metrics_;
  std::vector<obs::Counter*> vtime_charged_ns_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::size_t inbox_capacity_ = 4096;
  SenseBarrier world_barrier_;
};

}  // namespace lamellar
