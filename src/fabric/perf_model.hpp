// LogGP-style network/host cost model.
//
// The fabric executes every transfer for real (memcpy between PE arenas) and
// charges *virtual nanoseconds* to per-PE clocks according to this model.
// Benchmarks read virtual time, so the reproduced curves reflect the paper's
// InfiniBand fabric rather than this machine's memory system.
//
// Calibration targets (paper Fig. 2 and Sec. IV-A):
//  * theoretical peak 12.5 GB/s; raw paths reach ~ peak by 32 KB transfers;
//  * a bandwidth drop between 128 B and 256 B caused by the libfabric verbs
//    provider switching from fi_inject_write to fi_write;
//  * measurable per-message runtime overhead for safe abstractions
//    (copy into Vec, atomic stores, lock acquisition, AM dispatch).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "fabric/topology.hpp"

namespace lamellar {

struct PerfParams {
  // ---- wire / NIC ----
  double wire_latency_ns = 1'000.0;   ///< one-way latency, small message
  double inject_overhead_ns = 480.0;  ///< host post cost, fi_inject_write path
  double post_overhead_ns = 1'350.0;  ///< host post cost, fi_write path
  std::size_t inject_threshold_bytes = 192;  ///< verbs inject switch point
  double link_bytes_per_ns = 12.5;           ///< 100 Gb/s HDR-100
  double achievable_fraction = 0.965;        ///< protocol efficiency at peak

  // ---- host-side costs charged by runtime layers ----
  double memcpy_bytes_per_ns = 14.0;   ///< single-core copy rate
  double atomic_store_ns = 2.1;        ///< per element (NativeAtomic path)
  double generic_mutex_ns = 7.5;       ///< per element 1-byte mutex path
  double rwlock_acquire_ns = 140.0;    ///< LocalLockArray per message
  double serialize_byte_ns = 0.055;    ///< serde cost per byte
  double am_dispatch_ns = 420.0;       ///< spawn+deserialize+complete one AM
  double agg_flush_overhead_ns = 700;  ///< close+hand off one agg buffer
  double task_spawn_ns = 95.0;         ///< enqueue on the work-stealing pool
  double barrier_ns = 4'000.0;         ///< world barrier (2 PEs)

  /// Per-message host overhead for an RDMA post of `bytes`.
  [[nodiscard]] double rdma_overhead_ns(std::size_t bytes) const {
    return bytes <= inject_threshold_bytes ? inject_overhead_ns
                                           : post_overhead_ns;
  }

  /// Time on the wire for `bytes` (serialization onto the link).
  [[nodiscard]] double wire_time_ns(std::size_t bytes) const {
    return static_cast<double>(bytes) /
           (link_bytes_per_ns * achievable_fraction);
  }

  /// Full cost of one remote put/get of `bytes`: host post overhead plus
  /// link serialization plus propagation.
  [[nodiscard]] double rdma_cost_ns(std::size_t bytes) const {
    return rdma_overhead_ns(bytes) + wire_time_ns(bytes) + wire_latency_ns;
  }

  /// Per-message cost under back-to-back pipelining (bandwidth tests):
  /// propagation latency overlaps with the next message, so throughput is
  /// governed by post overhead + link serialization.  This is what makes
  /// the Fig. 2 inject-threshold drop visible.
  [[nodiscard]] double pipelined_cost_ns(std::size_t bytes) const {
    return rdma_overhead_ns(bytes) + wire_time_ns(bytes);
  }

  /// Host memcpy cost.
  [[nodiscard]] double memcpy_ns(std::size_t bytes) const {
    return static_cast<double>(bytes) / memcpy_bytes_per_ns;
  }

  [[nodiscard]] double serialize_ns(std::size_t bytes) const {
    return static_cast<double>(bytes) * serialize_byte_ns;
  }
};

/// Steady-state bandwidth (MB/s, decimal) for back-to-back transfers of
/// `bytes` each costing `per_msg_ns`.
double bandwidth_mb_s(std::size_t bytes, double per_msg_ns);

/// Default parameters calibrated against the paper's Fig. 2.
PerfParams paper_perf_params();

}  // namespace lamellar
