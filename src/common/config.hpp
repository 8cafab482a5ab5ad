// Runtime configuration, mirroring the environment-variable knobs the paper's
// runtime exposes (aggregation threshold, batch-op limit, heap sizes, worker
// threads).  Values are read once from the environment with documented
// defaults; every knob can also be set programmatically on WorldBuilder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lamellar {

/// What the metrics registry does with collected counters at end of run.
/// Collection itself is on in every mode except kOff (relaxed atomics on
/// padded cache lines — cheap enough to leave on), so tests and benches can
/// always read `world.metrics_snapshot()`.
enum class MetricsMode {
  kOff,      ///< registries disabled: zero entries, zero hot-path cost
  kQuiet,    ///< collect, but print nothing (default)
  kSummary,  ///< collect + per-PE summary table on stderr at teardown
  kJson,     ///< collect + JSON dump on stderr at teardown
};

/// How small AM records are routed between PEs (env: LAMELLAR_ROUTE=
/// direct|2hop).  kDirect aggregates per final destination — O(P) live
/// lanes per PE.  k2Hop routes small records through a same-row relay on
/// the RouteGrid (fabric/topology.hpp) that re-aggregates per destination
/// column — O(sqrt P) live lanes per PE, at the price of one extra copy per
/// relayed record.
enum class RouteMode {
  kDirect,
  k2Hop,
};

/// Which Lamellae implementation run_world builds (env: LAMELLAR_BACKEND=
/// shmem|mmap).  kShmem simulates PEs as threads in one address space;
/// kMmap forks one OS process per PE over a shared /dev/shm segment
/// (DESIGN.md §13).
enum class BackendKind {
  kShmem,
  kMmap,
};

struct RuntimeConfig {
  /// Worker threads per PE (paper: best results with 4 threads per PE, one
  /// PE per NUMA node).  Default is small because tests run many PEs within
  /// one process.
  std::size_t threads_per_pe = 1;

  /// Aggregation threshold in bytes: AMs smaller than this are batched into
  /// shared buffers before transfer (paper Sec. IV-A: 100 KB default, with
  /// 512 KB - 1 MB noted as better on their fabric).
  std::size_t agg_threshold_bytes = 100 * 1024;

  /// Maximum operations per array batch sub-message (paper: 10,000).
  std::size_t batch_op_limit = 10'000;

  /// Symmetric heap size per PE in bytes.
  std::size_t symmetric_heap_bytes = std::size_t{64} * 1024 * 1024;

  /// One-sided heap size per PE in bytes.
  std::size_t onesided_heap_bytes = std::size_t{32} * 1024 * 1024;

  /// Seed for all deterministic randomness.
  std::uint64_t seed = 42;

  /// Metrics collection/reporting mode (env: LAMELLAR_METRICS=
  /// off|quiet|summary|json; default quiet — collect, print nothing).
  MetricsMode metrics_mode = MetricsMode::kQuiet;

  /// When non-empty, export a Chrome trace_event JSON file here at end of
  /// run (env: LAMELLAR_TRACE_FILE=<path>; default off).  Load the file in
  /// chrome://tracing or https://ui.perfetto.dev.
  std::string trace_file;

  /// Per-thread trace ring capacity in events, rounded up to a power of
  /// two; the ring overwrites its oldest events once full
  /// (env: LAMELLAR_TRACE_CAPACITY; default 65536).
  std::size_t trace_ring_capacity = 1 << 16;

  /// Causal AM tracing sample rate: 0 disables (default); N samples one in
  /// every N remote request ids.  Sampled requests carry a 16-byte trace
  /// extension on the wire, populate the am.stage_* latency histograms, and
  /// emit Chrome flow events when the trace collector is on
  /// (env: LAMELLAR_TRACE_SAMPLE).
  std::uint64_t trace_sample = 0;

  /// When true and a trace file is configured, write one trace file per PE
  /// ("trace.json" -> "trace.pe0.json", ...) instead of one combined file;
  /// tools/trace_stitch.py merges and verifies them
  /// (env: LAMELLAR_TRACE_PER_PE=1; default off).
  bool trace_per_pe = false;

  /// Background telemetry sampling interval in milliseconds: 0 disables
  /// (default); otherwise a low-rate sampler thread appends one JSONL line
  /// per PE per tick — counter deltas plus gauge levels — giving a
  /// time-series view of steady-state behaviour
  /// (env: LAMELLAR_METRICS_INTERVAL_MS).
  std::uint64_t metrics_interval_ms = 0;

  /// Destination for telemetry JSONL lines; empty means stderr
  /// (env: LAMELLAR_METRICS_FILE).
  std::string metrics_file;

  /// Small-record routing policy (env: LAMELLAR_ROUTE=direct|2hop; default
  /// direct).  See RouteMode.
  RouteMode route = RouteMode::kDirect;

  /// Worker park timeout in microseconds (env: LAMELLAR_PARK_US; default
  /// 200).  Idle workers wake this often to run the progress hook; raise it
  /// for massively oversubscribed scale runs (thousands of PEs on a few
  /// cores) so parked workers do not thrash the scheduler.
  std::uint64_t park_timeout_us = 200;

  /// Lamellae backend selection (env: LAMELLAR_BACKEND=shmem|mmap; default
  /// shmem).  See BackendKind.
  BackendKind backend = BackendKind::kShmem;

  /// mmap backend: capacity in bytes of each (dst, src) cross-process ring
  /// (env: LAMELLAR_MP_RING; default 1 MB).  Clamped up at segment creation
  /// so a full aggregation buffer always fits.
  std::size_t mp_ring_bytes = std::size_t{1} * 1024 * 1024;

  /// mmap backend: bounded-wait barrier timeout in milliseconds before
  /// aborting with a diagnostic naming the straggler PEs
  /// (env: LAMELLAR_MP_BARRIER_TIMEOUT_MS; default 10000).
  std::uint64_t mp_barrier_timeout_ms = 10'000;

  /// mmap backend: parent-side join timeout in milliseconds; children still
  /// alive after this are SIGKILLed and reported
  /// (env: LAMELLAR_MP_TIMEOUT_MS; default 120000).
  std::uint64_t mp_wait_timeout_ms = 120'000;

  /// Load overrides from LAMELLAR_* environment variables.
  static RuntimeConfig from_env();
};

/// Parse helpers (exposed for tests).
std::size_t env_size(const char* name, std::size_t fallback);
std::uint64_t env_u64(const char* name, std::uint64_t fallback);
std::string env_str(const char* name, const std::string& fallback);
MetricsMode parse_metrics_mode(const std::string& s);
RouteMode parse_route_mode(const std::string& s);
BackendKind parse_backend_kind(const std::string& s);

/// Names of LAMELLAR_-prefixed variables present in the environment that no
/// runtime, bench, or test knob recognises — typo detection for the table
/// in README.md.  from_env() warns about each on stderr (once per name per
/// process); exposed separately so tests can exercise the scan directly.
std::vector<std::string> unknown_lamellar_env_vars();

}  // namespace lamellar
