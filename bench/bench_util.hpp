// Shared helpers for the figure benchmark drivers.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.hpp"
#include "core/world/world.hpp"
#include "obs/metrics.hpp"

namespace lamellar::bench {

/// Env config for a figure bench.  The drivers collect results (rates,
/// verification, snapshots) by writing captured locals from the SPMD body,
/// which only works when PEs share the launching process — under
/// LAMELLAR_BACKEND=mmap those writes would die with the forked children
/// and every row would read 0.0/NO.  Pin the bench worlds to the in-process
/// backend and say so, rather than reporting nonsense.
inline RuntimeConfig bench_config() {
  RuntimeConfig cfg = RuntimeConfig::from_env();
  if (cfg.backend == BackendKind::kMmap) {
    std::fprintf(stderr,
                 "bench: LAMELLAR_BACKEND=mmap is not supported by the "
                 "figure drivers (results are collected in-process); "
                 "running shmem.  Use ctest -L mp or the examples/ binaries "
                 "to exercise the mmap backend.\n");
    cfg.backend = BackendKind::kShmem;
  }
  return cfg;
}

/// Backend/impl filter: LAMELLAR_FIG_IMPL unset or empty selects every
/// impl; otherwise an impl runs only when the variable is a
/// case-insensitive substring of its display name (e.g. "lamellar am",
/// "am dart opt").  Lets CI trace one backend without the later backends
/// of the sweep overwriting the trace files.
inline bool impl_selected(const char* name) {
  const char* want = std::getenv("LAMELLAR_FIG_IMPL");
  if (want == nullptr || *want == '\0') return true;
  auto lower = [](const char* s) {
    std::string out;
    for (; *s != '\0'; ++s) {
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(*s)));
    }
    return out;
  };
  return lower(name).find(lower(want)) != std::string::npos;
}

/// PE 0's metrics, read at global quiescence: the quiesce rounds run_world
/// ends with, run here first.  A snapshot taken right after the kernel can
/// catch a worker between the am.bytes_copied and am.bytes_serialized bumps
/// of a reply record, and a plain barrier does not wait for Darc protocol
/// traffic.  Collective: every PE calls it.
inline void snapshot_at_quiescence(World& world, obs::MetricsSnapshot& out) {
  world.finalize();
  if (world.my_pe() == 0) out = world.metrics_snapshot();
}

}  // namespace lamellar::bench
