// Fig. 3 — Histogram kernel performance (MUPS, higher is better).
//
// Two sections: (1) live in-process runs of every backend's *real*
// implementation (scaled parameters, virtual-time rates); (2) the cluster
// model at the paper's 64-2048 core scales (paper parameters: 1000 table
// elements and 10M updates per core, 10k-op buffers).
#include <cstdio>

#include "bale/histogram.hpp"
#include "bench_util.hpp"
#include "lamellar.hpp"
#include "obs/report.hpp"
#include "sim/sim_kernels.hpp"

using namespace lamellar;
using namespace lamellar::bale;

int main() {
  const auto backends = {Backend::kLamellarAm, Backend::kLamellarArray,
                         Backend::kExstack,    Backend::kExstack2,
                         Backend::kConveyor,   Backend::kSelector,
                         Backend::kChapel};

  const RuntimeConfig cfg = bench::bench_config();
  std::printf("# Fig.3 (a): live in-process histogram, 4 PEs, virtual time\n");
  std::printf("%-16s %12s %10s\n", "impl", "MUPS", "verified");
  for (auto backend : backends) {
    if (!bench::impl_selected(backend_name(backend))) continue;
    double mups = 0;
    bool ok = false;
    obs::MetricsSnapshot snap;
    run_world(
        4,
        [&](World& world) {
          HistogramParams p;
          p.table_per_pe = 1'000;  // paper value
          p.updates_per_pe = env_size("LAMELLAR_FIG3_UPDATES", 20'000);
          p.agg_limit = 10'000;  // paper value
          auto r = histogram_kernel(world, backend, p);
          if (world.my_pe() == 0) {
            mups = static_cast<double>(r.ops) * world.num_pes() /
                   static_cast<double>(r.elapsed_ns) * 1000.0;
            ok = r.verified;
          }
          bench::snapshot_at_quiescence(world, snap);
        },
        cfg);
    std::printf("%-16s %12.1f %10s\n", backend_name(backend), mups,
                ok ? "yes" : "NO");
    if (cfg.metrics_mode == MetricsMode::kJson) {
      std::printf("%s\n",
                  obs::bench_json_line("fig3_histogram",
                                       backend_name(backend), snap)
                      .c_str());
    }
  }

  std::printf(
      "\n# Fig.3 (b): modeled scaling on the paper cluster "
      "(10M updates/core, MUPS)\n");
  std::printf("%-16s", "impl");
  for (auto c : sim::paper_core_counts()) std::printf(" %10zu", c);
  std::printf("\n");
  for (auto backend : backends) {
    auto series = sim::model_histogram(backend, sim::paper_core_counts());
    std::printf("%-16s", backend_name(backend));
    for (const auto& pt : series) std::printf(" %10.0f", pt.value);
    std::printf("\n");
  }
  return 0;
}
