// Fig. 4 — IndexGather kernel performance (MUPS, higher is better).
//
// Same structure as Fig. 3: live in-process runs plus the modeled paper
// scales.  Expected shape: rates below Histogram (a second message returns
// every value), Chapel's CopyAggregator on top at scale, and the Lamellar
// curves *reversed* relative to Fig. 3 (ReadOnlyArray above the manual AM
// variant at scale).
#include <cstdio>

#include "bale/indexgather.hpp"
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
  std::printf(
      "# Fig.4 (a): live in-process indexgather, 4 PEs, virtual time\n");
  std::printf("%-16s %12s %10s\n", "impl", "MUPS", "verified");
  for (auto backend : backends) {
    if (!bench::impl_selected(backend_name(backend))) continue;
    double mups = 0;
    bool ok = false;
    obs::MetricsSnapshot snap;
    run_world(
        4,
        [&](World& world) {
          IndexGatherParams p;
          p.table_per_pe = 1'000;
          p.requests_per_pe = env_size("LAMELLAR_FIG4_REQUESTS", 20'000);
          p.agg_limit = 10'000;
          auto r = indexgather_kernel(world, backend, p);
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
                  obs::bench_json_line("fig4_indexgather",
                                       backend_name(backend), snap)
                      .c_str());
    }
  }

  std::printf(
      "\n# Fig.4 (b): modeled scaling on the paper cluster "
      "(10M requests/core, MUPS)\n");
  std::printf("%-16s", "impl");
  for (auto c : sim::paper_core_counts()) std::printf(" %10zu", c);
  std::printf("\n");
  for (auto backend : backends) {
    auto series = sim::model_indexgather(backend, sim::paper_core_counts());
    std::printf("%-16s", backend_name(backend));
    for (const auto& pt : series) std::printf(" %10.0f", pt.value);
    std::printf("\n");
  }
  return 0;
}
