// Fig. 5 — Randperm running time (seconds, lower is better; ideally flat
// with growing core counts since the work per core is constant).
//
// Live in-process runs of the four Lamellar variants plus the Exstack
// baseline, then the modeled paper scales (1M permutation elements per
// core, 2x target array).
#include <cstdio>

#include "bale/randperm.hpp"
#include "bench_util.hpp"
#include "lamellar.hpp"
#include "obs/report.hpp"
#include "sim/sim_kernels.hpp"

using namespace lamellar;
using namespace lamellar::bale;

int main() {
  const auto impls = {RandpermImpl::kArrayDarts, RandpermImpl::kAmDart,
                      RandpermImpl::kAmDartOpt, RandpermImpl::kAmPush,
                      RandpermImpl::kExstack};

  const RuntimeConfig cfg = bench::bench_config();
  std::printf("# Fig.5 (a): live in-process randperm, 4 PEs, virtual time\n");
  std::printf("%-16s %14s %10s\n", "impl", "time (ms)", "verified");
  for (auto impl : impls) {
    if (!bench::impl_selected(randperm_impl_name(impl))) continue;
    double ms = 0;
    bool ok = false;
    obs::MetricsSnapshot snap;
    run_world(
        4,
        [&](World& world) {
          RandpermParams p;
          p.perm_per_pe = env_size("LAMELLAR_FIG5_PERM", 20'000);
          p.agg_limit = 10'000;
          auto r = randperm_kernel(world, impl, p);
          if (world.my_pe() == 0) {
            ms = static_cast<double>(r.elapsed_ns) / 1e6;
            ok = r.verified;
          }
          bench::snapshot_at_quiescence(world, snap);
        },
        cfg);
    std::printf("%-16s %14.2f %10s\n", randperm_impl_name(impl), ms,
                ok ? "yes" : "NO");
    if (cfg.metrics_mode == MetricsMode::kJson) {
      std::printf("%s\n",
                  obs::bench_json_line("fig5_randperm",
                                       randperm_impl_name(impl), snap)
                      .c_str());
    }
  }

  std::printf(
      "\n# Fig.5 (b): modeled scaling on the paper cluster "
      "(1M elements/core, seconds)\n");
  std::printf("%-16s", "impl");
  for (auto c : sim::paper_core_counts()) std::printf(" %10zu", c);
  std::printf("\n");
  for (auto impl : impls) {
    auto series = sim::model_randperm(impl, sim::paper_core_counts());
    std::printf("%-16s", randperm_impl_name(impl));
    for (const auto& pt : series) std::printf(" %10.3f", pt.value);
    std::printf("\n");
  }
  return 0;
}
