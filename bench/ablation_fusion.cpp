// Ablation — lazy expression fusion (DESIGN.md §11).
//
// Sweeps chain length k ∈ {1,2,4,8}: a chain of k elementwise adds over the
// same random index set, lowered either eagerly (k awaited batch_add passes,
// each paying its own plan pass and per-lane AM) or as one fused LazyChain
// (one plan pass, one AM per destination lane carrying the whole stage
// table).  Eager and fused trials alternate within one world so both see
// identical process state; wall-clock is real time, not the virtual clock.
// Expected shape: parity at k=1 (same wire traffic, small recorder
// overhead), widening fused advantage as k grows — the fused curve pays
// ~1/k of the eager AM count.
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.hpp"
#include "lamellar.hpp"
#include "obs/report.hpp"

using namespace lamellar;

namespace {

using u64 = std::uint64_t;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  const RuntimeConfig cfg = bench::bench_config();
  const std::size_t ops = env_size("LAMELLAR_FUSION_OPS", 4096);
  const std::size_t iters = env_size("LAMELLAR_FUSION_ITERS", 24);
  constexpr std::size_t kArrLen = 1 << 16;

  std::printf(
      "# Ablation: fused lazy chains vs eager batch passes "
      "(4 PEs, %zu ops/PE/pass, %zu iters, wall time)\n",
      ops, iters);
  std::printf("%6s %14s %14s %10s\n", "k", "eager ms", "fused ms", "speedup");

  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    double eager_ms = 0;
    double fused_ms = 0;
    obs::MetricsSnapshot snap;
    run_world(
        4,
        [&](World& world) {
          auto arr =
              AtomicArray<u64>::create(world, kArrLen, Distribution::kBlock);
          arr.fill(0);
          std::vector<global_index> idxs(ops);
          std::mt19937_64 rng(17 + world.my_pe());
          for (auto& i : idxs) i = rng() % kArrLen;

          auto run_eager = [&] {
            for (std::size_t s = 0; s < k; ++s) {
              world.block_on(arr.batch_add(idxs, 1));
            }
          };
          auto run_fused = [&] {
            auto chain = arr.lazy();
            for (std::size_t s = 0; s < k; ++s) chain.add(idxs, 1);
            world.block_on(chain.materialize());
          };

          // Warm both paths (arena growth, lane buffers, darc registry).
          run_eager();
          run_fused();
          world.barrier();

          // Alternate eager/fused per round so neither impl benefits from
          // cache or allocator drift; barriers bracket each timed region so
          // every PE's stream is inside the measurement.
          double local_eager = 0;
          double local_fused = 0;
          for (std::size_t it = 0; it < iters; ++it) {
            world.barrier();
            auto t0 = Clock::now();
            run_eager();
            world.barrier();
            local_eager += ms_since(t0);

            world.barrier();
            t0 = Clock::now();
            run_fused();
            world.barrier();
            local_fused += ms_since(t0);
          }
          if (world.my_pe() == 0) {
            eager_ms = local_eager;
            fused_ms = local_fused;
          }
          bench::snapshot_at_quiescence(world, snap);
        },
        cfg);

    std::printf("%6zu %14.2f %14.2f %9.2fx\n", k, eager_ms, fused_ms,
                eager_ms / fused_ms);
    if (cfg.metrics_mode == MetricsMode::kJson) {
      const std::string eager_name = "eager k=" + std::to_string(k);
      const std::string fused_name = "fused k=" + std::to_string(k);
      if (bench::impl_selected(eager_name.c_str())) {
        std::printf("%s\n", obs::bench_json_line("ablation_fusion", eager_name,
                                                 snap)
                                .c_str());
      }
      if (bench::impl_selected(fused_name.c_str())) {
        std::printf("%s\n", obs::bench_json_line("ablation_fusion", fused_name,
                                                 snap)
                                .c_str());
      }
    }
  }
  return 0;
}
