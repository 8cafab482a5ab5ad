// Ablation D1 — the aggregation threshold (paper Sec. IV-A: 100 KB default;
// "this test indicating 512KB - 1MB are more appropriate for our system").
// Sweeps the threshold and reports AM-path bandwidth at a mid-size message
// plus live histogram rate, both in virtual time.
//
// The threshold is fixed for a world's lifetime (DESIGN.md §14), so each
// point runs in its own world; bring-up costs about 16 ms per world.
#include <cstdio>

#include "bale/histogram.hpp"
#include "lamellar.hpp"

using namespace lamellar;
using namespace lamellar::bale;

namespace {

struct PayloadAm {
  std::vector<std::uint8_t> data;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(data);
  }
  void exec(AmContext&) {}
};

struct Point {
  std::size_t threshold;
  double mbs;
  double mups;
};

}  // namespace

LAMELLAR_REGISTER_AM(PayloadAm);

int main() {
  const std::size_t thresholds[] = {16 * 1024,  64 * 1024,  100 * 1024,
                                    256 * 1024, 512 * 1024, 1024 * 1024};
  std::vector<Point> points;
  for (std::size_t threshold : thresholds) {
    RuntimeConfig cfg;
    cfg.agg_threshold_bytes = threshold;
    run_world(
        2,
        [&](World& world) {
          const std::size_t kSize = 4096, kN = 512;
          std::vector<std::uint8_t> payload(kSize, 1);
          world.barrier();
          const sim_nanos t0 = world.time_ns();
          if (world.my_pe() == 0) {
            for (std::size_t i = 0; i < kN; ++i) {
              world.exec_am_pe(1, PayloadAm{payload});
            }
            world.wait_all();
          }
          world.barrier();
          const sim_nanos t1 = world.time_ns();
          HistogramParams p;
          p.updates_per_pe = 10'000;
          auto r = histogram_kernel(world, Backend::kLamellarAm, p);
          if (world.my_pe() == 0) {
            points.push_back(
                {threshold,
                 static_cast<double>(kSize) * kN /
                     static_cast<double>(t1 - t0) * 1000.0,
                 static_cast<double>(r.ops) * 2 /
                     static_cast<double>(r.elapsed_ns) * 1000.0});
          }
          world.barrier();
        },
        cfg, paper_perf_params(), PeMapping{1});
  }
  std::printf("# Ablation D1: aggregation threshold sweep (virtual time, "
              "one world per threshold)\n");
  std::printf("%12s %16s %16s\n", "threshold", "AM 4KB MB/s", "histo MUPS");
  for (const Point& pt : points) {
    std::printf("%12zu %16.1f %16.1f\n", pt.threshold, pt.mbs, pt.mups);
  }
  return 0;
}
