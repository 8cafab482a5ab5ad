// Fig. 2 — put-like bandwidth curves (higher is better).
//
// Reproduces the paper's Sec. IV-A experiment: two PEs on different nodes;
// for each transfer size, N back-to-back put-like transfers from PE0 into
// PE1 through every Lamellar communication abstraction, plus the raw
// Rofi(libfabric) path as the upper bound.  Bandwidth is computed from the
// *virtual* clock, which the fabric charges with the calibrated InfiniBand
// model, so the curves reflect the paper's HDR-100 network, not this
// machine's memory system.
//
// Paper parameters: 262143 transfers for sizes <= 4 KB, 1 GiB / size above;
// by default the transfer counts are scaled down for runtime (512 up to
// 4 KB, a 16th above; set LAMELLAR_FIG2_FULL=1 for the paper's counts).
// Each timing window opens only once no runtime work is left in flight, so
// the Rofi, MemRegion and Unchecked columns, which are modeled charges
// alone, repeat byte for byte from run to run.  The other four columns run
// real AM traffic on two threads per PE, and the order in which those
// threads charge a clock varies from run to run.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "lamellar.hpp"
#include "obs/report.hpp"

namespace {

using namespace lamellar;

struct BwAm {
  std::vector<std::uint8_t> data;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(data);
  }
  void exec(AmContext&) {}  // paper: "the exec function returns immediately"
};

}  // namespace

LAMELLAR_REGISTER_AM(BwAm);

namespace {

constexpr std::size_t kMaxSize = 16ULL * 1024 * 1024;  // largest point

std::size_t transfers_for(std::size_t size, bool full) {
  if (full) {
    if (size <= 4096) return 262143;
    const std::size_t n = (1ULL << 30) / size;
    return n == 0 ? 1 : n;
  }
  // Scaled-down defaults: virtual-time bandwidth is per-message
  // deterministic, so fewer transfers give the same curve.
  if (size <= 4096) return 512;
  const std::size_t n = (1ULL << 30) / size / 16;
  return n < 8 ? 8 : n;
}

}  // namespace

int main() {
  const bool full = env_u64("LAMELLAR_FIG2_FULL", 0) != 0;
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= kMaxSize; s *= 2) sizes.push_back(s);

  struct Row {
    std::size_t size;
    double rofi, memregion, unchecked, unsafe_arr, locallock, atomic, am;
  };
  std::vector<Row> rows;

  RuntimeConfig cfg = bench::bench_config();
  cfg.threads_per_pe = 1;
  cfg.symmetric_heap_bytes = 256ULL * 1024 * 1024;
  obs::MetricsSnapshot snap;
  // Per-abstraction metric attribution (PE0): each impl's sections are
  // interleaved across transfer sizes, so boundary snapshots are deltaed
  // per section and accumulated per impl.
  constexpr std::size_t kImpls = 7;
  const char* impl_names[kImpls] = {"rofi",      "memregion", "unchecked",
                                    "unsafe_arr", "locallock", "atomic",
                                    "am"};
  obs::MetricsSnapshot per_impl[kImpls];
  obs::MetricsSnapshot boundary;
  run_world(
      2,
      [&](World& world) {
        const auto theoretical =
            world.lamellae().params().link_bytes_per_ns * 1000.0;
        const auto attribute = [&](std::size_t k) {
          if (world.my_pe() != 0) return;
          obs::MetricsSnapshot cur = world.metrics_snapshot();
          obs::snapshot_accumulate(per_impl[k],
                                   obs::snapshot_delta(boundary, cur));
          boundary = std::move(cur);
        };
        // Opens a timing window: work still in flight from the last window
        // would charge a clock inside this one, so drain it first.
        const auto open_window = [&] {
          while (!world.quiesce_round()) {
          }
          world.barrier();
          return world.time_ns();
        };
        if (world.my_pe() == 0) boundary = world.metrics_snapshot();
        for (auto size : sizes) {
          const std::size_t n = transfers_for(size, full);
          Row row{};
          row.size = size;

          // Rofi(libfabric): raw fabric put into a registered region.
          auto region = SharedMemoryRegion<std::uint8_t>::create(world, size);
          {
            std::vector<std::uint8_t> payload(size, 1);
            const sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              // Pipelined posts: charge the no-latency cost per message as
              // the NIC would under back-to-back posting.  The window holds
              // n transfers: n - 1 charged posts, then one real transfer,
              // which keeps the data path honest and charges its own cost.
              const double per_msg =
                  world.lamellae().params().pipelined_cost_ns(size);
              for (std::size_t i = 0; i + 1 < n; ++i) {
                world.lamellae().charge(per_msg);
              }
              region.unsafe_put(1, 0, payload);
            }
            world.barrier();
            const sim_nanos t1 = world.time_ns();
            row.rofi = static_cast<double>(size) * static_cast<double>(n) /
                       static_cast<double>(t1 - t0) * 1000.0;
            attribute(0);
          }

          // MemRegion: light wrapper over the fabric call (adds the runtime
          // bounds/offset handling).
          {
            std::vector<std::uint8_t> payload(size, 2);
            const sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              const double per_msg =
                  world.lamellae().params().pipelined_cost_ns(size) + 40.0;
              for (std::size_t i = 0; i + 1 < n; ++i) {
                world.lamellae().charge(per_msg);
              }
              region.unsafe_put(1, 0, payload);
            }
            world.barrier();
            const sim_nanos t1 = world.time_ns();
            row.memregion = static_cast<double>(size) *
                            static_cast<double>(n) /
                            static_cast<double>(t1 - t0) * 1000.0;
            attribute(1);
          }

          // Array paths: data lands in PE1's slab (block distribution).
          // u64 elements, as in the paper's array bandwidth tests.
          const std::size_t elems = std::max<std::size_t>(1, size / 8);
          auto mk_indices = [&](auto& arr) {
            return arr.len() / 2;  // start of PE1's half
          };

          {
            auto arr = UnsafeArray<std::uint64_t>::create(
                world, elems * 2, Distribution::kBlock);
            std::vector<std::uint64_t> payload(elems, 3);
            const auto start = mk_indices(arr);
            sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              const double per_msg =
                  world.lamellae().params().pipelined_cost_ns(size) + 120.0;
              for (std::size_t i = 0; i + 1 < n; ++i) {
                world.lamellae().charge(per_msg);
              }
              arr.unsafe_put_direct(start, payload);  // "unchecked"
            }
            world.barrier();
            sim_nanos t1 = world.time_ns();
            row.unchecked = static_cast<double>(size) *
                            static_cast<double>(n) /
                            static_cast<double>(t1 - t0) * 1000.0;
            attribute(2);

            t0 = open_window();
            if (world.my_pe() == 0) {
              for (std::size_t i = 0; i < n; ++i) {
                world.block_on(arr.put(start, payload));
              }
            }
            world.barrier();
            t1 = world.time_ns();
            row.unsafe_arr = static_cast<double>(size) *
                             static_cast<double>(n) /
                             static_cast<double>(t1 - t0) * 1000.0;
            attribute(3);
          }
          {
            auto arr = LocalLockArray<std::uint64_t>::create(
                world, elems * 2, Distribution::kBlock);
            std::vector<std::uint64_t> payload(elems, 4);
            const auto start = mk_indices(arr);
            const sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              for (std::size_t i = 0; i < n; ++i) {
                world.block_on(arr.put(start, payload));
              }
            }
            world.barrier();
            const sim_nanos t1 = world.time_ns();
            row.locallock = static_cast<double>(size) *
                            static_cast<double>(n) /
                            static_cast<double>(t1 - t0) * 1000.0;
            attribute(4);
          }
          {
            auto arr = AtomicArray<std::uint64_t>::create(
                world, elems * 2, Distribution::kBlock);
            std::vector<std::uint64_t> payload(elems, 5);
            const auto start = mk_indices(arr);
            const sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              for (std::size_t i = 0; i < n; ++i) {
                world.block_on(arr.put(start, payload));
              }
            }
            world.barrier();
            const sim_nanos t1 = world.time_ns();
            row.atomic = static_cast<double>(size) * static_cast<double>(n) /
                         static_cast<double>(t1 - t0) * 1000.0;
            attribute(5);
          }
          {
            std::vector<std::uint8_t> payload(size, 6);
            const sim_nanos t0 = open_window();
            if (world.my_pe() == 0) {
              for (std::size_t i = 0; i < n; ++i) {
                world.exec_am_pe(1, BwAm{payload});
              }
              world.wait_all();
            }
            world.barrier();
            const sim_nanos t1 = world.time_ns();
            row.am = static_cast<double>(size) * static_cast<double>(n) /
                     static_cast<double>(t1 - t0) * 1000.0;
            attribute(6);
          }

          if (world.my_pe() == 0) rows.push_back(row);
        }
        if (world.my_pe() == 0) {
          std::printf(
              "# Fig.2: put-like bandwidth curves (MB/s, virtual time; "
              "theoretical peak %.0f MB/s)\n",
              theoretical);
          std::printf("%10s %12s %12s %12s %12s %12s %12s %12s\n", "size",
                      "Rofi", "MemRegion", "Unchecked", "UnsafeArr",
                      "LocalLock", "Atomic", "AM");
          for (const auto& r : rows) {
            std::printf(
                "%10zu %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f\n",
                r.size, r.rofi, r.memregion, r.unchecked, r.unsafe_arr,
                r.locallock, r.atomic, r.am);
          }
          snap = world.metrics_snapshot();
        }
      },
      cfg, paper_perf_params(), PeMapping{1});
  if (cfg.metrics_mode == MetricsMode::kJson) {
    // One line per abstraction path (fig3/4/5-style), plus the whole-run
    // line downstream tooling already consumes.
    for (std::size_t k = 0; k < kImpls; ++k) {
      std::printf(
          "%s\n",
          obs::bench_json_line("fig2_bandwidth", impl_names[k], per_impl[k])
              .c_str());
    }
    std::printf("%s\n",
                obs::bench_json_line("fig2_bandwidth", "all", snap).c_str());
  }
  return 0;
}
