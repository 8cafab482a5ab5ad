// Paper-scale PE counts (ISSUE 8): fig3/4/5-style AM storms at
// P in {64, 256, 1024, 2048} virtual PEs, 1-hop (direct) vs 2-hop routing
// ablation.  Each row reports wall/model time, fabric buffers and bytes on
// the wire, relay activity, and the per-PE live-lane high-water mark — the
// evidence for the DESIGN.md §12 scale discipline: 2-hop re-aggregation
// sends fewer, fuller buffers, and memory-lean lanes keep per-PE lane
// storage O(sqrt P).
//
// The whole sweep runs in-process with deliberately tiny heaps and one
// worker thread per PE, so 2048 PEs fit a single host.  Output: progress on
// stderr, one complete JSON document on stdout (redirect to
// BENCH_scale.json).
//
// Knobs: LAMELLAR_SCALE_PES (default "64,256,1024,2048"),
// LAMELLAR_SCALE_ROUTES ("direct,2hop"), LAMELLAR_SCALE_KERNELS
// ("fig3,fig4,fig5"), LAMELLAR_SCALE_OPS (ops per PE, default 512),
// LAMELLAR_SCALE_AGG (aggregation threshold, default 2048),
// LAMELLAR_SCALE_PARK_US (idle-worker park timeout, default 20000).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lamellar.hpp"

using namespace lamellar;

namespace scalebench {

namespace {

std::uint64_t* table_cell(AmContext& ctx, std::uint64_t offset,
                          std::uint64_t slot) {
  return reinterpret_cast<std::uint64_t*>(ctx.world().lamellae().base() +
                                          offset) +
         slot;
}

}  // namespace

/// fig3-style histogram update: atomically increment a slot of the target's
/// symmetric table.
struct HistAm {
  std::uint64_t table_offset = 0;
  std::uint64_t slot = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(table_offset, slot);
  }
  void exec(AmContext& ctx) {
    std::atomic_ref<std::uint64_t> ref(*table_cell(ctx, table_offset, slot));
    ref.fetch_add(1, std::memory_order_relaxed);
  }
};

/// fig4-style indexgather: read a slot of the target's table (reply-heavy).
struct GatherAm {
  std::uint64_t table_offset = 0;
  std::uint64_t slot = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(table_offset, slot);
  }
  std::uint64_t exec(AmContext& ctx) {
    std::atomic_ref<std::uint64_t> ref(*table_cell(ctx, table_offset, slot));
    return ref.load(std::memory_order_relaxed);
  }
};

/// fig5-style dart throw: CAS-claim a free slot; the origin retries misses.
struct DartAm {
  std::uint64_t table_offset = 0;
  std::uint64_t slot = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(table_offset, slot);
  }
  std::uint64_t exec(AmContext& ctx) {
    std::atomic_ref<std::uint64_t> ref(*table_cell(ctx, table_offset, slot));
    std::uint64_t expected = 0;
    return ref.compare_exchange_strong(expected, 1,
                                       std::memory_order_relaxed)
               ? 1
               : 0;
  }
};

}  // namespace scalebench

LAMELLAR_REGISTER_AM(scalebench::HistAm);
LAMELLAR_REGISTER_AM(scalebench::GatherAm);
LAMELLAR_REGISTER_AM(scalebench::DartAm);

namespace scalebench {
namespace {

/// All-PE sum via fabric atomics on one symmetric word (Darc-free so the
/// verification path itself stays O(1) memory per PE at 2048 PEs).
std::uint64_t global_sum(World& world, std::uint64_t local) {
  Lamellae& lam = world.lamellae();
  const std::size_t off = lam.alloc_symmetric(sizeof(std::uint64_t), 8);
  if (world.my_pe() == 0) {
    *reinterpret_cast<std::uint64_t*>(lam.base() + off) = 0;
  }
  world.barrier();
  lam.atomic_fetch_add_u64(0, off, local);
  world.barrier();
  const std::uint64_t total = lam.atomic_load_u64(0, off);
  world.barrier();
  lam.free_symmetric(off);
  return total;
}

std::uint64_t* local_table(World& world, std::size_t offset) {
  return reinterpret_cast<std::uint64_t*>(world.lamellae().base() + offset);
}

bool kern_fig3(World& world, std::size_t ops, std::uint64_t seed) {
  constexpr std::size_t kSlots = 64;
  const std::size_t off =
      world.lamellae().alloc_symmetric(kSlots * sizeof(std::uint64_t), 8);
  std::uint64_t* table = local_table(world, off);
  for (std::size_t s = 0; s < kSlots; ++s) table[s] = 0;
  world.barrier();
  auto rng = pe_rng(seed, world.my_pe());
  for (std::size_t i = 0; i < ops; ++i) {
    const auto dst = static_cast<pe_id>(rng.uniform(world.num_pes()));
    world.engine().send_cb(dst, HistAm{off, rng.uniform(kSlots)}, [](Unit) {});
  }
  world.engine().wait_all();
  world.barrier();
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < kSlots; ++s) sum += table[s];
  const std::uint64_t total = global_sum(world, sum);
  world.lamellae().free_symmetric(off);
  return total == static_cast<std::uint64_t>(ops) * world.num_pes();
}

bool kern_fig4(World& world, std::size_t ops, std::uint64_t seed) {
  constexpr std::size_t kSlots = 64;
  const std::size_t off =
      world.lamellae().alloc_symmetric(kSlots * sizeof(std::uint64_t), 8);
  std::uint64_t* table = local_table(world, off);
  for (std::size_t s = 0; s < kSlots; ++s) {
    table[s] = static_cast<std::uint64_t>(world.my_pe()) * kSlots + s;
  }
  world.barrier();
  auto rng = pe_rng(seed + 1, world.my_pe());
  auto errors = std::make_shared<std::atomic<std::uint64_t>>(0);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto dst = static_cast<pe_id>(rng.uniform(world.num_pes()));
    const std::uint64_t slot = rng.uniform(kSlots);
    const std::uint64_t want = static_cast<std::uint64_t>(dst) * kSlots + slot;
    world.engine().send_cb(dst, GatherAm{off, slot},
                           [errors, want](std::uint64_t got) {
                             if (got != want) {
                               errors->fetch_add(1, std::memory_order_relaxed);
                             }
                           });
  }
  world.engine().wait_all();
  world.barrier();
  const std::uint64_t bad =
      global_sum(world, errors->load(std::memory_order_relaxed));
  world.lamellae().free_symmetric(off);
  return bad == 0;
}

bool kern_fig5(World& world, std::size_t ops, std::uint64_t seed) {
  const std::size_t slots = 2 * ops;
  const std::size_t off =
      world.lamellae().alloc_symmetric(slots * sizeof(std::uint64_t), 8);
  std::uint64_t* table = local_table(world, off);
  for (std::size_t s = 0; s < slots; ++s) table[s] = 0;
  world.barrier();
  auto rng = pe_rng(seed + 2, world.my_pe());
  auto misses = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::uint64_t pending = ops;
  while (pending > 0) {
    misses->store(0, std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < pending; ++i) {
      const auto dst = static_cast<pe_id>(rng.uniform(world.num_pes()));
      world.engine().send_cb(dst, DartAm{off, rng.uniform(slots)},
                             [misses](std::uint64_t claimed) {
                               if (claimed == 0) {
                                 misses->fetch_add(1,
                                                   std::memory_order_relaxed);
                               }
                             });
    }
    world.engine().wait_all();
    pending = misses->load(std::memory_order_relaxed);
  }
  world.barrier();
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < slots; ++s) sum += table[s];
  const std::uint64_t total = global_sum(world, sum);
  world.lamellae().free_symmetric(off);
  return total == static_cast<std::uint64_t>(ops) * world.num_pes();
}

struct RowStats {
  double wall_ms = 0;
  double model_ms = 0;
  std::uint64_t buffers_sent = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t relayed_records = 0;
  std::uint64_t sent_routed = 0;
  std::int64_t live_lanes_hw = 0;  // max over PEs
  bool verified = false;
};

RowStats run_one(const std::string& kernel, std::size_t pes, RouteMode route,
                 std::size_t ops) {
  RuntimeConfig cfg;
  cfg.threads_per_pe = 1;
  cfg.agg_threshold_bytes = env_size("LAMELLAR_SCALE_AGG", 2048);
  cfg.symmetric_heap_bytes = 256 * 1024;
  cfg.onesided_heap_bytes = 64 * 1024;
  cfg.metrics_mode = MetricsMode::kQuiet;
  cfg.park_timeout_us = env_u64("LAMELLAR_SCALE_PARK_US", 20'000);
  cfg.route = route;
  // symmetric heap cap: fig5 table = 2 * ops u64 words + slack
  if ((2 * ops + 1024) * sizeof(std::uint64_t) > cfg.symmetric_heap_bytes) {
    cfg.symmetric_heap_bytes = (2 * ops + 1024) * sizeof(std::uint64_t);
  }

  RowStats stats;
  std::vector<obs::MetricsSnapshot> snaps(pes);
  std::atomic<bool> ok{true};
  std::atomic<std::int64_t> model_ns{0};
  const auto t0 = std::chrono::steady_clock::now();
  run_world(
      pes,
      [&](World& world) {
        bool v = false;
        if (kernel == "fig3") {
          v = kern_fig3(world, ops, 0xC0FFEE);
        } else if (kernel == "fig4") {
          v = kern_fig4(world, ops, 0xC0FFEE);
        } else if (kernel == "fig5") {
          v = kern_fig5(world, ops, 0xC0FFEE);
        }
        if (!v) ok.store(false, std::memory_order_relaxed);
        snaps[world.my_pe()] = world.metrics_snapshot();
        if (world.my_pe() == 0) {
          model_ns.store(static_cast<std::int64_t>(world.time_ns()),
                         std::memory_order_relaxed);
        }
      },
      cfg, paper_perf_params(), PeMapping{64});
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  stats.model_ms =
      static_cast<double>(model_ns.load(std::memory_order_relaxed)) / 1e6;
  stats.verified = ok.load(std::memory_order_relaxed);
  for (const auto& snap : snaps) {
    stats.buffers_sent += snap.counter("cmdq.buffers_sent");
    stats.bytes_on_wire += snap.counter("cmdq.bytes_sent");
    stats.relayed_records += snap.counter("am.relayed_records");
    stats.sent_routed += snap.counter("am.sent_routed");
    for (const auto& [name, vals] : snap.gauges) {
      if (name == "cmdq.live_lanes" && vals.second > stats.live_lanes_hw) {
        stats.live_lanes_hw = vals.second;
      }
    }
  }
  return stats;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace
}  // namespace scalebench

int main() {
  using namespace scalebench;
  const auto pes_list = split_csv(env_str("LAMELLAR_SCALE_PES",
                                          "64,256,1024,2048"));
  const auto routes = split_csv(env_str("LAMELLAR_SCALE_ROUTES",
                                        "direct,2hop"));
  const auto kernels = split_csv(env_str("LAMELLAR_SCALE_KERNELS",
                                         "fig3,fig4,fig5"));
  const std::size_t ops = env_size("LAMELLAR_SCALE_OPS", 512);

  bool all_ok = true;
  std::vector<std::string> rows;
  for (const auto& pes_str : pes_list) {
    const auto pes = static_cast<std::size_t>(std::stoull(pes_str));
    for (const auto& kernel : kernels) {
      for (const auto& route_str : routes) {
        const RouteMode route = parse_route_mode(route_str);
        const RowStats s = run_one(kernel, pes, route, ops);
        all_ok = all_ok && s.verified;
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "  {\"kernel\": \"%s\", \"pes\": %zu, \"route\": \"%s\", "
            "\"ops_per_pe\": %zu, \"wall_ms\": %.1f, \"model_ms\": %.3f, "
            "\"buffers_sent\": %llu, \"bytes_on_wire\": %llu, "
            "\"relayed_records\": %llu, \"sent_routed\": %llu, "
            "\"live_lanes_hw\": %lld, \"verified\": %s}",
            kernel.c_str(), pes, route_str.c_str(), ops, s.wall_ms,
            s.model_ms,
            static_cast<unsigned long long>(s.buffers_sent),
            static_cast<unsigned long long>(s.bytes_on_wire),
            static_cast<unsigned long long>(s.relayed_records),
            static_cast<unsigned long long>(s.sent_routed),
            static_cast<long long>(s.live_lanes_hw),
            s.verified ? "true" : "false");
        rows.emplace_back(line);
        std::fprintf(stderr,
                     "%-5s P=%-5zu %-6s wall=%8.1fms buffers=%9llu "
                     "bytes=%12llu relayed=%9llu lanes_hw=%4lld %s\n",
                     kernel.c_str(), pes, route_str.c_str(), s.wall_ms,
                     static_cast<unsigned long long>(s.buffers_sent),
                     static_cast<unsigned long long>(s.bytes_on_wire),
                     static_cast<unsigned long long>(s.relayed_records),
                     static_cast<long long>(s.live_lanes_hw),
                     s.verified ? "ok" : "VERIFY-FAIL");
      }
    }
  }

  std::printf("{\n \"bench\": \"bench_scale\",\n \"ops_per_pe\": %zu,\n"
              " \"rows\": [\n",
              ops);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s%s\n", rows[i].c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf(" ]\n}\n");
  return all_ok ? 0 : 1;
}
