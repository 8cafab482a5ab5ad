// Paper-scale routing and memory-lean lane behaviour: the RouteGrid (2-hop
// Conveyors-style relay promoted into the aggregation layer), topology
// validation, the identity-based tree barrier, lazy lane allocation, and an
// all-to-all storm at 256 PEs asserting the O(sqrt P) live-lane bound the
// scaling work exists to provide.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fabric/barrier.hpp"
#include "fabric/topology.hpp"
#include "lamellar.hpp"

namespace {

using namespace lamellar;

// ---- RouteGrid geometry ----------------------------------------------------

TEST(RouteGrid, ShapesMatchTopologyRule) {
  // Node width unusable as a near-square grid -> ceil(sqrt(P)) columns.
  EXPECT_EQ(RouteGrid::make(64, PeMapping{64}).cols, 8u);
  EXPECT_EQ(RouteGrid::make(256, PeMapping{64}).cols, 16u);
  // Node width usable -> a row is one node and the first hop is intra-node.
  EXPECT_EQ(RouteGrid::make(1024, PeMapping{64}).cols, 64u);
  EXPECT_EQ(RouteGrid::make(1024, PeMapping{64}).rows(), 16u);
  EXPECT_EQ(RouteGrid::make(2048, PeMapping{64}).cols, 64u);
  EXPECT_EQ(RouteGrid::make(2048, PeMapping{64}).rows(), 32u);
  // Degenerate worlds collapse to a single column.
  EXPECT_EQ(RouteGrid::make(1, PeMapping{}).cols, 1u);
  EXPECT_EQ(RouteGrid::make(9, PeMapping{}).cols, 3u);
}

TEST(RouteGrid, RelayIsInSrcRowAndDstColumn) {
  for (const auto& grid :
       {RouteGrid::make(9, PeMapping{}), RouteGrid::make(64, PeMapping{64}),
        RouteGrid::make(1024, PeMapping{64})}) {
    const std::size_t step = grid.num_pes > 64 ? 37 : 1;
    for (pe_id src = 0; src < grid.num_pes; src += step) {
      for (pe_id dst = 0; dst < grid.num_pes; dst += step) {
        const pe_id r = grid.relay(src, dst);
        ASSERT_LT(r, grid.num_pes);
        if (r != dst) {
          // A real relay sits at (row of src, column of dst) ...
          EXPECT_EQ(grid.row_of(r), grid.row_of(src));
          EXPECT_EQ(grid.col_of(r), grid.col_of(dst));
          // ... and the second hop is always direct (no relay chains).
          EXPECT_EQ(grid.relay(r, dst), dst);
        }
      }
      EXPECT_EQ(grid.relay(src, src), src);
    }
  }
}

TEST(RouteGrid, RaggedLastRowFallsBackToDirect) {
  // 10 PEs on 4 columns: row 2 holds only PEs 8 and 9.  Routing from PE 8
  // to column 3 would target the nonexistent PE 11 -> direct.
  const RouteGrid grid = RouteGrid::make(10, PeMapping{});
  ASSERT_EQ(grid.cols, 4u);
  EXPECT_EQ(grid.relay(8, 3), 3u);
  EXPECT_EQ(grid.relay(9, 2), 2u);
  // A relay that does exist in the ragged row is still used.
  EXPECT_EQ(grid.relay(8, 1), 9u);
}

// ---- topology validation ---------------------------------------------------

TEST(Topology, PaperClusterValidatesAndBadSpecsThrow) {
  const ClusterSpec paper = paper_cluster();
  EXPECT_EQ(paper.nodes, 48u);
  EXPECT_EQ(paper.racks * paper.nodes_per_rack, paper.nodes);

  ClusterSpec broken;
  broken.racks = 5;  // 5 * 12 != 48
  EXPECT_THROW(broken.validate(), Error);
  ClusterSpec zero_rate;
  zero_rate.nic_bytes_per_ns = 0.0;
  EXPECT_THROW(zero_rate.validate(), Error);
}

TEST(Topology, PeMappingRejectsZeroPesPerNode) {
  EXPECT_THROW(PeMapping{0}, Error);
  EXPECT_EQ(PeMapping{3}.node_of_pe(7), 2u);
}

// ---- tree barrier ----------------------------------------------------------

TEST(ScaleBarrier, IdentityTreeManyRounds) {
  constexpr std::size_t kN = 20;  // multi-level tree (fan-in 8)
  constexpr std::size_t kRounds = 50;
  SenseBarrier barrier(kN);
  std::atomic<std::uint64_t> counter{0};
  std::vector<std::thread> threads;
  threads.reserve(kN);
  for (std::size_t who = 0; who < kN; ++who) {
    threads.emplace_back([&, who] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        counter.fetch_add(1);
        barrier.arrive_and_wait(who);
        EXPECT_EQ(counter.load(), (round + 1) * kN);
        barrier.arrive_and_wait(who);  // hold the next round's increments
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(ScaleBarrier, RejectsBadParticipants) {
  SenseBarrier three(3);
  EXPECT_THROW(three.arrive_and_wait(3), Error);
}

// ---- runtime-level routing tests -------------------------------------------

constexpr std::size_t kSlots = 64;
std::array<std::atomic<std::uint64_t>, kSlots> g_hist{};
std::atomic<std::uint64_t> g_big_hits{0};
std::atomic<std::uint64_t> g_big_sum{0};

void reset_globals() {
  for (auto& h : g_hist) h.store(0);
  g_big_hits.store(0);
  g_big_sum.store(0);
}

struct StormAm {
  std::uint64_t slot = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(slot);
  }
  void exec(AmContext&) { g_hist[slot % kSlots].fetch_add(1); }
};

/// Echoes a function of its payload and the executing PE so the sender can
/// verify both delivery and reply routing.
struct EchoAm {
  std::uint64_t x = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x);
  }
  std::uint64_t exec(AmContext& ctx) { return x * 1000 + ctx.current_pe(); }
};

/// Large-payload AM: above the 2-hop direct cutoff, so it must bypass the
/// relay even when routing is on.
struct BigAm {
  std::vector<std::uint64_t> payload;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(payload);
  }
  void exec(AmContext&) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : payload) sum += v;
    g_big_sum.fetch_add(sum);
    g_big_hits.fetch_add(1);
  }
};

RuntimeConfig small_cfg(RouteMode route) {
  RuntimeConfig cfg;
  cfg.threads_per_pe = 1;
  cfg.agg_threshold_bytes = 1024;  // small buffers -> frequent flushes
  cfg.symmetric_heap_bytes = 64 * 1024;
  cfg.onesided_heap_bytes = 64 * 1024;
  cfg.metrics_mode = MetricsMode::kQuiet;
  cfg.route = route;
  return cfg;
}

struct StormStats {
  std::uint64_t relayed = 0;
  std::uint64_t routed = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_serialized = 0;
  std::int64_t lanes_hw_max = 0;  // max over PEs of the live-lane high-water
};

/// All-to-all storm: every PE sends `ops` small AMs round-robin across every
/// other PE, then the test aggregates routing counters and the per-PE
/// live-lane high-water mark.
StormStats run_storm(std::size_t pes, RouteMode route, std::size_t ops,
                     std::size_t pes_per_node) {
  reset_globals();
  std::vector<obs::MetricsSnapshot> snaps(pes);
  run_world(
      pes,
      [&](World& w) {
        const std::size_t P = w.num_pes();
        const pe_id me = w.my_pe();
        for (std::size_t i = 0; i < ops; ++i) {
          const pe_id dst = (me + 1 + i % (P - 1)) % P;
          (void)w.exec_am_pe(dst, StormAm{me * ops + i});
        }
        w.wait_all();
        w.barrier();
        snaps[me] = w.metrics_snapshot();
      },
      small_cfg(route), paper_perf_params(), PeMapping{pes_per_node});
  StormStats stats;
  for (const auto& snap : snaps) {
    stats.relayed += snap.counter("am.relayed_records");
    stats.routed += snap.counter("am.sent_routed");
    stats.bytes_copied += snap.counter("am.bytes_copied");
    stats.bytes_serialized += snap.counter("am.bytes_serialized");
    for (const auto& [name, vals] : snap.gauges) {
      if (name == "cmdq.live_lanes") {
        stats.lanes_hw_max = std::max(stats.lanes_hw_max, vals.second);
      }
    }
  }
  return stats;
}

std::uint64_t hist_total() {
  std::uint64_t sum = 0;
  for (const auto& h : g_hist) sum += h.load();
  return sum;
}

TEST(TwoHopRoute, EquivalentToDirectAtSmallScale) {
  // 9 PEs -> 3x3 grid: plenty of genuinely relayed pairs.
  constexpr std::size_t kPes = 9;
  constexpr std::size_t kOps = 64;
  const StormStats direct = run_storm(kPes, RouteMode::kDirect, kOps, 1);
  std::array<std::uint64_t, kSlots> direct_hist{};
  for (std::size_t s = 0; s < kSlots; ++s) direct_hist[s] = g_hist[s].load();

  const StormStats routed = run_storm(kPes, RouteMode::k2Hop, kOps, 1);
  for (std::size_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(g_hist[s].load(), direct_hist[s]) << "slot " << s;
  }
  EXPECT_EQ(hist_total(), kPes * kOps);
  EXPECT_EQ(direct.relayed, 0u);
  EXPECT_EQ(direct.routed, 0u);
  EXPECT_GT(routed.relayed, 0u);
  EXPECT_GT(routed.routed, 0u);
  // Final-resting serialization is counted exactly once per record on both
  // paths (the CI invariant); relay forwarding must not double-count.
  EXPECT_EQ(direct.bytes_copied, direct.bytes_serialized);
  EXPECT_EQ(routed.bytes_copied, routed.bytes_serialized);
}

TEST(TwoHopRoute, StormAt256PesKeepsLanesAtTwiceSqrtP) {
  // The scaling claim itself: under an all-to-all storm at 256 PEs the
  // 16x16 grid keeps every PE's live-lane high-water at rows + cols =
  // 2 * sqrt(P) = 32, versus ~255 for direct per-destination lanes.
  constexpr std::size_t kPes = 256;
  constexpr std::size_t kOps = 260;  // > P-1: every PE pair exercised
  const StormStats stats = run_storm(kPes, RouteMode::k2Hop, kOps, 64);
  EXPECT_EQ(hist_total(), kPes * kOps);
  EXPECT_GT(stats.relayed, 0u);
  EXPECT_LE(stats.lanes_hw_max, 32);
  EXPECT_GE(stats.lanes_hw_max, 1);
  EXPECT_EQ(stats.bytes_copied, stats.bytes_serialized);
}

TEST(TwoHopRoute, RepliesSurviveRelaying) {
  constexpr std::size_t kPes = 9;
  RuntimeConfig cfg = small_cfg(RouteMode::k2Hop);
  run_world(
      kPes,
      [&](World& w) {
        const pe_id me = w.my_pe();
        for (pe_id dst = 0; dst < w.num_pes(); ++dst) {
          const std::uint64_t x = me * 10 + dst;
          const std::uint64_t got = w.block_on(w.exec_am_pe(dst, EchoAm{x}));
          EXPECT_EQ(got, x * 1000 + dst);
        }
        w.barrier();
      },
      cfg, paper_perf_params(), PeMapping{});
}

TEST(TwoHopRoute, CutoffSendsEverythingDirect) {
  // An 8-byte flush threshold puts the relay cutoff (threshold / 8) at 1
  // byte, so every record escapes the relay: the 2-hop world must behave
  // exactly like direct and never forward.
  constexpr std::size_t kPes = 9;
  constexpr std::size_t kOps = 32;
  reset_globals();
  RuntimeConfig cfg = small_cfg(RouteMode::k2Hop);
  cfg.agg_threshold_bytes = 8;
  std::vector<obs::MetricsSnapshot> snaps(kPes);
  run_world(
      kPes,
      [&](World& w) {
        const pe_id me = w.my_pe();
        for (std::size_t i = 0; i < kOps; ++i) {
          const pe_id dst = (me + 1 + i % (w.num_pes() - 1)) % w.num_pes();
          (void)w.exec_am_pe(dst, StormAm{me * kOps + i});
        }
        w.wait_all();
        w.barrier();
        snaps[me] = w.metrics_snapshot();
      },
      cfg, paper_perf_params(), PeMapping{});
  EXPECT_EQ(hist_total(), kPes * kOps);
  std::uint64_t relayed = 0;
  std::uint64_t routed = 0;
  for (const auto& snap : snaps) {
    relayed += snap.counter("am.relayed_records");
    routed += snap.counter("am.sent_routed");
  }
  EXPECT_EQ(relayed, 0u);
  EXPECT_EQ(routed, 0u);
}

TEST(TwoHopRoute, LargeRecordsBypassTheRelay) {
  // Fire-and-forget AMs with a 1 KB payload exceed the auto cutoff
  // (agg_threshold / 8 = 128 bytes): with no replies in the mix, the routed
  // and relayed counters must stay at exactly zero even under 2-hop.
  constexpr std::size_t kPes = 9;
  constexpr std::size_t kBig = 4;
  reset_globals();
  std::vector<obs::MetricsSnapshot> snaps(kPes);
  run_world(
      kPes,
      [&](World& w) {
        const pe_id me = w.my_pe();
        std::vector<std::uint64_t> payload(128);
        for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
        for (std::size_t i = 0; i < kBig; ++i) {
          const pe_id dst = (me + 1 + i) % w.num_pes();
          w.engine().send_forget(dst, BigAm{payload});
        }
        const std::uint64_t want = kPes * kBig;
        while (g_big_hits.load() < want) std::this_thread::yield();
        w.barrier();
        snaps[me] = w.metrics_snapshot();
      },
      small_cfg(RouteMode::k2Hop), paper_perf_params(), PeMapping{});
  EXPECT_EQ(g_big_hits.load(), kPes * kBig);
  EXPECT_EQ(g_big_sum.load(), kPes * kBig * (127ull * 128 / 2));
  std::uint64_t relayed = 0;
  std::uint64_t routed = 0;
  for (const auto& snap : snaps) {
    relayed += snap.counter("am.relayed_records");
    routed += snap.counter("am.sent_routed");
  }
  EXPECT_EQ(relayed, 0u);
  EXPECT_EQ(routed, 0u);
}

TEST(LazyLanes, OnlyTouchedDestinationsAllocate) {
  // Each PE talks to exactly one neighbour; with lazy allocation the
  // live-lane high-water is at most 2 (request lane to pe+1, reply lane to
  // pe-1).  Eager priming or flush_all creating lanes would show num_pes-1.
  constexpr std::size_t kPes = 6;
  constexpr std::size_t kOps = 50;
  reset_globals();
  std::vector<obs::MetricsSnapshot> snaps(kPes);
  run_world(
      kPes,
      [&](World& w) {
        const pe_id me = w.my_pe();
        const pe_id dst = (me + 1) % w.num_pes();
        for (std::size_t i = 0; i < kOps; ++i) {
          (void)w.exec_am_pe(dst, StormAm{i});
        }
        w.wait_all();
        w.barrier();
        w.barrier();  // extra flush_all round: must not create lanes
        snaps[me] = w.metrics_snapshot();
      },
      small_cfg(RouteMode::kDirect), paper_perf_params(), PeMapping{});
  EXPECT_EQ(hist_total(), kPes * kOps);
  for (const auto& snap : snaps) {
    for (const auto& [name, vals] : snap.gauges) {
      if (name == "cmdq.live_lanes") {
        EXPECT_GE(vals.second, 1);
        EXPECT_LE(vals.second, 2);
      }
    }
  }
}

}  // namespace

LAMELLAR_REGISTER_AM(StormAm);
LAMELLAR_REGISTER_AM(EchoAm);
LAMELLAR_REGISTER_AM(BigAm);
