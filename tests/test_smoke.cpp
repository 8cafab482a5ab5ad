// End-to-end smoke tests: world bring-up, AMs, Darcs, memory regions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "core/memregion/onesided_region.hpp"
#include "core/memregion/shared_region.hpp"
#include "core/world/world.hpp"

namespace {

using namespace lamellar;
using namespace std::chrono_literals;

std::atomic<int> g_hello_count{0};

struct HelloAm {
  std::string name;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(name);
  }
  void exec(AmContext& ctx) {
    (void)ctx;
    g_hello_count.fetch_add(1);
  }
};

struct AddAm {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(a, b);
  }
  std::uint64_t exec(AmContext&) { return a + b; }
};

struct WhoAmIAm {
  template <class Ar>
  void serialize(Ar&) {}
  std::uint64_t exec(AmContext& ctx) { return ctx.current_pe(); }
};

}  // namespace

LAMELLAR_REGISTER_AM(HelloAm);
LAMELLAR_REGISTER_AM(AddAm);
LAMELLAR_REGISTER_AM(WhoAmIAm);

namespace {

TEST(Smoke, WorldBringup) {
  run_world(4, [](World& world) {
    EXPECT_EQ(world.num_pes(), 4u);
    world.barrier();
  });
}

TEST(Smoke, HelloWorldAllPes) {
  g_hello_count.store(0);
  run_world(4, [](World& world) {
    if (world.my_pe() == 0) {
      auto req = world.exec_am_all(HelloAm{"World"});
      world.block_on(std::move(req));
    }
    world.barrier();
  });
  EXPECT_EQ(g_hello_count.load(), 4);
}

TEST(Smoke, AmWithReturn) {
  run_world(2, [](World& world) {
    auto fut = world.exec_am_pe(1 - world.my_pe(), AddAm{20, 22});
    EXPECT_EQ(world.block_on(std::move(fut)), 42u);
  });
}

TEST(Smoke, ExecAmAllReturnsPerPeResults) {
  run_world(4, [](World& world) {
    auto fut = world.exec_am_all(WhoAmIAm{});
    auto results = world.block_on(std::move(fut));
    ASSERT_EQ(results.size(), 4u);
    for (pe_id pe = 0; pe < 4; ++pe) EXPECT_EQ(results[pe], pe);
  });
}

TEST(Smoke, WaitAllDrainsFireAndForget) {
  g_hello_count.store(0);
  run_world(3, [](World& world) {
    for (int i = 0; i < 10; ++i) {
      world.exec_am_pe((world.my_pe() + 1) % 3, HelloAm{"x"});
    }
    world.wait_all();
    world.barrier();
  });
  EXPECT_EQ(g_hello_count.load(), 30);
}

struct CounterBox {
  std::atomic<std::uint64_t> hits{0};
  CounterBox() = default;
  CounterBox(CounterBox&& o) noexcept : hits(o.hits.load()) {}
};

struct BumpDarcAm {
  Darc<CounterBox> box;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(box);
  }
  void exec(AmContext&) { box->hits.fetch_add(1); }
};

}  // namespace

LAMELLAR_REGISTER_AM(BumpDarcAm);

namespace {

TEST(Smoke, DarcTravelsInAms) {
  run_world(4, [](World& world) {
    auto box = world.new_darc(CounterBox{});
    if (world.my_pe() == 0) {
      for (pe_id pe = 0; pe < 4; ++pe) {
        world.exec_am_pe(pe, BumpDarcAm{box});
      }
      world.wait_all();
    }
    world.barrier();
    // Each PE's own instance got exactly one bump from PE0's broadcast.
    EXPECT_EQ(box->hits.load(), 1u);
    world.barrier();
  });
}

TEST(Smoke, SharedRegionPutGet) {
  run_world(4, [](World& world) {
    // Both heaps start above the runtime's reserved page.
    const std::size_t sym = world.lamellae().alloc_symmetric(64, 8);
    const std::size_t one = world.lamellae().alloc_onesided(64, 8);
    EXPECT_GE(sym, kReservedArenaBytes);
    EXPECT_GE(one, kReservedArenaBytes);
    world.lamellae().free_onesided(one);
    world.lamellae().free_symmetric(sym);

    auto region = SharedMemoryRegion<std::uint64_t>::create(world, 16);
    auto local = region.unsafe_local_slice();
    std::fill(local.begin(), local.end(), world.my_pe());
    world.barrier();

    // Everyone writes its PE id into slot my_pe on PE 0.
    const std::uint64_t v = 1000 + world.my_pe();
    region.unsafe_put(0, world.my_pe(), std::span<const std::uint64_t>(&v, 1));
    world.barrier();

    if (world.my_pe() == 0) {
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(local[i], 1000 + i);
      }
    }
    // Read PE 3's slab remotely.
    std::uint64_t got = 0;
    region.unsafe_get(3, 5, std::span<std::uint64_t>(&got, 1));
    if (world.my_pe() != 3) {
      EXPECT_EQ(got, 3u);
    }
    world.barrier();
  });
}

struct FillOneSidedAm {
  OneSidedMemoryRegion<std::uint32_t> region;
  std::uint32_t value = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(region, value);
  }
  void exec(AmContext&) {
    // Remote PE writes into the origin's memory through the handle.
    std::vector<std::uint32_t> vals(region.len(), value);
    region.unsafe_put(0, vals);
  }
};

}  // namespace

LAMELLAR_REGISTER_AM(FillOneSidedAm);

namespace {

TEST(Smoke, OneSidedRegionThroughAm) {
  run_world(2, [](World& world) {
    if (world.my_pe() == 0) {
      auto region = OneSidedMemoryRegion<std::uint32_t>::create(world, 8);
      auto fut = world.exec_am_pe(1, FillOneSidedAm{region, 7});
      world.block_on(std::move(fut));
      for (auto v : region.unsafe_local_slice()) EXPECT_EQ(v, 7u);
    }
    world.barrier();
  });
}

// Region bounds are counted in elements, so an index near 2^64 cannot wrap
// `index + n` or `index * sizeof(T)` back into a neighbouring allocation,
// and a length whose byte size overflows is refused at creation.
TEST(MemRegion, BoundsDoNotWrap) {
  run_world(1, [](World& world) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    auto a = SharedMemoryRegion<std::uint64_t>::create(world, 4);
    auto b = SharedMemoryRegion<std::uint64_t>::create(world, 4);
    auto o = OneSidedMemoryRegion<std::uint64_t>::create(world, 4);
    std::ranges::fill(a.unsafe_local_slice(), 1);
    std::ranges::fill(b.unsafe_local_slice(), 2);
    std::ranges::fill(o.unsafe_local_slice(), 3);
    const std::uint64_t vals[2] = {0xdead, 0xbeef};
    std::uint64_t got[2] = {0, 0};

    EXPECT_THROW(b.unsafe_put(0, kMax, vals), BoundsError);
    EXPECT_THROW(b.unsafe_get(0, kMax, got), BoundsError);
    EXPECT_THROW(o.unsafe_put(kMax, vals), BoundsError);
    EXPECT_THROW(o.unsafe_get(kMax, got), BoundsError);
    for (auto v : a.unsafe_local_slice()) EXPECT_EQ(v, 1u);
    for (auto v : b.unsafe_local_slice()) EXPECT_EQ(v, 2u);
    for (auto v : o.unsafe_local_slice()) EXPECT_EQ(v, 3u);

    // The last in-bounds position still works.
    b.unsafe_put(0, 2, vals);
    EXPECT_EQ(b.unsafe_local_slice()[3], 0xbeefu);
    o.unsafe_get(2, got);
    EXPECT_EQ(got[1], 3u);

    const std::size_t huge = (std::size_t{1} << 61) + 1;
    EXPECT_THROW(SharedMemoryRegion<std::uint64_t>::create(world, huge),
                 BoundsError);
    EXPECT_THROW(OneSidedMemoryRegion<std::uint64_t>::create(world, huge),
                 BoundsError);
  });
}

// World::quiesce_round counts a started pool task as outstanding work.  PE
// 1's only worker holds one through the first round, so every PE's first
// round must read "not quiet"; after the release, every PE must read
// "quiet" after the same number of rounds.  The hold and the round count
// are bounded, so a lost count fails the test instead of hanging it.
std::atomic<bool> g_hold_started{false};
std::atomic<bool> g_hold_released{false};
std::atomic<bool> g_hold_timed_out{false};

bool wait_for_flag(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

void hold_until_released() {
  g_hold_started.store(true);
  g_hold_timed_out.store(!wait_for_flag(g_hold_released));
}

TEST(Smoke, QuiesceWaitsForHeldPoolTask) {
  constexpr std::size_t kPes = 3;
  constexpr std::size_t kMaxRounds = 10'000;
  g_hold_started.store(false);
  g_hold_released.store(false);
  bool started = false;
  std::array<bool, kPes> first_quiet{};
  std::array<std::size_t, kPes> rounds{};
  RuntimeConfig cfg;
  cfg.threads_per_pe = 1;
  run_world(
      kPes,
      [&](World& w) {
        const pe_id me = w.my_pe();
        if (me == 1) {
          w.pool().spawn(hold_until_released);
          started = wait_for_flag(g_hold_started);
        }
        w.barrier();
        first_quiet[me] = w.quiesce_round();
        if (me == 1) g_hold_released.store(true);
        // Every PE reads the same word, so the cap keeps them in lockstep.
        std::size_t n = 1;
        while (!w.quiesce_round() && n < kMaxRounds) ++n;
        rounds[me] = n;
      },
      cfg);
  ASSERT_TRUE(started);
  EXPECT_FALSE(g_hold_timed_out.load());
  for (pe_id pe = 0; pe < kPes; ++pe) {
    EXPECT_FALSE(first_quiet[pe]) << "PE " << pe;
    EXPECT_LT(rounds[pe], kMaxRounds) << "PE " << pe;
    EXPECT_EQ(rounds[pe], rounds[0]) << "PE " << pe;
  }
}

// A destination outside the world is refused before the engine counts the
// send, so the PE's wait_all() still returns and the world finalizes.
TEST(Smoke, BadDestinationPeThrows) {
  run_world(2, [](World& world) {
    EXPECT_THROW((void)world.exec_am_pe(7, AddAm{1, 2}), BoundsError);
    EXPECT_THROW(world.engine().send_forget(world.num_pes(), HelloAm{"x"}),
                 BoundsError);
    world.wait_all();
    EXPECT_EQ(world.block_on(world.exec_am_pe(1 - world.my_pe(),
                                              AddAm{20, 22})),
              42u);
  });
}

TEST(Smoke, VirtualTimeAdvances) {
  run_world(2, [](World& world) {
    const auto before = world.time_ns();
    world.barrier();
    std::vector<std::uint64_t> payload(1024, 1);
    auto region = SharedMemoryRegion<std::uint64_t>::create(world, 1024);
    region.unsafe_put(1 - world.my_pe(), 0, payload);
    EXPECT_GT(world.time_ns(), before);
    world.barrier();
  });
}

TEST(Smoke, TeamsSplitAndBarrier) {
  run_world(4, [](World& world) {
    Team team = world.split_block(2);
    ASSERT_TRUE(team.valid());
    EXPECT_EQ(team.size(), 2u);
    EXPECT_EQ(team.my_rank(), world.my_pe() % 2);
    team.barrier();
    world.barrier();
  });
}

}  // namespace
