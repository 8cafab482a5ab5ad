// LamellarArray tests: creation, element ops, batch ops, put/get, fill,
// reductions, conversions, sub-arrays — across array types and
// distributions (parameterized property sweeps live in test_array_props).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "lamellar.hpp"

namespace {

using namespace lamellar;

TEST(Array, CreateAndFill) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 100, Distribution::kBlock);
    EXPECT_EQ(arr.len(), 100u);
    arr.fill(7);
    EXPECT_EQ(world.block_on(arr.sum()), 700u);
    world.barrier();
  });
}

TEST(Array, BlockDistributionMath) {
  DistributionMap map(Distribution::kBlock, 10, 4);
  EXPECT_EQ(map.per_rank_capacity(), 3u);
  EXPECT_EQ(map.local_len(0), 3u);
  EXPECT_EQ(map.local_len(3), 1u);
  auto p = map.place(7);
  EXPECT_EQ(p.rank, 2u);
  EXPECT_EQ(p.local_index, 1u);
  EXPECT_EQ(map.global_of(2, 1), 7u);
}

// The reciprocal that replaces the hardware divide is exact: small
// divisors, powers of two and random 64-bit divisors, each at the numerators
// around its multiples and at the ends of the 64-bit range.
TEST(Array, ReciprocalDividesExactly) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> divisors;
  for (std::uint64_t d = 1; d <= 1000; ++d) divisors.push_back(d);
  for (int b = 0; b < 64; ++b) divisors.push_back(std::uint64_t{1} << b);
  for (int k = 0; k < 2000; ++k) {
    divisors.push_back(std::max<std::uint64_t>(1, rng.next() >> (k % 64)));
  }
  divisors.push_back(kMax);
  for (const std::uint64_t d : divisors) {
    const Reciprocal r(d);
    const std::uint64_t top = kMax / d * d;  // the largest multiple of d
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1, top - 1, top,
          kMax - 1, kMax, rng.next(), rng.next() >> (rng.next() % 64)}) {
      ASSERT_EQ(r.quotient(n), n / d) << "n=" << n << " d=" << d;
    }
  }
}

// place() agrees with plain division for Block (divisor: the slab
// capacity) and Cyclic (divisor: the rank count) maps, on lengths either
// side of 2^32 and rank counts up to 2048: index 0, len - 1, every block
// boundary +-1 and a seeded random sample; global_of inverts it.
TEST(Array, PlacementMatchesDivision) {
  const std::uint64_t kLens[] = {1,
                                 10,
                                 1009,
                                 65537,
                                 (std::uint64_t{1} << 32) - 1,
                                 std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 32) + 1,
                                 (std::uint64_t{1} << 41) + 3};
  const std::size_t kRanks[] = {1, 2, 3, 7, 64, 2048};
  Xoshiro256 rng(2024);
  for (const Distribution dist :
       {Distribution::kBlock, Distribution::kCyclic}) {
    const bool block = dist == Distribution::kBlock;
    for (const std::uint64_t len : kLens) {
      for (const std::size_t nranks : kRanks) {
        const DistributionMap map(dist, len, nranks);
        const std::uint64_t per = map.per_rank_capacity();
        std::vector<std::uint64_t> idxs{0, len - 1};
        for (std::uint64_t b = per; b < len; b += per) {
          idxs.insert(idxs.end(), {b - 1, b});
          if (b + 1 < len) idxs.push_back(b + 1);
        }
        for (int k = 0; k < 256; ++k) idxs.push_back(rng.uniform(len));
        const std::uint64_t d = block ? per : nranks;
        for (const std::uint64_t i : idxs) {
          const Placement p = map.place(i);
          ASSERT_EQ(p.rank, block ? i / d : i % d)
              << "len=" << len << " ranks=" << nranks << " i=" << i;
          ASSERT_EQ(p.local_index, block ? i % d : i / d)
              << "len=" << len << " ranks=" << nranks << " i=" << i;
          ASSERT_LT(p.local_index, map.local_len(p.rank));
          ASSERT_EQ(map.global_of(p.rank, p.local_index), i);
        }
        EXPECT_THROW((void)map.place(len), BoundsError);
      }
    }
  }
}

TEST(Array, CyclicDistributionMath) {
  DistributionMap map(Distribution::kCyclic, 10, 4);
  EXPECT_EQ(map.local_len(0), 3u);
  EXPECT_EQ(map.local_len(2), 2u);
  auto p = map.place(7);
  EXPECT_EQ(p.rank, 3u);
  EXPECT_EQ(p.local_index, 1u);
  EXPECT_EQ(map.global_of(3, 1), 7u);
}

TEST(Array, SingleElementOpsRemote) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    arr.fill(10);
    if (world.my_pe() == 0) {
      // Index 7 lives on PE 1.
      world.block_on(arr.add(7, 5));
      EXPECT_EQ(world.block_on(arr.load(7)), 15u);
      EXPECT_EQ(world.block_on(arr.fetch_add(7, 1)), 15u);
      EXPECT_EQ(world.block_on(arr.fetch_sub(7, 6)), 16u);
      EXPECT_EQ(world.block_on(arr.fetch_swap(7, 99)), 10u);
      EXPECT_EQ(world.block_on(arr.load(7)), 99u);
      world.block_on(arr.mul(0, 3));
      EXPECT_EQ(world.block_on(arr.load(0)), 30u);
    }
    world.barrier();
  });
}

TEST(Array, CompareExchange) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 4, Distribution::kBlock);
    arr.fill(0);
    if (world.my_pe() == 0) {
      auto r1 = world.block_on(arr.compare_exchange(3, 0, 42));
      EXPECT_TRUE(r1.success);
      auto r2 = world.block_on(arr.compare_exchange(3, 0, 43));
      EXPECT_FALSE(r2.success);
      EXPECT_EQ(r2.current, 42u);
    }
    world.barrier();
  });
}

TEST(Array, BatchAddManyIdxOneVal) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 64, Distribution::kBlock);
    arr.fill(0);
    // Every PE adds 1 to every index.
    std::vector<global_index> idxs(64);
    std::iota(idxs.begin(), idxs.end(), 0);
    world.block_on(arr.batch_add(idxs, 1));
    world.barrier();
    EXPECT_EQ(world.block_on(arr.sum()), 64u * 4);
    world.barrier();
  });
}

TEST(Array, BatchOneToOneAndFetch) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 10, Distribution::kCyclic);
    arr.fill(100);
    if (world.my_pe() == 0) {
      std::vector<global_index> idxs{1, 3, 5, 7, 9};
      std::vector<std::uint64_t> vals{1, 3, 5, 7, 9};
      auto fetched = world.block_on(arr.batch_fetch_add(idxs, vals));
      ASSERT_EQ(fetched.size(), 5u);
      for (auto v : fetched) EXPECT_EQ(v, 100u);
      auto loaded = world.block_on(arr.batch_load(idxs));
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        EXPECT_EQ(loaded[i], 100 + vals[i]);
      }
    }
    world.barrier();
  });
}

TEST(Array, BatchOneIdxManyVals) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    arr.fill(1);
    if (world.my_pe() == 0) {
      // Paper example: array.batch_mul(20, [2, 10]) multiplies sequentially.
      std::vector<std::uint64_t> vals{2, 10};
      world.block_on(arr.batch_mul(7, vals));
      EXPECT_EQ(world.block_on(arr.load(7)), 20u);
    }
    world.barrier();
  });
}

TEST(Array, BitwiseOps) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 4, Distribution::kBlock);
    arr.fill(0b1100);
    if (world.my_pe() == 0) {
      world.block_on(arr.bit_or(3, 0b0011));
      EXPECT_EQ(world.block_on(arr.load(3)), 0b1111u);
      world.block_on(arr.bit_and(3, 0b1010));
      EXPECT_EQ(world.block_on(arr.load(3)), 0b1010u);
      world.block_on(arr.bit_xor(3, 0b1111));
      EXPECT_EQ(world.block_on(arr.load(3)), 0b0101u);
      world.block_on(arr.shl(3, 2));
      EXPECT_EQ(world.block_on(arr.load(3)), 0b010100u);
      world.block_on(arr.shr(3, 1));
      EXPECT_EQ(world.block_on(arr.load(3)), 0b01010u);
    }
    world.barrier();
  });
}

TEST(Array, PutGetAcrossPes) {
  run_world(4, [](World& world) {
    auto arr =
        LocalLockArray<std::uint32_t>::create(world, 40, Distribution::kBlock);
    arr.fill(0);
    if (world.my_pe() == 0) {
      std::vector<std::uint32_t> data(25);
      std::iota(data.begin(), data.end(), 100);
      // Spans PEs 0,1,2 (10 elements each).
      world.block_on(arr.put(5, data));
      auto back = world.block_on(arr.get(5, 25));
      EXPECT_EQ(back, data);
      // Border reads.
      auto edge = world.block_on(arr.get(9, 2));
      EXPECT_EQ(edge[0], 104u);
      EXPECT_EQ(edge[1], 105u);
    }
    world.barrier();
  });
}

TEST(Array, UnsafeDirectRdma) {
  run_world(2, [](World& world) {
    auto arr =
        UnsafeArray<std::uint64_t>::create(world, 16, Distribution::kBlock);
    arr.fill(0);
    if (world.my_pe() == 0) {
      std::vector<std::uint64_t> data{11, 22, 33, 44};
      arr.unsafe_put_direct(10, data);  // lands on PE 1
      auto back = arr.unsafe_get_direct(10, 4);
      EXPECT_EQ(back, data);
    }
    world.barrier();
  });
}

TEST(Array, ReadOnlyLoadAndDirectGet) {
  run_world(2, [](World& world) {
    auto tmp =
        UnsafeArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    auto local = tmp.unsafe_local_slice();
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = world.my_pe() * 100 + i;
    }
    world.barrier();
    auto ro = std::move(tmp).into_read_only();
    EXPECT_EQ(world.block_on(ro.load(5)), 101u);
    auto direct = ro.get_direct(2, 4);  // spans both PEs
    EXPECT_EQ(direct[0], 2u);
    EXPECT_EQ(direct[1], 3u);
    EXPECT_EQ(direct[2], 100u);
    EXPECT_EQ(direct[3], 101u);
    world.barrier();
  });
}

TEST(Array, ConversionRoundTrip) {
  run_world(2, [](World& world) {
    auto arr =
        UnsafeArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    arr.fill(3);
    auto atomic = std::move(arr).into_atomic();
    EXPECT_EQ(world.block_on(atomic.sum()), 24u);
    auto locked = std::move(atomic).into_local_lock();
    EXPECT_EQ(world.block_on(locked.sum()), 24u);
    auto ro = std::move(locked).into_read_only();
    EXPECT_EQ(world.block_on(ro.sum()), 24u);
    world.barrier();
  });
}

TEST(Array, ConversionFailsWithExtraReference) {
  run_world(2, [](World& world) {
    auto arr =
        UnsafeArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    auto extra = arr.sub_array(0, 4);  // holds a second Darc reference
    EXPECT_THROW(std::move(arr).into_atomic(), ConversionError);
    world.barrier();
  });
}

TEST(Array, SubArrayViews) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 16, Distribution::kBlock);
    arr.fill(1);
    auto view = arr.sub_array(4, 8);
    EXPECT_EQ(view.len(), 8u);
    EXPECT_EQ(world.block_on(view.sum()), 8u);
    world.barrier();  // every PE's sum has scanned before the add lands
    if (world.my_pe() == 0) {
      world.block_on(view.add(0, 10));  // global index 4
      EXPECT_EQ(world.block_on(arr.load(4)), 11u);
    }
    world.barrier();
    // Sub-array of sub-array.
    auto inner = view.sub_array(2, 2);
    EXPECT_EQ(world.block_on(inner.sum()), 2u);
    world.barrier();
  });
}

TEST(Array, Reductions) {
  run_world(4, [](World& world) {
    auto arr =
        UnsafeArray<std::int64_t>::create(world, 12, Distribution::kBlock);
    if (world.my_pe() == 0) {
      std::vector<std::int64_t> vals{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, -7};
      world.block_on(arr.put(0, vals));
    }
    world.barrier();
    EXPECT_EQ(world.block_on(arr.sum()), 37);
    EXPECT_EQ(world.block_on(arr.min()), -7);
    EXPECT_EQ(world.block_on(arr.max()), 9);
    world.barrier();
  });
}

TEST(Array, DoubleElements) {
  run_world(2, [](World& world) {
    auto arr = AtomicArray<double>::create(world, 8, Distribution::kBlock);
    EXPECT_FALSE(arr.is_native());  // doubles use the 1-byte-mutex regime
    arr.fill(0.5);
    if (world.my_pe() == 0) {
      world.block_on(arr.add(7, 0.25));
      EXPECT_DOUBLE_EQ(world.block_on(arr.load(7)), 0.75);
    }
    world.barrier();
    EXPECT_DOUBLE_EQ(world.block_on(arr.sum()), 4.25);
    world.barrier();
  });
}

TEST(Array, ConcurrentAtomicAddsFromAllPes) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 4, Distribution::kBlock);
    arr.fill(0);
    // All PEs hammer index 0 concurrently.
    std::vector<global_index> idxs(100, 0);
    world.block_on(arr.batch_add(idxs, 1));
    world.barrier();
    EXPECT_EQ(world.block_on(arr.load(0)), 400u);
    world.barrier();
  });
}

TEST(Array, LocalLockGuards) {
  run_world(2, [](World& world) {
    auto arr =
        LocalLockArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    {
      auto guard = arr.write_local_data();
      for (auto& v : guard.data()) v = world.my_pe() + 1;
    }
    world.barrier();
    {
      auto guard = arr.read_local_data();
      for (auto v : guard.data()) EXPECT_EQ(v, world.my_pe() + 1);
    }
    EXPECT_EQ(world.block_on(arr.sum()), 4u + 8u);
    world.barrier();
  });
}

TEST(Array, TeamScopedArray) {
  run_world(4, [](World& world) {
    Team team = world.split_block(2);
    auto arr = AtomicArray<std::uint64_t>::create(world, 10,
                                                  Distribution::kBlock, &team);
    EXPECT_EQ(arr.team().size(), 2u);
    arr.fill(world.my_pe() / 2 + 1);  // both members of a team agree
    // Sum within the team: 10 elements x (team index + 1).
    const std::uint64_t expected = 10u * (world.my_pe() / 2 + 1);
    EXPECT_EQ(world.block_on(arr.sum()), expected);
    world.barrier();
  });
}

TEST(Array, EmptyAndSingleElement) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 1, Distribution::kBlock);
    arr.fill(5);
    EXPECT_EQ(world.block_on(arr.sum()), 5u);
    EXPECT_EQ(arr.local_len(), world.my_pe() == 0 ? 1u : 0u);
    world.barrier();
  });
}

TEST(Array, OutOfBoundsThrows) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
    EXPECT_THROW(world.block_on(arr.load(8)), BoundsError);
    EXPECT_THROW(arr.sub_array(4, 5), BoundsError);
    world.barrier();
  });
}

// On a sub-array view, indices near 2^64 (where start + n wraps) throw
// BoundsError from every entry point, the error names the offending index,
// and no element anywhere changes — also when the only bad index of a batch
// follows valid local and remote ones.
TEST(Array, SubArrayBoundsDoNotWrap) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 16, Distribution::kBlock);
    arr.fill(7);
    auto view = arr.sub_array(4, 8);  // global 4..11: PE 0 owns 4..7
    constexpr global_index kMax = ~global_index{0};
    if (world.my_pe() == 0) {
      const std::vector<global_index> wrap{kMax};
      const std::vector<global_index> late_bad{0, 5, 1, 6, 8};
      const std::vector<std::uint64_t> vals{1, 2, 3};
      EXPECT_THROW(world.block_on(view.batch_add(wrap, 1)), BoundsError);
      EXPECT_THROW(world.block_on(view.batch_fetch_add(late_bad, 1)),
                   BoundsError);
      EXPECT_THROW(world.block_on(view.batch_add(kMax, vals)), BoundsError);
      EXPECT_THROW(world.block_on(view.add(kMax, 1)), BoundsError);
      EXPECT_THROW(world.block_on(view.put(kMax - 1, vals)), BoundsError);
      EXPECT_THROW(world.block_on(view.get(kMax, 2)), BoundsError);
      EXPECT_THROW((void)view.sub_array(kMax - 1, 3), BoundsError);
      EXPECT_THROW((void)view.place(kMax), BoundsError);
      try {
        world.block_on(view.batch_add(wrap, 1));
        ADD_FAILURE() << "no BoundsError";
      } catch (const BoundsError& e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(kMax)),
                  std::string::npos)
            << e.what();
      }
    }
    world.barrier();
    for (std::size_t i = 0; i < arr.local_len(); ++i) {
      EXPECT_EQ(arr.load_local(i), 7u) << "PE " << world.my_pe() << " slot "
                                       << i;
    }
    world.barrier();
  });
}

}  // namespace
