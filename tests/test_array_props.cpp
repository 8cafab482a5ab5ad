// Parameterized property sweeps over the LamellarArray matrix:
// {array type} x {distribution} x {PE count} x {length}, checking the
// invariants every configuration must satisfy.
#include <gtest/gtest.h>

#include <numeric>

#include "bale/common.hpp"
#include "lamellar.hpp"

namespace {

using namespace lamellar;

enum class ArrKind { kUnsafe, kAtomic, kLocalLock };

const char* kind_name(ArrKind k) {
  switch (k) {
    case ArrKind::kUnsafe:
      return "Unsafe";
    case ArrKind::kAtomic:
      return "Atomic";
    case ArrKind::kLocalLock:
      return "LocalLock";
  }
  return "?";
}

struct Config {
  ArrKind kind;
  Distribution dist;
  // gtest prints a Config's raw bytes into each test name; a named, zeroed
  // padding field keeps those names from carrying uninitialized memory.
  std::uint8_t pad[3] = {};
  std::size_t npes;
  std::size_t len;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto& c = info.param;
  return std::string(kind_name(c.kind)) +
         (c.dist == Distribution::kBlock ? "_Block_" : "_Cyclic_") +
         std::to_string(c.npes) + "pes_" + std::to_string(c.len);
}

class ArrayMatrix : public ::testing::TestWithParam<Config> {};

// Drive one scenario through a type-erased set of operations so every
// wrapper type exercises the same properties.
template <typename A>
void run_properties(World& world, A arr, const Config& cfg) {
  const std::uint64_t n = cfg.len;

  // P1: fill + sum.
  arr.fill(3);
  EXPECT_EQ(world.block_on(arr.sum()), 3 * n);

  // P2: local lengths partition the global length.
  const std::uint64_t local_total =
      lamellar::bale::global_sum_u64(world, arr.local_len());
  EXPECT_EQ(local_total, n);

  // P3: every PE adds 1 to every element; each element ends at
  // 3 + npes (atomicity / owner-side application).  UnsafeArray promises
  // no atomicity to concurrent updates, so there the PEs take turns.
  std::vector<global_index> all(n);
  std::iota(all.begin(), all.end(), 0);
  if (cfg.kind == ArrKind::kUnsafe) {
    for (std::size_t turn = 0; turn < cfg.npes; ++turn) {
      if (world.my_pe() == turn) world.block_on(arr.batch_add(all, 1));
      world.barrier();
    }
  } else {
    world.block_on(arr.batch_add(all, 1));
  }
  world.barrier();
  EXPECT_EQ(world.block_on(arr.sum()), (3 + cfg.npes) * n);
  EXPECT_EQ(world.block_on(arr.min()), 3 + cfg.npes);
  EXPECT_EQ(world.block_on(arr.max()), 3 + cfg.npes);
  world.barrier();

  // P4: put/get round trip through an arbitrary window (PE 0 only).
  if (world.my_pe() == 0 && n >= 4) {
    const std::size_t start = n / 4;
    const std::size_t len = std::min<std::size_t>(n - start, n / 2 + 1);
    std::vector<std::uint64_t> data(len);
    std::iota(data.begin(), data.end(), 100);
    world.block_on(arr.put(start, data));
    auto back = world.block_on(arr.get(start, len));
    EXPECT_EQ(back, data);
  }
  world.barrier();

  // P5: batch_load returns exactly the stored values, in request order
  // (including duplicates and reversed order).
  if (world.my_pe() == std::min<std::size_t>(1, cfg.npes - 1) && n >= 4) {
    std::vector<global_index> idxs{n - 1, 0, n / 2, 0};
    auto vals = world.block_on(arr.batch_load(idxs));
    auto whole = world.block_on(arr.get(0, n));
    ASSERT_EQ(vals.size(), idxs.size());
    for (std::size_t k = 0; k < idxs.size(); ++k) {
      EXPECT_EQ(vals[k], whole[idxs[k]]);
    }
  }
  world.barrier();

  // P6: fetch ops return the pre-image: fetch_add then load sees +delta.
  if (world.my_pe() == 0) {
    const global_index i = n - 1;
    const auto before = world.block_on(arr.load(i));
    EXPECT_EQ(world.block_on(arr.fetch_add(i, 7)), before);
    EXPECT_EQ(world.block_on(arr.load(i)), before + 7);
  }
  world.barrier();

  // P7: iterators cover the view exactly once.
  std::atomic<std::uint64_t> count{0};
  world.block_on(
      arr.local_iter().for_each([&](std::uint64_t) { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), arr.local_len());
  world.barrier();
}

TEST_P(ArrayMatrix, Invariants) {
  const Config cfg = GetParam();
  run_world(cfg.npes, [&cfg](World& world) {
    switch (cfg.kind) {
      case ArrKind::kUnsafe:
        run_properties(world,
                       UnsafeArray<std::uint64_t>::create(world, cfg.len,
                                                          cfg.dist),
                       cfg);
        break;
      case ArrKind::kAtomic:
        run_properties(world,
                       AtomicArray<std::uint64_t>::create(world, cfg.len,
                                                          cfg.dist),
                       cfg);
        break;
      case ArrKind::kLocalLock:
        run_properties(world,
                       LocalLockArray<std::uint64_t>::create(world, cfg.len,
                                                             cfg.dist),
                       cfg);
        break;
    }
    world.barrier();
  });
}

std::vector<Config> make_matrix() {
  std::vector<Config> out;
  for (auto kind : {ArrKind::kUnsafe, ArrKind::kAtomic, ArrKind::kLocalLock}) {
    for (auto dist : {Distribution::kBlock, Distribution::kCyclic}) {
      for (std::size_t npes : {1, 3, 4}) {
        for (std::size_t len : {1, 7, 64, 1000}) {
          if (len < npes) continue;  // degenerate: fewer elements than PEs
          out.push_back(
              {.kind = kind, .dist = dist, .npes = npes, .len = len});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ArrayMatrix,
                         ::testing::ValuesIn(make_matrix()), config_name);

// ---- sub-batch splitting property: results independent of the limit ----

class BatchLimit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchLimit, ResultsIndependentOfSubBatchSize) {
  const std::size_t limit = GetParam();
  RuntimeConfig cfg;
  cfg.batch_op_limit = limit;
  run_world(
      3,
      [](World& world) {
        auto arr = AtomicArray<std::uint64_t>::create(world, 50,
                                                      Distribution::kCyclic);
        arr.fill(0);
        auto rng = pe_rng(5, world.my_pe());
        std::vector<global_index> idxs(777);
        for (auto& i : idxs) i = rng.uniform(50);
        auto fetched = world.block_on(arr.batch_fetch_add(idxs, 1));
        EXPECT_EQ(fetched.size(), idxs.size());
        world.barrier();
        EXPECT_EQ(world.block_on(arr.sum()), 777u * 3);
        world.barrier();
      },
      cfg);
}

INSTANTIATE_TEST_SUITE_P(Limits, BatchLimit,
                         ::testing::Values(1, 7, 100, 10'000));

// ---- aggregation threshold property: delivery independent of threshold ----

class AggThreshold : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AggThreshold, AmDeliveryIndependentOfThreshold) {
  RuntimeConfig cfg;
  cfg.agg_threshold_bytes = GetParam();
  run_world(
      3,
      [](World& world) {
        auto arr = AtomicArray<std::uint64_t>::create(world, 16,
                                                      Distribution::kBlock);
        arr.fill(0);
        std::vector<global_index> idxs(500, world.my_pe() * 5);
        world.block_on(arr.batch_add(idxs, 1));
        world.barrier();
        EXPECT_EQ(world.block_on(arr.sum()), 1500u);
        world.barrier();
      },
      cfg);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AggThreshold,
                         ::testing::Values(64, 1024, 100 * 1024, 1 << 20));

}  // namespace
