// Batched array-op pipeline tests (DESIGN.md §9): scratch-arena planning
// stays allocation-free in steady state, fetch results land in caller order
// even when chunks complete concurrently, cyclic spans coalesce into
// strided runs, and the binomial reduction tree matches a serial fold on
// non-power-of-two teams.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "common/scratch_arena.hpp"
#include "lamellar.hpp"

namespace {

using namespace lamellar;

// ---------------------------------------------------------------------------
// ScratchArena mechanics
// ---------------------------------------------------------------------------

TEST(ScratchArena, RewindReusesStorageWithoutGrowing) {
  ScratchArena arena;
  const auto mark = arena.mark();
  (void)arena.alloc_span<std::uint64_t>(512);
  arena.rewind(mark);
  const std::uint64_t grown = arena.grow_events();
  const std::size_t cap = arena.capacity_bytes();
  for (int iter = 0; iter < 100; ++iter) {
    const auto m = arena.mark();
    auto a = arena.alloc_span<std::uint64_t>(512);
    auto b = arena.alloc_span<std::uint32_t>(64);
    a[0] = 1;
    b[0] = 2;
    arena.rewind(m);
  }
  EXPECT_EQ(arena.grow_events(), grown);
  EXPECT_EQ(arena.capacity_bytes(), cap);
}

TEST(ScratchArena, NestedFramesRewindInOrder) {
  ScratchArena arena;
  {
    ArenaFrame outer(arena);
    auto a = arena.alloc_span<int>(8);
    a[7] = 42;
    {
      ArenaFrame inner(arena);
      auto b = arena.alloc_span<int>(1024);
      b[0] = 7;
    }
    // Inner frame rewound; outer allocation still intact.
    EXPECT_EQ(a[7], 42);
  }
}

TEST(ScratchArena, ZeroLengthAllocIsEmpty) {
  ScratchArena arena;
  auto s = arena.alloc_span<double>(0);
  EXPECT_TRUE(s.empty());
}

// ---------------------------------------------------------------------------
// Steady-state allocation budget (array.plan_allocs)
// ---------------------------------------------------------------------------

TEST(ArrayBatch, PlanAllocsFlatInSteadyStateLoop) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 4096, Distribution::kBlock);
    arr.fill(0);

    std::vector<global_index> idxs(2048);
    std::mt19937_64 rng(7 + world.my_pe());
    for (auto& i : idxs) i = rng() % arr.len();

    // Warm-up: let the thread-local arena grow to the loop's working set.
    for (int w = 0; w < 3; ++w) world.block_on(arr.batch_add(idxs, 1));
    world.barrier();

    const std::uint64_t before =
        world.metrics().counter("array.plan_allocs").get();
    for (int iter = 0; iter < 50; ++iter) {
      world.block_on(arr.batch_add(idxs, 1));
    }
    const std::uint64_t after =
        world.metrics().counter("array.plan_allocs").get();
    // Non-fetch steady state performs zero planner allocations.
    EXPECT_EQ(after, before);

    const std::uint64_t batched =
        world.metrics().counter("array.ops_batched").get();
    EXPECT_GE(batched, 53u * idxs.size());
    world.barrier();
  });
}

TEST(ArrayBatch, PlanAllocsBoundedForFetchLoop) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 4096, Distribution::kCyclic);
    arr.fill(1);

    std::vector<global_index> idxs(1024);
    std::mt19937_64 rng(11 + world.my_pe());
    for (auto& i : idxs) i = rng() % arr.len();

    for (int w = 0; w < 3; ++w) world.block_on(arr.batch_fetch_add(idxs, 1));
    world.barrier();

    const std::uint64_t before =
        world.metrics().counter("array.plan_allocs").get();
    for (int iter = 0; iter < 50; ++iter) {
      world.block_on(arr.batch_fetch_add(idxs, 1));
    }
    const std::uint64_t after =
        world.metrics().counter("array.plan_allocs").get();
    // Fetch loops may stage reply fallbacks in the arena, but growth must
    // stop after warm-up: allow a tiny residual, not per-iteration growth.
    EXPECT_LE(after - before, 2u);
    world.barrier();
  });
}

// ---------------------------------------------------------------------------
// Caller-order fetch scatter under concurrent multi-chunk completion
// ---------------------------------------------------------------------------

TEST(ArrayBatch, FetchResultsInCallerOrderAcrossChunks) {
  RuntimeConfig cfg;
  cfg.batch_op_limit = 16;  // force many chunks per destination
  run_world(
      4,
      [](World& world) {
        auto arr = AtomicArray<std::uint64_t>::create(world, 1024,
                                                      Distribution::kBlock);
        arr.fill(0);
        // Each PE touches only its own residue class i % npes == my_pe.
        // Under block distribution those slots spread across every rank,
        // so all PEs drive concurrent multi-chunk rounds into every owner
        // while each PE's per-slot accounting stays exact.
        const std::size_t npes = world.num_pes();
        const std::uint64_t stamp = world.my_pe() + 1;
        std::vector<global_index> mine;
        for (global_index i = world.my_pe(); i < arr.len(); i += npes) {
          mine.push_back(i);
        }
        std::mt19937_64 rng(23 * (world.my_pe() + 1));
        world.barrier();

        std::vector<std::uint64_t> shadow(arr.len(), 0);
        std::uint64_t my_adds = 0;
        for (int round = 0; round < 8; ++round) {
          // Distinct indices per round (a shuffled random half of our
          // slots) so each fetched value is fully determined by *prior*
          // rounds: any mis-scattered result would surface as a mismatch
          // because shadows diverge across slots round by round.
          std::shuffle(mine.begin(), mine.end(), rng);
          std::span<const global_index> idxs(mine.data(), mine.size() / 2);
          auto got = world.block_on(arr.batch_fetch_add(idxs, stamp));
          ASSERT_EQ(got.size(), idxs.size());
          for (std::size_t j = 0; j < idxs.size(); ++j) {
            EXPECT_EQ(got[j], shadow[idxs[j]]) << "caller position " << j;
          }
          for (const auto slot : idxs) shadow[slot] += stamp;
          my_adds += idxs.size();
        }
        world.barrier();

        // Global total must balance exactly across all PEs' streams.
        std::uint64_t expect_total = 0;
        for (pe_id p = 0; p < world.num_pes(); ++p) {
          expect_total += my_adds * (p + 1);  // every PE ran my_adds ops
        }
        EXPECT_EQ(world.block_on(arr.sum()), expect_total);
        world.barrier();
      },
      cfg);
}

TEST(ArrayBatch, FetchSwapOneToOneCallerOrder) {
  RuntimeConfig cfg;
  cfg.batch_op_limit = 32;
  run_world(
      3,
      [](World& world) {
        auto arr = AtomicArray<std::uint64_t>::create(world, 300,
                                                      Distribution::kBlock);
        arr.fill(0);
        if (world.my_pe() == 0) {
          // Distinct indices, shuffled: one-to-one operand gather must pair
          // vals[j] with idxs[j] even though chunks regroup by owner.
          std::vector<global_index> idxs(arr.len());
          std::iota(idxs.begin(), idxs.end(), 0);
          std::mt19937_64 rng(99);
          std::shuffle(idxs.begin(), idxs.end(), rng);
          std::vector<std::uint64_t> vals(idxs.size());
          for (std::size_t j = 0; j < vals.size(); ++j) {
            vals[j] = 1000 + idxs[j];
          }
          auto prev = world.block_on(arr.batch_fetch_swap(idxs, vals));
          ASSERT_EQ(prev.size(), idxs.size());
          for (auto v : prev) EXPECT_EQ(v, 0u);
          // Second sweep reads back what the first stored, in caller order.
          auto prev2 = world.block_on(arr.batch_fetch_swap(idxs, vals));
          for (std::size_t j = 0; j < prev2.size(); ++j) {
            EXPECT_EQ(prev2[j], 1000 + idxs[j]);
          }
        }
        world.barrier();
      },
      cfg);
}

// ---------------------------------------------------------------------------
// Cyclic strided-run coalescing
// ---------------------------------------------------------------------------

TEST(ArrayBatch, CyclicRangesCoalesceToStridedRuns) {
  run_world(4, [](World& world) {
    auto arr =
        UnsafeArray<std::uint64_t>::create(world, 1000, Distribution::kCyclic);
    const auto& st = *arr.state_darc();
    // A long span coalesces into exactly min(num_ranks, len) runs, not
    // one range per element.
    auto runs = array_detail::plan_ranges<std::uint64_t>(st, 3, 617);
    EXPECT_EQ(runs.size(), 4u);
    std::size_t covered = 0;
    for (const auto& r : runs) {
      EXPECT_EQ(r.caller_stride, 4u);
      covered += r.len;
    }
    EXPECT_EQ(covered, 617u);

    auto tiny = array_detail::plan_ranges<std::uint64_t>(st, 5, 2);
    EXPECT_EQ(tiny.size(), 2u);
    EXPECT_TRUE(
        array_detail::plan_ranges<std::uint64_t>(st, 0, 0).empty());
    world.barrier();
  });
}

TEST(ArrayBatch, CyclicPutGetRoundTripsAtOffsets) {
  run_world(4, [](World& world) {
    auto arr =
        UnsafeArray<std::uint64_t>::create(world, 997, Distribution::kCyclic);
    arr.fill(0);
    if (world.my_pe() == 1) {
      const global_index start = 13;
      std::vector<std::uint64_t> data(700);
      std::iota(data.begin(), data.end(), 100000);
      world.block_on(arr.put(start, data));
      auto back = world.block_on(arr.get(start, data.size()));
      ASSERT_EQ(back.size(), data.size());
      EXPECT_EQ(back, data);
      // Elements outside the span stayed zero.
      EXPECT_EQ(world.block_on(arr.load(start - 1)), 0u);
      EXPECT_EQ(world.block_on(arr.load(start + data.size())), 0u);
    }
    world.barrier();
  });
}

// ---------------------------------------------------------------------------
// Binomial-tree reduction vs serial reference
// ---------------------------------------------------------------------------

template <typename Arr>
void check_all_reductions(World& world, Arr& arr,
                          const std::vector<std::uint64_t>& ref) {
  const std::uint64_t want_sum =
      std::accumulate(ref.begin(), ref.end(), std::uint64_t{0});
  std::uint64_t want_prod = 1;
  for (auto v : ref) want_prod *= v;
  const std::uint64_t want_min = *std::min_element(ref.begin(), ref.end());
  const std::uint64_t want_max = *std::max_element(ref.begin(), ref.end());
  EXPECT_EQ(world.block_on(arr.sum()), want_sum);
  EXPECT_EQ(world.block_on(arr.prod()), want_prod);
  EXPECT_EQ(world.block_on(arr.min()), want_min);
  EXPECT_EQ(world.block_on(arr.max()), want_max);
}

void reduce_tree_matches_serial(std::size_t npes) {
  run_world(npes, [](World& world) {
    // 41 elements on a non-power-of-two team: the rounded-up binomial tree
    // has holes that must be skipped, and the last rank is short.
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 41, Distribution::kBlock);
    std::vector<std::uint64_t> ref(arr.len());
    // Small factors keep prod inside u64: values in {1, 2, 3}.
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = 1 + (i * 7) % 3;
    if (world.my_pe() == 0) {
      std::vector<global_index> idxs(ref.size());
      std::iota(idxs.begin(), idxs.end(), 0);
      world.block_on(arr.batch_store(idxs, ref));
    }
    world.barrier();
    // Every PE roots its own tree at its own rank.
    check_all_reductions(world, arr, ref);
    world.barrier();
  });
}

TEST(ArrayReduce, BinomialTreeMatchesSerialThreePes) {
  reduce_tree_matches_serial(3);
}

TEST(ArrayReduce, BinomialTreeMatchesSerialFivePes) {
  reduce_tree_matches_serial(5);
}

TEST(ArrayReduce, SinglePeAndLocalLockModes) {
  run_world(1, [](World& world) {
    auto arr =
        LocalLockArray<std::uint64_t>::create(world, 7, Distribution::kBlock);
    std::vector<std::uint64_t> ref = {3, 1, 2, 3, 2, 1, 2};
    std::vector<global_index> idxs(ref.size());
    std::iota(idxs.begin(), idxs.end(), 0);
    world.block_on(arr.batch_store(idxs, ref));
    check_all_reductions(world, arr, ref);
  });
}

// ---------------------------------------------------------------------------
// Edge cases: empty, one-element, all-local
// ---------------------------------------------------------------------------

TEST(ArrayBatch, EmptyBatchResolvesEmpty) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 16, Distribution::kBlock);
    arr.fill(5);
    std::span<const global_index> none;
    EXPECT_TRUE(world.block_on(arr.batch_add(none, 1)).empty());
    EXPECT_TRUE(world.block_on(arr.batch_fetch_add(none, 1)).empty());
    EXPECT_TRUE(world.block_on(arr.batch_load(none)).empty());
    std::span<const std::uint64_t> no_vals;
    EXPECT_TRUE(
        world.block_on(arr.batch_add(global_index{3}, no_vals)).empty());
    EXPECT_TRUE(
        world.block_on(arr.batch_compare_exchange(none, 5, 9)).empty());
    EXPECT_EQ(world.block_on(arr.sum()), 80u);
    world.barrier();
  });
}

TEST(ArrayBatch, OneElementBatch) {
  run_world(2, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 16, Distribution::kBlock);
    arr.fill(10);
    if (world.my_pe() == 0) {
      // One remote index (owned by PE 1) and one local.
      const global_index remote[1] = {15};
      const global_index local[1] = {0};
      auto r = world.block_on(arr.batch_fetch_add(remote, 7));
      ASSERT_EQ(r.size(), 1u);
      EXPECT_EQ(r[0], 10u);
      auto l = world.block_on(arr.batch_fetch_add(local, 1));
      ASSERT_EQ(l.size(), 1u);
      EXPECT_EQ(l[0], 10u);
      EXPECT_EQ(world.block_on(arr.load(15)), 17u);
      EXPECT_EQ(world.block_on(arr.load(0)), 11u);
    }
    world.barrier();
  });
}

TEST(ArrayBatch, AllLocalBatchSingleChunkFastPath) {
  run_world(4, [](World& world) {
    auto arr =
        AtomicArray<std::uint64_t>::create(world, 400, Distribution::kBlock);
    arr.fill(0);
    world.barrier();
    // Indices entirely inside this PE's block: one local chunk, identity
    // scatter, no wire traffic for the payload.
    const auto& st = *arr.state_darc();
    const std::size_t lo = 100 * world.my_pe();
    std::vector<global_index> idxs;
    for (std::size_t k = 0; k < 100; ++k) idxs.push_back(lo + k);
    std::vector<std::uint64_t> vals(idxs.size());
    for (std::size_t k = 0; k < vals.size(); ++k) vals[k] = k + 1;
    auto prev = world.block_on(arr.batch_fetch_add(idxs, vals));
    ASSERT_EQ(prev.size(), idxs.size());
    for (auto v : prev) EXPECT_EQ(v, 0u);
    auto now = world.block_on(arr.batch_load(idxs));
    for (std::size_t k = 0; k < now.size(); ++k) EXPECT_EQ(now[k], k + 1);
    EXPECT_EQ(st.my_rank(), world.my_pe());
    world.barrier();
  });
}

TEST(ArrayBatch, CompareExchangeBatchAcrossChunks) {
  RuntimeConfig cfg;
  cfg.batch_op_limit = 16;
  run_world(
      3,
      [](World& world) {
        auto arr = AtomicArray<std::uint64_t>::create(world, 90,
                                                      Distribution::kCyclic);
        arr.fill(1);
        if (world.my_pe() == 2) {
          std::vector<global_index> idxs(arr.len());
          std::iota(idxs.begin(), idxs.end(), 0);
          std::mt19937_64 rng(5);
          std::shuffle(idxs.begin(), idxs.end(), rng);
          std::vector<std::uint64_t> desired(idxs.size());
          for (std::size_t j = 0; j < desired.size(); ++j) {
            desired[j] = 100 + idxs[j];
          }
          auto res = world.block_on(arr.batch_compare_exchange(
              idxs, std::uint64_t{1}, desired));
          ASSERT_EQ(res.size(), idxs.size());
          for (const auto& r : res) EXPECT_TRUE(r.success);
          // Retry must fail everywhere, reporting the value stored above
          // for the matching caller position.
          auto res2 = world.block_on(arr.batch_compare_exchange(
              idxs, std::uint64_t{1}, desired));
          for (std::size_t j = 0; j < res2.size(); ++j) {
            EXPECT_FALSE(res2[j].success);
            EXPECT_EQ(res2[j].current, 100 + idxs[j]);
          }
        }
        world.barrier();
      },
      cfg);
}

// ---------------------------------------------------------------------------
// LocalLockArray: concurrent appliers on one PE all hold the PE-wide lock
// ---------------------------------------------------------------------------

TEST(ArrayBatch, LocalLockConcurrentBatchesConserve) {
  RuntimeConfig cfg;
  cfg.threads_per_pe = 4;
  run_world(
      4,
      [](World& world) {
        auto arr = LocalLockArray<std::uint64_t>::create(
            world, 4096, Distribution::kCyclic);
        arr.fill(0);
        std::vector<global_index> all(arr.len());
        std::iota(all.begin(), all.end(), 0);
        constexpr std::uint64_t kRounds = 50;
        // An un-awaited whole-array batch per round keeps several workers
        // per owner applying batches at once, while the awaited single add
        // lands next to them.
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          auto pending = arr.batch_add(all, 1);
          world.block_on(arr.add(r, 1));
        }
        world.wait_all();
        world.barrier();
        EXPECT_EQ(world.block_on(arr.sum()),
                  world.num_pes() * kRounds * (arr.len() + 1));
        world.barrier();
      },
      cfg);
}

// ---------------------------------------------------------------------------
// Compare-exchange on every safety regime, remote owner
// ---------------------------------------------------------------------------

// Indices 4..7 of an 8-element block array live on PE 1; PE 0 drives.
template <typename Arr, typename V>
void check_remote_compare_exchange(World& world, Arr arr, V base) {
  arr.fill(base);
  if (world.my_pe() == 0) {
    auto hit = world.block_on(arr.compare_exchange(6, base, base + 1));
    EXPECT_TRUE(hit.success);
    EXPECT_EQ(hit.current, base);
    auto miss = world.block_on(arr.compare_exchange(6, base, base + 2));
    EXPECT_FALSE(miss.success);
    EXPECT_EQ(miss.current, base + 1);

    // Shared desired: slot 6 no longer holds `base`, the rest swap.
    const std::vector<global_index> idxs{7, 6, 4, 5};
    auto shared =
        world.block_on(arr.batch_compare_exchange(idxs, base, base + 5));
    ASSERT_EQ(shared.size(), idxs.size());
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      const bool was_six = idxs[j] == 6;
      EXPECT_EQ(shared[j].success != 0, !was_six) << j;
      EXPECT_EQ(shared[j].current, was_six ? base + 1 : base) << j;
    }

    // Per-element desired, paired with caller positions.
    const std::vector<V> desired{base + 10, base + 20, base + 30, base + 40};
    auto each = world.block_on(arr.batch_compare_exchange(
        idxs, base + 5, std::span<const V>(desired)));
    ASSERT_EQ(each.size(), idxs.size());
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      const bool was_six = idxs[j] == 6;
      EXPECT_EQ(each[j].success != 0, !was_six) << j;
      EXPECT_EQ(each[j].current, was_six ? base + 1 : base + 5) << j;
    }
    auto now = world.block_on(arr.batch_load(idxs));
    EXPECT_EQ(now, (std::vector<V>{base + 10, base + 1, base + 30,
                                   base + 40}));
  }
  world.barrier();
}

TEST(ArrayBatch, CompareExchangeRemoteUnsafe) {
  run_world(2, [](World& world) {
    check_remote_compare_exchange(
        world,
        UnsafeArray<std::uint64_t>::create(world, 8, Distribution::kBlock),
        std::uint64_t{3});
  });
}

TEST(ArrayBatch, CompareExchangeRemoteLocalLock) {
  run_world(2, [](World& world) {
    check_remote_compare_exchange(
        world,
        LocalLockArray<std::uint64_t>::create(world, 8, Distribution::kBlock),
        std::uint64_t{3});
  });
}

TEST(ArrayBatch, CompareExchangeRemoteGenericAtomic) {
  run_world(2, [](World& world) {
    auto arr = AtomicArray<double>::create(world, 8, Distribution::kBlock);
    EXPECT_FALSE(arr.is_native());
    check_remote_compare_exchange(world, std::move(arr), 0.5);
  });
}

// ---------------------------------------------------------------------------
// One index - many values: one pre-value per operand, folded in order
// ---------------------------------------------------------------------------

TEST(ArrayBatch, OneIdxManyValsFetchPreValuesInOrder) {
  RuntimeConfig cfg;
  cfg.batch_op_limit = 4;  // the repeated index splits into three chunks
  run_world(
      2,
      [](World& world) {
        auto arr =
            AtomicArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
        arr.fill(100);
        if (world.my_pe() == 0) {
          // Powers of two: every partial sum, hence every pre-value, is
          // distinct.
          const std::vector<std::uint64_t> vals{1,  2,  4,   8,   16,
                                                32, 64, 128, 256, 512};
          auto pre = world.block_on(
              arr.batch_fetch_add(global_index{7}, std::span(vals)));
          ASSERT_EQ(pre.size(), vals.size());
          // Within a chunk the operands fold in caller order.
          for (std::size_t j = 0; j + 1 < vals.size(); ++j) {
            if ((j + 1) % 4 != 0) {
              EXPECT_EQ(pre[j + 1], pre[j] + vals[j]) << j;
            }
          }
          // Across chunks, whatever order they applied in, the pre-values
          // chain from the initial value through every operand once.
          std::vector<std::size_t> order(vals.size());
          std::iota(order.begin(), order.end(), 0);
          std::sort(order.begin(), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return pre[a] < pre[b];
                    });
          std::uint64_t expect = 100;
          for (const std::size_t j : order) {
            EXPECT_EQ(pre[j], expect) << j;
            expect += vals[j];
          }
          EXPECT_EQ(world.block_on(arr.load(7)), expect);
        }
        world.barrier();
      },
      cfg);
}

// ---------------------------------------------------------------------------
// Single-stage native kernels: every op, operand form and fetch form against
// a serial reference, on chunks applied by both PEs
// ---------------------------------------------------------------------------

using U64 = std::uint64_t;
using Idxs = std::span<const global_index>;
using Vals = std::span<const U64>;

/// What one op does to one element, written independently of the runtime.
U64 serial_op(OpCode op, U64 cur, U64 v) {
  switch (op) {
    case OpCode::kAdd:
      return cur + v;
    case OpCode::kSub:
      return cur - v;
    case OpCode::kMul:
      return cur * v;
    case OpCode::kDiv:
      return cur / v;
    case OpCode::kRem:
      return cur % v;
    case OpCode::kAnd:
      return cur & v;
    case OpCode::kOr:
      return cur | v;
    case OpCode::kXor:
      return cur ^ v;
    case OpCode::kShl:
      return cur << v;
    case OpCode::kShr:
      return cur >> v;
    case OpCode::kStore:
    case OpCode::kSwap:
      return v;
    default:
      ADD_FAILURE() << "no serial reference";
      return cur;
  }
}

struct KernelCase {
  const char* name;
  OpCode op;
  bool commutes;  ///< repeats of an index give one result in any order
  Future<std::vector<U64>> (*shared)(AtomicArray<U64>&, Idxs, U64);
  Future<std::vector<U64>> (*per_elem)(AtomicArray<U64>&, Idxs, Vals);
  Future<std::vector<U64>> (*fetch_shared)(AtomicArray<U64>&, Idxs, U64);
  Future<std::vector<U64>> (*fetch_per_elem)(AtomicArray<U64>&, Idxs, Vals);
  void (*lazy_shared)(LazyChain<U64>&, Idxs, U64);  ///< null: no lazy form
};

#define KERNEL_CASE(NAME, CODE, COMMUTES, LAZY)                             \
  KernelCase {                                                              \
    #NAME, OpCode::CODE, COMMUTES,                                          \
        [](AtomicArray<U64>& a, Idxs i, U64 v) {                            \
          return a.batch_##NAME(i, v);                                      \
        },                                                                  \
        [](AtomicArray<U64>& a, Idxs i, Vals v) {                           \
          return a.batch_##NAME(i, v);                                      \
        },                                                                  \
        [](AtomicArray<U64>& a, Idxs i, U64 v) {                            \
          return a.batch_fetch_##NAME(i, v);                                \
        },                                                                  \
        [](AtomicArray<U64>& a, Idxs i, Vals v) {                           \
          return a.batch_fetch_##NAME(i, v);                                \
        },                                                                  \
        LAZY                                                                \
  }
#define LAZY_FORM(NAME) \
  [](LazyChain<U64>& c, Idxs i, U64 v) { c.NAME(i, v); }

const KernelCase kKernelCases[] = {
    KERNEL_CASE(add, kAdd, true, LAZY_FORM(add)),
    KERNEL_CASE(sub, kSub, true, LAZY_FORM(sub)),
    KERNEL_CASE(mul, kMul, true, LAZY_FORM(mul)),
    KERNEL_CASE(div, kDiv, true, LAZY_FORM(div)),
    KERNEL_CASE(rem, kRem, false, LAZY_FORM(rem)),
    KERNEL_CASE(bit_and, kAnd, true, LAZY_FORM(bit_and)),
    KERNEL_CASE(bit_or, kOr, true, LAZY_FORM(bit_or)),
    KERNEL_CASE(bit_xor, kXor, true, LAZY_FORM(bit_xor)),
    KERNEL_CASE(shl, kShl, true, LAZY_FORM(shl)),
    KERNEL_CASE(shr, kShr, true, LAZY_FORM(shr)),
    KERNEL_CASE(store, kStore, false, LAZY_FORM(store)),
    KERNEL_CASE(swap, kSwap, false, nullptr),
};

#undef LAZY_FORM
#undef KERNEL_CASE

TEST(ArrayBatch, NativeKernelsMatchSerialReference) {
  run_world(2, [](World& world) {
    constexpr std::size_t kLen = 16;  // block: PE 0 owns 0..7, PE 1 8..15
    auto arr = AtomicArray<U64>::create(world, kLen, Distribution::kBlock);
    ASSERT_TRUE(arr.is_native());
    if (world.my_pe() == 0) {
      // Fetch forms and order-dependent ops use distinct indices; the
      // non-fetch forms of the other ops repeat indices on both PEs.
      // Operands are small and non-zero, so div/rem stay defined and three
      // repeated shifts stay below 64.
      const std::vector<global_index> distinct{13, 2, 9, 5, 0, 15, 7, 10};
      const std::vector<global_index> repeated{3, 12, 3, 12, 8, 3, 1, 12};
      const std::vector<U64> vals{3, 1, 2, 3, 2, 1, 3, 2};
      const U64 shared = 2;
      std::vector<U64> init(kLen);
      for (std::size_t i = 0; i < kLen; ++i) init[i] = 0x9e3779b9u + 977 * i;

      // mode: 0 no fetch, 1 pre-op fetch, 2 post-op fetch (lazy gather).
      for (const KernelCase& k : kKernelCases) {
        for (const bool per_elem : {false, true}) {
          for (const int mode : {0, 1, 2}) {
            if (mode == 2 && (per_elem || k.lazy_shared == nullptr)) continue;
            SCOPED_TRACE(std::string(k.name) +
                         (per_elem ? " per-element" : " shared") +
                         " fetch mode " + std::to_string(mode));
            const auto& idxs = mode == 0 && k.commutes ? repeated : distinct;
            world.block_on(arr.put(0, init));
            std::vector<U64> want = init;
            std::vector<U64> want_fetch;
            for (std::size_t j = 0; j < idxs.size(); ++j) {
              U64& slot = want[idxs[j]];
              const U64 next =
                  serial_op(k.op, slot, per_elem ? vals[j] : shared);
              want_fetch.push_back(mode == 2 ? next : slot);
              slot = next;
            }
            std::vector<U64> got;
            if (mode == 2) {
              auto chain = arr.lazy();
              k.lazy_shared(chain, idxs, shared);
              got = world.block_on(chain.gather(idxs));
            } else if (mode == 1) {
              got = world.block_on(per_elem
                                       ? k.fetch_per_elem(arr, idxs, vals)
                                       : k.fetch_shared(arr, idxs, shared));
            } else {
              EXPECT_TRUE(world
                              .block_on(per_elem ? k.per_elem(arr, idxs, vals)
                                                 : k.shared(arr, idxs, shared))
                              .empty());
            }
            if (mode != 0) {
              EXPECT_EQ(got, want_fetch);
            }
            EXPECT_EQ(world.block_on(arr.get(0, kLen)), want);
          }
        }
      }
    }
    world.barrier();
  });
}

}  // namespace
