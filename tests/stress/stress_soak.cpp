// Deterministic multi-PE soak harness (ISSUE 3 tentpole).
//
// Hammers every concurrent subsystem of the runtime at once — the
// work-stealing scheduler (spawn / steal / block_on helping), the zero-copy
// AM hot path (in-place commit vs. flush vs. large-record bypass, buffer
// pool recycling), the cmd-queue swap/recycle machinery, the Darc lifetime
// protocol (construction / transfer / revive / drop), fabric RDMA + atomics,
// and the one-sided symmetric-heap allocator — from many threads per PE
// simultaneously, then checks runtime invariants at every quiesce point.
//
// The op *stream* is deterministic: every PE's schedule for round R is drawn
// from pe_rng(seed, pe * kRoundSalt + R), so a failing (seed, pes, rounds)
// triple replays the same work. Thread interleavings of course still vary —
// that is the point; run under TSan/ASan to turn interleaving bugs into
// reports (see .github/workflows/ci.yml "sanitizers" job and DESIGN.md §8).
//
// Usage:
//   stress_soak [--seed S] [--pes N] [--threads T] [--rounds R]
//               [--ms M] [--ops K] [--route direct|2hop]
//
//   --rounds R   maximum rounds (0 = until the time budget is spent)
//   --ms M       wall-clock budget in milliseconds (0 = rounds only)
//   --ops K      ops per PE per round
//   --route      AM routing (default direct); 2hop relays small records
//                and their replies and ack records through RouteGrid
//
// Exit status 0 iff every invariant held and every checksum matched.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "lamellar.hpp"

namespace {

using namespace lamellar;

std::atomic<std::uint64_t> g_failures{0};

// Unit-AM conservation: TallyAm executions per executing PE, and the
// number of TallyAms issued by every PE together.
std::unique_ptr<std::atomic<std::uint64_t>[]> g_tally;
std::atomic<std::uint64_t> g_tally_issued{0};

void fail(const char* what, std::uint64_t got, std::uint64_t want, pe_id pe,
          std::size_t round) {
  g_failures.fetch_add(1);
  std::fprintf(stderr,
               "[stress_soak] FAIL pe=%zu round=%zu %s: got %llu want %llu\n",
               pe, round, what, static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
}

#define SOAK_CHECK(cond, what, got, want, pe, round) \
  do {                                               \
    if (!(cond)) fail(what, got, want, pe, round);   \
  } while (0)

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : v) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- active messages -------------------------------------------------------

struct PingAm {
  std::uint64_t x = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x);
  }
  std::uint64_t exec(AmContext&) { return mix64(x); }
};

// Returns Unit, so its completion travels in a batched ack record.
struct TallyAm {
  template <class Ar>
  void serialize(Ar&) {}
  void exec(AmContext& ctx) {
    g_tally[ctx.current_pe()].fetch_add(1, std::memory_order_relaxed);
  }
};

struct PayloadAm {
  std::vector<std::uint64_t> data;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(data);
  }
  std::uint64_t exec(AmContext&) { return fnv1a(data); }
};

// Per-round Darc payload: an atomic hit counter per PE instance.
struct ShardState {
  std::atomic<std::uint64_t> hits{0};
  ShardState() = default;
  ShardState(ShardState&& o) noexcept : hits(o.hits.load()) {}
};

struct DarcTouchAm {
  Darc<ShardState> shard;
  std::uint64_t tag = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(shard);
    ar(tag);
  }
  std::uint64_t exec(AmContext&) {
    shard->hits.fetch_add(1, std::memory_order_relaxed);
    return mix64(tag);
  }
};

}  // namespace

LAMELLAR_REGISTER_AM(PingAm);
LAMELLAR_REGISTER_AM(TallyAm);
LAMELLAR_REGISTER_AM(PayloadAm);
LAMELLAR_REGISTER_AM(DarcTouchAm);

namespace {

struct Options {
  std::uint64_t seed = 42;
  std::size_t pes = 4;
  std::size_t threads = 3;
  std::size_t rounds = 0;    // 0 = until --ms budget spent
  std::size_t ms = 0;        // 0 = --rounds only
  std::size_t ops = 400;     // ops per PE per round
  RouteMode route = RouteMode::kDirect;
};

Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  auto num = [&](int& i) -> std::uint64_t {
    return std::strtoull(value(i), nullptr, 10);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed") o.seed = num(i);
    else if (a == "--pes") o.pes = num(i);
    else if (a == "--threads") o.threads = num(i);
    else if (a == "--rounds") o.rounds = num(i);
    else if (a == "--ms") o.ms = num(i);
    else if (a == "--ops") o.ops = num(i);
    else if (a == "--route") o.route = parse_route_mode(value(i));
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      std::exit(2);
    }
  }
  if (o.rounds == 0 && o.ms == 0) o.rounds = 2;
  return o;
}

// Round-end allocation registry: tasks record one-sided allocations here;
// whatever they did not free themselves is released by the main thread at
// the quiesce point.
struct RoundAllocs {
  std::mutex mu;
  std::vector<std::size_t> offs;
  std::size_t oom_hits = 0;

  void push(std::size_t off) {
    std::lock_guard lock(mu);
    offs.push_back(off);
  }
  // Pop one allocation to free, if any (stresses the concurrent free path).
  bool pop(std::size_t& off) {
    std::lock_guard lock(mu);
    if (offs.empty()) return false;
    off = offs.back();
    offs.pop_back();
    return true;
  }
};

constexpr std::uint64_t kRoundSalt = 0x100000001ULL;

constexpr std::size_t kSoakArrLen = 512;

// One deterministic soak round on one PE. `atoms_off` is a region of
// npes u64 words in every PE's arena (fabric atomics only); `scratch_off`
// is a region of npes 64-byte columns (PE p only ever puts/gets column p,
// so plain-memcpy RDMA never overlaps between writers); `arr_contrib_off`
// is one u64 slot per PE announcing this round's batched-array total.
// Returns the number of fabric-atomic increments this PE performed.
std::uint64_t soak_round(World& world, std::size_t round, const Options& opt,
                         std::size_t atoms_off, std::size_t scratch_off,
                         std::size_t arr_contrib_off) {
  const pe_id me = world.my_pe();
  const std::size_t npes = world.num_pes();
  auto rng = pe_rng(opt.seed, me * kRoundSalt + round);

  world.barrier();
  std::uint64_t atomic_adds = 0;
  {
    // Collective per-round Darc; dropped (and therefore globally destroyed)
    // before this round's quiesce check.  The per-round batched-op target
    // alternates distribution so both planner shapes (contiguous block
    // ranges, strided cyclic buckets) soak every round pairing.
    auto shard = world.new_darc(ShardState{});
    auto arr = AtomicArray<std::uint64_t>::create(
        world, kSoakArrLen,
        round % 2 == 0 ? Distribution::kBlock : Distribution::kCyclic);
    arr.fill(0);
    world.barrier();
    std::uint64_t array_adds = 0;
    RoundAllocs allocs;

    std::vector<std::pair<Future<std::uint64_t>, std::uint64_t>> checked;
    checked.reserve(64);
    std::vector<Future<Unit>> tallies;
    auto drain_checked = [&] {
      for (auto& [fut, want] : checked) {
        const std::uint64_t got = world.block_on(std::move(fut));
        SOAK_CHECK(got == want, "am checksum", got, want, me, round);
      }
      checked.clear();
      for (auto& fut : tallies) world.block_on(std::move(fut));
      tallies.clear();
    };

    for (std::size_t op = 0; op < opt.ops; ++op) {
      const std::uint64_t r = rng.next();
      const pe_id dst = static_cast<pe_id>(rng.next() % npes);
      switch (r % 14) {
        case 0: {  // small checked ping (in-place aggregated record)
          const std::uint64_t x = rng.next();
          checked.emplace_back(world.exec_am_pe(dst, PingAm{x}), mix64(x));
          break;
        }
        case 1: {  // medium payload, checked (fills lanes -> flush path)
          std::vector<std::uint64_t> data(64 + rng.next() % 192);
          for (auto& w : data) w = rng.next();
          const std::uint64_t want = fnv1a(data);
          checked.emplace_back(
              world.exec_am_pe(dst, PayloadAm{std::move(data)}), want);
          break;
        }
        case 2: {  // large payload >= agg threshold (bypass path), checked
          std::vector<std::uint64_t> data(600 + rng.next() % 512);
          for (auto& w : data) w = rng.next();
          const std::uint64_t want = fnv1a(data);
          checked.emplace_back(
              world.exec_am_pe(dst, PayloadAm{std::move(data)}), want);
          break;
        }
        case 3: {  // Darc transfer, fire-and-forget (revive path when the
                   // receiver already dropped its handle)
          world.exec_am_pe(dst, DarcTouchAm{shard, rng.next()});
          break;
        }
        case 4: case 5: {  // task tree: scheduler spawn/steal + fabric
                           // atomics + one-sided alloc/free from workers
          const std::uint64_t leaf_seed = rng.next();
          atomic_adds += 3;  // the three leaves below each add exactly once
          world.pool().spawn([&world, &allocs, leaf_seed, atoms_off,
                              npes]() {
            auto lrng = Xoshiro256(leaf_seed);
            for (int leaf = 0; leaf < 3; ++leaf) {
              const pe_id apre = static_cast<pe_id>(lrng.next() % npes);
              const std::size_t word = lrng.next() % npes;
              world.lamellae().atomic_fetch_add_u64(
                  apre, atoms_off + 8 * word, 1);
              const std::uint64_t kind = lrng.next() % 3;
              if (kind == 0) {
                try {
                  const std::size_t bytes = 8 + lrng.next() % 2048;
                  const std::size_t align = std::size_t{1}
                                            << (3 + lrng.next() % 5);
                  allocs.push(world.lamellae().alloc_onesided(bytes, align));
                } catch (const OutOfMemoryError&) {
                  std::lock_guard lock(allocs.mu);
                  ++allocs.oom_hits;
                }
              } else if (kind == 1) {
                std::size_t off = 0;
                if (allocs.pop(off)) world.lamellae().free_onesided(off);
              }
            }
          });
          break;
        }
        case 6: {  // nested block_on from a worker task (helping path)
          const std::uint64_t x = rng.next();
          const pe_id tgt = dst;
          world.pool().spawn([&world, x, tgt]() {
            const std::uint64_t got =
                world.block_on(world.exec_am_pe(tgt, PingAm{x}));
            if (got != mix64(x)) {
              fail("nested block_on checksum", got, mix64(x), world.my_pe(),
                   0);
            }
          });
          break;
        }
        case 7: {  // RDMA put + get readback on this PE's private column
          std::uint64_t vals[8];
          for (auto& v : vals) v = rng.next();
          const std::size_t col = scratch_off + 64 * me;
          world.lamellae().put(
              dst, col,
              std::as_bytes(std::span<const std::uint64_t>(vals)));
          std::uint64_t back[8] = {};
          world.lamellae().get(
              dst, col, std::as_writable_bytes(std::span<std::uint64_t>(back)));
          SOAK_CHECK(std::memcmp(vals, back, sizeof vals) == 0,
                     "rdma readback", back[0], vals[0], me, round);
          break;
        }
        case 8: {  // self-send exercises the local no-serialize fast path
          const std::uint64_t x = rng.next();
          checked.emplace_back(world.exec_am_pe(me, PingAm{x}), mix64(x));
          break;
        }
        case 10: {  // batched element ops: arena planner + in-lane chunks
          const std::size_t n = 16 + rng.next() % 64;
          std::vector<global_index> idxs(n);
          for (auto& i : idxs) i = rng.next() % kSoakArrLen;
          const std::uint64_t v = 1 + rng.next() % 8;
          world.block_on(arr.batch_add(idxs, v));
          array_adds += n * v;
          break;
        }
        case 11: {  // fetching variant: lock-free multi-chunk gather
          const std::size_t n = 16 + rng.next() % 64;
          std::vector<global_index> idxs(n);
          for (auto& i : idxs) i = rng.next() % kSoakArrLen;
          const std::uint64_t v = 1 + rng.next() % 8;
          auto got = world.block_on(arr.batch_fetch_add(idxs, v));
          SOAK_CHECK(got.size() == n, "batch fetch size", got.size(), n, me,
                     round);
          array_adds += n * v;
          break;
        }
        case 12: {  // fused lazy chain: random-length recorder groups
                    // lower into one AM per destination lane; commutative
                    // adds keep the round's conservation total exact, and
                    // the terminal alternates materialize / checksum-sized
                    // gather so both completion paths soak.
          const std::size_t n = 16 + rng.next() % 48;
          std::vector<global_index> idxs(n);
          for (auto& i : idxs) i = rng.next() % kSoakArrLen;
          const std::size_t chain_len = 1 + rng.next() % 4;
          auto chain = arr.lazy();
          for (std::size_t s = 0; s < chain_len; ++s) {
            const std::uint64_t v = 1 + rng.next() % 8;
            chain.add(idxs, v);
            array_adds += n * v;
          }
          if (rng.next() % 2 == 0) {
            world.block_on(chain.materialize());
          } else {
            auto got = world.block_on(chain.gather(idxs));
            SOAK_CHECK(got.size() == n, "fused gather size", got.size(), n,
                       me, round);
          }
          break;
        }
        case 13: {  // awaited Unit AM: completes through an ack record
          g_tally_issued.fetch_add(1, std::memory_order_relaxed);
          tallies.push_back(world.exec_am_pe(dst, TallyAm{}));
          break;
        }
        default: {  // periodic settle: bound outstanding work mid-round
          if (checked.size() + tallies.size() > 32) drain_checked();
          if (r % 50 == 9) world.wait_all();
          break;
        }
      }
    }

    drain_checked();
    world.wait_all();
    // Drain plain pool tasks (wait_all only tracks AMs).
    while (world.pool().pending() > 0) std::this_thread::yield();

    // Batched-op conservation: the array's tree-reduced sum must equal the
    // announced total of every PE's batch_add/batch_fetch_add stream.
    world.lamellae().atomic_store_u64(0, arr_contrib_off + 8 * me, array_adds);
    world.barrier();
    std::uint64_t announced = 0;
    for (pe_id p = 0; p < npes; ++p) {
      announced += world.lamellae().atomic_load_u64(0, arr_contrib_off + 8 * p);
    }
    const std::uint64_t observed = world.block_on(arr.sum());
    SOAK_CHECK(observed == announced, "batched-op conservation", observed,
               announced, me, round);
    world.barrier();

    std::size_t off = 0;
    while (allocs.pop(off)) world.lamellae().free_onesided(off);
    // `shard` and `arr` handles drop here -> the Darc protocol must destroy
    // every instance before quiescence below.
  }
  return atomic_adds;
}

void check_quiesced_invariants(World& world, std::size_t round,
                               std::size_t heap_used_baseline,
                               std::size_t heap_free_blocks_baseline) {
  const pe_id me = world.my_pe();
  auto& eng = world.engine();
  SOAK_CHECK(eng.outstanding() == 0, "engine outstanding", eng.outstanding(),
             0, me, round);
  SOAK_CHECK(world.pool().pending() == 0, "pool pending",
             world.pool().pending(), 0, me, round);
  SOAK_CHECK(world.pool().unclaimed() == 0, "pool unclaimed",
             world.pool().unclaimed(), 0, me, round);
  SOAK_CHECK(world.darc_manager().live_entries() == 0, "darc live entries",
             world.darc_manager().live_entries(), 0, me, round);
  SOAK_CHECK(!eng.outgoing().has_pending(), "no staged bytes at quiesce",
             eng.outgoing().has_pending() ? 1 : 0, 0, me, round);

  // Zero-copy budget: every serialized byte crossed exactly one copy.
  const std::uint64_t copied = world.metrics().counter("am.bytes_copied").get();
  const std::uint64_t serialized =
      world.metrics().counter("am.bytes_serialized").get();
  SOAK_CHECK(copied == serialized, "copy budget", copied, serialized, me,
             round);

  // Causal-trace conservation: only replied-to sends are sampled, and a
  // span closes when its reply is consumed on this PE — so at quiescence
  // every opened span has closed.
  const std::uint64_t spans_opened =
      world.metrics().counter("trace.spans_opened").get();
  const std::uint64_t spans_closed =
      world.metrics().counter("trace.spans_closed").get();
  SOAK_CHECK(spans_opened == spans_closed, "trace span conservation",
             spans_opened, spans_closed, me, round);
  // Only sampled requests are stamped: one reply-latency sample per span.
  const std::uint64_t latencies =
      world.metrics().histogram("am.reply_latency_ns").count.load(
          std::memory_order_relaxed);
  SOAK_CHECK(latencies == spans_closed, "one reply latency per span",
             latencies, spans_closed, me, round);

  // Pool accounting: recycling never exceeds the retention bound.
  auto& pool = world.engine().outgoing().pool();
  SOAK_CHECK(pool.size() <= pool.max_buffers(), "buffer pool bound",
             pool.size(), pool.max_buffers(), me, round);

  // One-sided heap: structurally valid and fully reclaimed each round.
  auto* shmem = dynamic_cast<ShmemLamellae*>(&world.lamellae());
  if (shmem != nullptr) {
    try {
      const std::size_t blocks = shmem->onesided_heap().debug_validate();
      SOAK_CHECK(blocks == heap_free_blocks_baseline, "heap coalesced",
                 blocks, heap_free_blocks_baseline, me, round);
    } catch (const Error& e) {
      fail(e.what(), 1, 0, me, round);
    }
    SOAK_CHECK(shmem->onesided_heap().bytes_used() == heap_used_baseline,
               "heap bytes_used restored", shmem->onesided_heap().bytes_used(),
               heap_used_baseline, me, round);
  }
}

void soak_main(World& world, const Options& opt) {
  const pe_id me = world.my_pe();
  const std::size_t npes = world.num_pes();

  // Symmetric setup (collective): fabric-atomic words, RDMA scratch
  // columns, per-PE contribution slots, and the PE0-owned continue flag.
  const std::size_t atoms_off = world.lamellae().alloc_symmetric(8 * npes, 8);
  const std::size_t scratch_off =
      world.lamellae().alloc_symmetric(64 * npes, 64);
  const std::size_t contrib_off =
      world.lamellae().alloc_symmetric(8 * npes, 8);
  const std::size_t arr_contrib_off =
      world.lamellae().alloc_symmetric(8 * npes, 8);
  const std::size_t flag_off = world.lamellae().alloc_symmetric(8, 8);

  std::size_t heap_used_baseline = 0;
  std::size_t heap_blocks_baseline = 0;
  if (auto* shmem = dynamic_cast<ShmemLamellae*>(&world.lamellae())) {
    heap_used_baseline = shmem->onesided_heap().bytes_used();
    heap_blocks_baseline = shmem->onesided_heap().debug_validate();
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t my_total_adds = 0;
  std::uint64_t plan_allocs_warm = 0;
  ScratchArena::Mark arena_mark_warm;
  std::size_t round = 0;
  for (;;) {
    my_total_adds += soak_round(world, round, opt, atoms_off, scratch_off,
                                arr_contrib_off);
    ++round;

    // Global quiescence, then invariant checks on every PE.
    while (!world.quiesce_round()) {
    }
    check_quiesced_invariants(world, round, heap_used_baseline,
                              heap_blocks_baseline);

    // Steady-state allocation discipline: the batch planner's scratch arena
    // warms up during the first two rounds and must never grow again —
    // array.plan_allocs frozen from round 2 onward (DESIGN.md §9).  The
    // fused-chain stream (case 12) dispatches through the same arena, so
    // this freeze also proves fused lowering is allocation-free.
    const std::uint64_t plan_allocs =
        world.metrics().counter("array.plan_allocs").get();
    if (round == 2) {
      plan_allocs_warm = plan_allocs;
    } else if (round > 2) {
      SOAK_CHECK(plan_allocs == plan_allocs_warm, "plan_allocs steady state",
                 plan_allocs, plan_allocs_warm, me, round);
    }

    // Fused-chain arena frames fully reset: with no frame open at the
    // quiesce point, this thread's arena cursor must sit exactly where the
    // first quiesce left it — a leaked ArenaFrame (e.g. a fused dispatch
    // that grew the arena mid-frame and never rewound) moves it.
    const auto arena_mark = ScratchArena::local().mark();
    if (round == 1) {
      arena_mark_warm = arena_mark;
    } else {
      SOAK_CHECK(arena_mark.block == arena_mark_warm.block &&
                     arena_mark.offset == arena_mark_warm.offset,
                 "arena frames reset", arena_mark.offset,
                 arena_mark_warm.offset, me, round);
    }

    // Fabric-atomic conservation: the sum of all counter words across all
    // PEs must equal the sum of every PE's announced increments.
    world.lamellae().atomic_store_u64(0, contrib_off + 8 * me, my_total_adds);
    world.barrier();
    if (me == 0) {
      std::uint64_t announced = 0;
      for (pe_id p = 0; p < npes; ++p) {
        announced += world.lamellae().atomic_load_u64(0, contrib_off + 8 * p);
      }
      std::uint64_t observed = 0;
      for (pe_id p = 0; p < npes; ++p) {
        for (std::size_t w = 0; w < npes; ++w) {
          observed += world.lamellae().atomic_load_u64(p, atoms_off + 8 * w);
        }
      }
      SOAK_CHECK(observed == announced, "atomic conservation", observed,
                 announced, me, round);

      // Unit-AM conservation: every awaited TallyAm ran exactly once.
      std::uint64_t tallied = 0;
      for (pe_id p = 0; p < npes; ++p) {
        tallied += g_tally[p].load(std::memory_order_relaxed);
      }
      const std::uint64_t issued =
          g_tally_issued.load(std::memory_order_relaxed);
      SOAK_CHECK(tallied == issued, "unit-am conservation", tallied, issued,
                 me, round);

      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
      const bool time_left =
          opt.ms != 0 && elapsed.count() < static_cast<long long>(opt.ms);
      const bool rounds_left = opt.rounds == 0 || round < opt.rounds;
      const bool go = g_failures.load() == 0 &&
                      (opt.ms != 0 ? (time_left && rounds_left) : rounds_left);
      world.lamellae().atomic_store_u64(0, flag_off, go ? 1 : 0);
    }
    world.barrier();
    if (world.lamellae().atomic_load_u64(0, flag_off) == 0) break;
  }

  world.barrier();
  if (me == 0) {
    std::fprintf(stderr,
                 "[stress_soak] %zu round(s), %zu PE(s), seed %llu; PE 0 sent "
                 "%llu ack record(s), relayed %llu record(s)\n",
                 round, npes, static_cast<unsigned long long>(opt.seed),
                 static_cast<unsigned long long>(
                     world.metrics().counter("am.ack_records").get()),
                 static_cast<unsigned long long>(
                     world.metrics().counter("am.relayed_records").get()));
  }
  world.lamellae().free_symmetric(flag_off);
  world.lamellae().free_symmetric(arr_contrib_off);
  world.lamellae().free_symmetric(contrib_off);
  world.lamellae().free_symmetric(scratch_off);
  world.lamellae().free_symmetric(atoms_off);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  RuntimeConfig cfg;  // defaults, NOT from_env: the harness is reproducible
  cfg.seed = opt.seed;
  cfg.threads_per_pe = opt.threads;
  // Small aggregation threshold so every hot-path branch fires: in-place
  // commits, threshold flushes + buffer swaps, and large-record bypass.
  cfg.agg_threshold_bytes = 4096;
  cfg.metrics_mode = MetricsMode::kQuiet;  // copy-budget check needs counters
  cfg.route = opt.route;
  // Trace-sample aggressively (1 in 7 requests) so the wire trace
  // extension, lane ts-patching, and stage histograms soak under the
  // sanitizers alongside everything else; the span-conservation invariant
  // is checked at every quiesce point.
  cfg.trace_sample = 7;

  g_tally = std::make_unique<std::atomic<std::uint64_t>[]>(opt.pes);
  run_world(opt.pes, [&](World& world) { soak_main(world, opt); }, cfg);

  const auto fails = g_failures.load();
  if (fails != 0) {
    std::fprintf(stderr, "[stress_soak] %llu failure(s)\n",
                 static_cast<unsigned long long>(fails));
    return 1;
  }
  std::fprintf(stderr, "[stress_soak] OK\n");
  return 0;
}
