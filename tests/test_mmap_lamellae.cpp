// Multi-process backend tests (ctest label: mp).  Every MP_TEST body runs
// SPMD across forked OS processes over a /dev/shm segment — the same
// runtime surface the in-process tests exercise, now with genuine address
// space separation.  Includes crash injection (a PE _exit()s or is
// SIGKILLed mid-run and the survivors must name it), a randomized
// cross-process fabric-atomic conservation check, fig3-shaped checksum
// parity, one RDMA contract, one messaging contract (checks and counters)
// and one collective contract (symmetric alloc and free) for the shmem and
// mmap backends, and the two-view MAP_FIXED regression for OffsetHeap's
// base-relative bookkeeping.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/memregion/onesided_region.hpp"
#include "core/memregion/shared_region.hpp"
#include "lamellae/heap.hpp"
#include "lamellae/shmem_lamellae.hpp"
#include "lamellar.hpp"
#include "mp/mp_harness.hpp"

namespace {

using namespace lamellar;
using namespace std::chrono_literals;

// Per-PROCESS counter: under the mmap backend each forked PE has its own
// copy, so it counts AMs executed on this PE only.
std::atomic<std::uint64_t> g_received{0};

struct MpHelloAm {
  std::uint32_t tag = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(tag);
  }
  void exec(AmContext&) { g_received.fetch_add(1); }
};

struct MpAddAm {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(a, b);
  }
  std::uint64_t exec(AmContext&) { return a + b; }
};

struct MpWhoAmIAm {
  template <class Ar>
  void serialize(Ar&) {}
  std::uint64_t exec(AmContext& ctx) { return ctx.current_pe(); }
};

struct MpCounterBox {
  std::atomic<std::uint64_t> hits{0};
  MpCounterBox() = default;
  MpCounterBox(MpCounterBox&& o) noexcept : hits(o.hits.load()) {}
};

struct MpBumpDarcAm {
  Darc<MpCounterBox> box;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(box);
  }
  void exec(AmContext&) { box->hits.fetch_add(1); }
};

struct MpFillOneSidedAm {
  OneSidedMemoryRegion<std::uint32_t> region;
  std::uint32_t value = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(region, value);
  }
  void exec(AmContext&) {
    std::vector<std::uint32_t> vals(region.len(), value);
    region.unsafe_put(0, vals);
  }
};

}  // namespace

LAMELLAR_REGISTER_AM(MpHelloAm);
LAMELLAR_REGISTER_AM(MpAddAm);
LAMELLAR_REGISTER_AM(MpWhoAmIAm);
LAMELLAR_REGISTER_AM(MpBumpDarcAm);
LAMELLAR_REGISTER_AM(MpFillOneSidedAm);

namespace {

class MpSmoke : public mptest::MpTest {};
class MpArray : public mptest::MpTest {};
class MpProps : public mptest::MpTest {};
class MpCrash : public mptest::MpTest {};
class RdmaContract : public mptest::MpTest {};
class MessagingContract : public mptest::MpTest {};
class CollectiveContract : public mptest::MpTest {};

/// True when `op` throws BoundsError; any other exception propagates.
template <typename Op>
bool throws_bounds(const Op& op) {
  try {
    op();
  } catch (const BoundsError&) {
    return true;
  }
  return false;
}

// ---- world bring-up at 2 / 4 / 8 processes ----

MP_TEST(MpSmoke, Bringup2, 2) {
  MP_CHECK_EQ(world.num_pes(), 2u);
  MP_CHECK(world.my_pe() < 2);
  world.barrier();
}

MP_TEST(MpSmoke, Bringup4, 4) {
  MP_CHECK_EQ(world.num_pes(), 4u);
  world.barrier();
  world.barrier();  // back-to-back generations
}

MP_TEST(MpSmoke, Bringup8, 8) {
  MP_CHECK_EQ(world.num_pes(), 8u);
  for (int i = 0; i < 4; ++i) world.barrier();
}

// ---- AM slices ported from test_smoke ----

MP_TEST(MpSmoke, AmWithReturn, 2) {
  auto fut = world.exec_am_pe(1 - world.my_pe(), MpAddAm{20, 22});
  MP_CHECK_EQ(world.block_on(std::move(fut)), 42u);
  world.barrier();
  // The transport counters carry the in-process backend's names.
  const obs::MetricsSnapshot s = world.metrics_snapshot();
  MP_CHECK(s.counter("fabric.msgs_sent") > 0);
  MP_CHECK(s.counter("fabric.barriers") > 0);
}

MP_TEST(MpSmoke, ExecAmAllReturnsPerPeResults, 4) {
  auto fut = world.exec_am_all(MpWhoAmIAm{});
  auto results = world.block_on(std::move(fut));
  MP_CHECK_EQ(results.size(), 4u);
  for (pe_id pe = 0; pe < 4; ++pe) MP_CHECK_EQ(results[pe], pe);
  world.barrier();
}

MP_TEST(MpSmoke, WaitAllDrainsFireAndForget, 3) {
  // Reset before the barrier: peers only send after the barrier releases,
  // which is after every reset, so no increment can be lost.
  g_received.store(0);
  world.barrier();
  for (int i = 0; i < 10; ++i) {
    world.exec_am_pe((world.my_pe() + 1) % 3, MpHelloAm{});
  }
  world.wait_all();
  world.barrier();
  // This process received exactly its predecessor's batch.
  MP_CHECK_EQ(g_received.load(), 10u);
}

MP_TEST(MpSmoke, EightPeAmStorm, 8) {
  g_received.store(0);
  world.barrier();
  constexpr std::uint64_t kRounds = 25;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (pe_id p = 0; p < world.num_pes(); ++p) {
      world.exec_am_pe(p, MpHelloAm{static_cast<std::uint32_t>(r)});
    }
  }
  world.wait_all();
  world.barrier();
  MP_CHECK_EQ(g_received.load(), kRounds * 8);
}

// ---- causal tracing in real time ----

RuntimeConfig traced_config() {
  RuntimeConfig cfg = mptest::small_config();
  cfg.trace_sample = 1;  // every replied-to request
  return cfg;
}

// Processes have no virtual clock: every stage reads the host's steady
// clock, which all PEs share, so the stages that take time read above zero.
MP_TEST(MpSmoke, SampledStagesReadRealTime, 2, traced_config()) {
  constexpr std::uint64_t kRoundTrips = 100;
  const pe_id other = 1 - world.my_pe();
  for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
    MP_CHECK_EQ(world.block_on(world.exec_am_pe(other, MpAddAm{i, 1})), i + 1);
  }
  world.barrier();  // the peer's requests have run here too
  const obs::MetricsSnapshot s = world.metrics_snapshot();
  const std::uint64_t closed = s.counter("trace.spans_closed");
  MP_CHECK_EQ(s.counter("trace.spans_opened"), closed);
  MP_CHECK(closed >= kRoundTrips);
  for (const char* name :
       {"am.stage_inject_flush_ns", "am.stage_flight_ns",
        "am.stage_reply_complete_ns", "am.reply_latency_ns"}) {
    const obs::HistogramSnapshot* h = s.histogram(name);
    MP_CHECK(h != nullptr);
    MP_CHECK(h->percentiles().p50 > 0);
  }
  MP_CHECK_EQ(s.histogram("am.reply_latency_ns")->count, closed);
  MP_CHECK(s.histogram("am.stage_exec_ns")->count > 0);
}

// ---- Darc across address spaces ----

MP_TEST(MpSmoke, DarcTravelsInAms, 4) {
  auto box = world.new_darc(MpCounterBox{});
  if (world.my_pe() == 0) {
    for (pe_id pe = 0; pe < 4; ++pe) {
      world.exec_am_pe(pe, MpBumpDarcAm{box});
    }
    world.wait_all();
  }
  world.barrier();
  // Each process's replica got exactly one bump from PE0's broadcast.
  MP_CHECK_EQ(box->hits.load(), 1u);
  world.barrier();
}

// ---- memory regions ----

MP_TEST(MpSmoke, SharedRegionPutGet, 4) {
  // Both heaps start above the runtime's reserved page.
  const std::size_t sym = world.lamellae().alloc_symmetric(64, 8);
  const std::size_t one = world.lamellae().alloc_onesided(64, 8);
  MP_CHECK(sym >= kReservedArenaBytes);
  MP_CHECK(one >= kReservedArenaBytes);
  world.lamellae().free_onesided(one);
  world.lamellae().free_symmetric(sym);

  auto region = SharedMemoryRegion<std::uint64_t>::create(world, 16);
  auto local = region.unsafe_local_slice();
  std::fill(local.begin(), local.end(), world.my_pe());
  world.barrier();

  const std::uint64_t v = 1000 + world.my_pe();
  region.unsafe_put(0, world.my_pe(), std::span<const std::uint64_t>(&v, 1));
  world.barrier();

  if (world.my_pe() == 0) {
    for (std::size_t i = 0; i < 4; ++i) MP_CHECK_EQ(local[i], 1000 + i);
  }
  std::uint64_t got = 0;
  region.unsafe_get(3, 5, std::span<std::uint64_t>(&got, 1));
  if (world.my_pe() != 3) MP_CHECK_EQ(got, 3u);
  world.barrier();
}

MP_TEST(MpSmoke, OneSidedRegionThroughAm, 2) {
  if (world.my_pe() == 0) {
    auto region = OneSidedMemoryRegion<std::uint32_t>::create(world, 8);
    auto fut = world.exec_am_pe(1, MpFillOneSidedAm{region, 7});
    world.block_on(std::move(fut));
    for (auto v : region.unsafe_local_slice()) MP_CHECK_EQ(v, 7u);
  }
  world.barrier();
}

// ---- termination detection across processes ----

// Process-local flags: only PE 1's process uses them.
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

RuntimeConfig quiesce_config() {
  RuntimeConfig cfg = mptest::small_config();
  cfg.threads_per_pe = 1;
  cfg.mp_wait_timeout_ms = 15'000;  // a hang fails the test
  return cfg;
}

// World::quiesce_round counts a started pool task as outstanding work.  PE
// 1's only worker holds one through the first round, so every PE's first
// round must read "not quiet"; after the release, every PE must read
// "quiet" after the same number of rounds.
MP_TEST(MpSmoke, QuiesceWaitsForHeldPoolTask, 3, quiesce_config()) {
  constexpr std::size_t kMaxRounds = 10'000;
  const pe_id me = world.my_pe();
  Lamellae& lam = world.lamellae();
  const std::size_t counts = lam.alloc_symmetric(8 * world.num_pes(), 8);
  if (me == 1) {
    world.pool().spawn(hold_until_released);
    MP_CHECK(wait_for_flag(g_hold_started));
  }
  world.barrier();
  const bool first_quiet = world.quiesce_round();
  if (me == 1) g_hold_released.store(true);
  // Every PE reads the same word, so the cap keeps them in lockstep.
  std::size_t n = 1;
  while (!world.quiesce_round() && n < kMaxRounds) ++n;
  MP_CHECK(!first_quiet);
  MP_CHECK(!g_hold_timed_out.load());
  MP_CHECK(n < kMaxRounds);
  lam.atomic_store_u64(0, counts + 8 * me, n);
  world.barrier();
  for (pe_id p = 0; p < world.num_pes(); ++p) {
    MP_CHECK_EQ(lam.atomic_load_u64(0, counts + 8 * p), std::uint64_t{n});
  }
  world.barrier();
  lam.free_symmetric(counts);
}

// ---- teams: full-world works, sub-world rejected ----

MP_TEST(MpSmoke, FullWorldTeamWorksSubTeamRejected, 4) {
  std::vector<pe_id> all(world.num_pes());
  std::iota(all.begin(), all.end(), pe_id{0});
  Team team = world.create_team(all);
  MP_CHECK(team.valid());
  MP_CHECK_EQ(team.size(), world.num_pes());
  MP_CHECK_EQ(team.my_rank(), world.my_pe());
  team.barrier();

  // Sub-world teams would need team state in the shared segment; the mp
  // rendezvous rejects them at creation, on every member, before any
  // barrier — so all PEs throw and stay in lockstep.
  bool threw = false;
  try {
    world.split_block(2);
  } catch (const Error&) {
    threw = true;
  }
  MP_CHECK(threw);
  world.barrier();
}

// ---- LamellarArray over the mmap fabric ----

MP_TEST(MpArray, CreateFillSum, 4) {
  auto arr =
      AtomicArray<std::uint64_t>::create(world, 100, Distribution::kBlock);
  MP_CHECK_EQ(arr.len(), 100u);
  arr.fill(7);
  MP_CHECK_EQ(world.block_on(arr.sum()), 700u);
  world.barrier();
}

MP_TEST(MpArray, RemoteElementOps, 2) {
  auto arr = AtomicArray<std::uint64_t>::create(world, 8, Distribution::kBlock);
  arr.fill(10);
  if (world.my_pe() == 0) {
    // Index 7 lives on PE 1.
    world.block_on(arr.add(7, 5));
    MP_CHECK_EQ(world.block_on(arr.load(7)), 15u);
    MP_CHECK_EQ(world.block_on(arr.fetch_add(7, 1)), 15u);
    auto r1 = world.block_on(arr.compare_exchange(7, 16, 42));
    MP_CHECK(r1.success);
    auto r2 = world.block_on(arr.compare_exchange(7, 16, 43));
    MP_CHECK(!r2.success);
    MP_CHECK_EQ(r2.current, 42u);
  }
  world.barrier();
}

// ---- a destination outside the world ----

MP_TEST(MpSmoke, BadDestinationPeThrows, 2) {
  MP_CHECK(throws_bounds([&] { (void)world.exec_am_pe(7, MpAddAm{1, 2}); }));
  MP_CHECK(throws_bounds(
      [&] { world.engine().send_forget(world.num_pes(), MpHelloAm{}); }));
  // Nothing was counted, so wait_all() returns and the world finalizes.
  world.wait_all();
  MP_CHECK_EQ(world.block_on(world.exec_am_pe(1 - world.my_pe(),
                                              MpAddAm{20, 22})),
              42u);
}

// ---- the one RDMA path: the same checks and counters on both backends ----

/// The fabric.* counters that moved between two snapshots, as
/// "name=delta" in name order.  fabric.vtime_charged_ns is left out: it
/// records modeled time, which only the in-process backend keeps.
std::string fabric_moves(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> moved;
  for (const auto& [name, delta] : obs::snapshot_delta(before, after).counters) {
    if (name.starts_with("fabric.") && name != "fabric.vtime_charged_ns" &&
        delta != 0) {
      moved[name] = delta;
    }
  }
  std::string out;
  for (const auto& [name, delta] : moved) {
    out += (out.empty() ? "" : " ") + name + "=" + std::to_string(delta);
  }
  return out;
}

/// SPMD on 2 PEs, each touching only its peer's arena: every rejected
/// access throws BoundsError and moves no counter, then one valid op of each
/// kind moves the same fabric.* counters whatever the backend.
void rdma_contract(World& world) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  Lamellae& l = world.lamellae();
  const RuntimeConfig& cfg = world.config();
  const std::size_t arena = kReservedArenaBytes + cfg.symmetric_heap_bytes +
                            cfg.onesided_heap_bytes;
  const pe_id peer = 1 - world.my_pe();
  const pe_id bad = world.num_pes();
  const std::size_t off = l.alloc_symmetric(128, 64);
  const std::size_t word = off + 64;
  std::vector<std::byte> data(64, std::byte{0x5a});
  std::vector<std::byte> back(64);
  world.barrier();
  const obs::MetricsSnapshot before = world.metrics_snapshot();

  // Transfers: a PE outside the world, a range running past the arena's
  // end, and one whose end wraps past 2^64.
  for (const auto& [pe, at] : {std::pair{bad, off}, std::pair{peer, arena - 32},
                               std::pair{peer, kMax - 31}}) {
    MP_CHECK(throws_bounds([&] { l.put(pe, at, data); }));
    MP_CHECK(throws_bounds([&] { l.get(pe, at, back); }));
    MP_CHECK(throws_bounds([&] { l.get_pipelined(pe, at, back); }));
  }
  // Atomics: the same three, plus a misaligned word inside the arena.
  for (const auto& [pe, at] :
       {std::pair{bad, word}, std::pair{peer, arena}, std::pair{peer, kMax - 7},
        std::pair{peer, word + 3}}) {
    std::uint64_t expected = 0;
    MP_CHECK(throws_bounds([&] { l.atomic_fetch_add_u64(pe, at, 1); }));
    MP_CHECK(throws_bounds([&] { l.atomic_load_u64(pe, at); }));
    MP_CHECK(throws_bounds([&] { l.atomic_store_u64(pe, at, 1); }));
    MP_CHECK(throws_bounds([&] { l.atomic_cas_u64(pe, at, expected, 1); }));
  }
  MP_CHECK_EQ(fabric_moves(before, world.metrics_snapshot()), std::string());

  l.put(peer, off, data);
  l.get(peer, off, back);
  MP_CHECK(back == data);
  l.get_pipelined(peer, off, back);
  l.atomic_store_u64(peer, word, 5);
  MP_CHECK_EQ(l.atomic_fetch_add_u64(peer, word, 2), 5u);
  MP_CHECK_EQ(l.atomic_load_u64(peer, word), 7u);
  std::uint64_t expected = 7;
  MP_CHECK(l.atomic_cas_u64(peer, word, expected, 8));
  MP_CHECK_EQ(fabric_moves(before, world.metrics_snapshot()),
              std::string("fabric.atomics=4 fabric.bytes_get=128 "
                          "fabric.bytes_put=64 fabric.gets=2 fabric.puts=1"));
  world.barrier();
  l.free_symmetric(off);
}

TEST_F(RdmaContract, InProcess) {
  RuntimeConfig cfg = mptest::small_config();
  cfg.backend = BackendKind::kShmem;
  try {
    run_world(2, rdma_contract, cfg);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
}

MP_TEST(RdmaContract, Mmap, 2) { rdma_contract(world); }

// ---- the collective rendezvous: one contract on both backends ----

/// Post `value` as this PE's word of `board` on PE 0; return every PE's
/// word once all have posted.  Words of a PE whose `board` offset differs
/// from this PE's read as some other value (the arena starts zeroed).
std::vector<std::uint64_t> posted(World& world, std::size_t board,
                                  std::uint64_t value) {
  Lamellae& l = world.lamellae();
  l.atomic_store_u64(0, board + 8 * world.my_pe(), value);
  world.barrier();
  std::vector<std::uint64_t> words(world.num_pes());
  for (pe_id p = 0; p < world.num_pes(); ++p) {
    words[p] = l.atomic_load_u64(0, board + 8 * p);
  }
  world.barrier();  // every PE reads before any PE posts again
  return words;
}

/// SPMD on 4 PEs.  A symmetric allocation has one offset on every PE, and
/// a collective free completes at the last of this process's participants:
/// in-process PE 3 frees `a` only after the others have allocated `b`, so
/// `b` cannot reuse it; each mmap process is its own last participant, so
/// its `b` does.  The first allocation after the free completes reuses the
/// block (first fit).  A team-scoped allocation of each pair {0, 1}, {2, 3}
/// gives its members one offset in-process, and throws Error on every PE
/// at the call, before any barrier, in a process that runs one PE.
void collective_contract(World& world) {
  Lamellae& l = world.lamellae();
  const pe_id me = world.my_pe();
  const std::size_t all = world.num_pes();
  const bool replica = l.local_pes() < all;
  const std::size_t board = l.alloc_symmetric(8 * all, 8);
  MP_CHECK(posted(world, board, board) ==
           std::vector<std::uint64_t>(all, board));

  constexpr std::size_t kBlock = std::size_t{1} << 20;
  const std::size_t a = l.alloc_symmetric(kBlock, 64);
  MP_CHECK(posted(world, board, a) == std::vector<std::uint64_t>(all, a));
  const pe_id last = all - 1;
  if (me == last) world.barrier();
  l.free_symmetric(a);
  const std::size_t b = l.alloc_symmetric(kBlock, 64);
  if (me != last) world.barrier();
  MP_CHECK(posted(world, board, b) == std::vector<std::uint64_t>(all, b));
  MP_CHECK_EQ(b == a, replica);
  const std::size_t c = l.alloc_symmetric(kBlock, 64);
  MP_CHECK_EQ(replica ? b : c, a);
  l.free_symmetric(c);
  l.free_symmetric(b);

  const std::uint64_t pair_key = 1 + me / 2;
  std::size_t g = 0;
  bool threw = false;
  try {
    g = l.alloc_symmetric_group(pair_key, 2, 256, 64);
  } catch (const Error&) {
    threw = true;
  }
  MP_CHECK_EQ(threw, replica);
  if (!replica) {
    const std::vector<std::uint64_t> got = posted(world, board, g);
    MP_CHECK_EQ(got[me ^ 1], g);
    MP_CHECK(got[(me + 2) % all] != g);
    l.free_symmetric_group(g, 2);
  }
  l.free_symmetric(board);
}

TEST_F(CollectiveContract, InProcess) {
  RuntimeConfig cfg = mptest::small_config();
  cfg.backend = BackendKind::kShmem;
  try {
    run_world(4, collective_contract, cfg);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
}

MP_TEST(CollectiveContract, Mmap, 4) { collective_contract(world); }

// ---- the raw message transport: one contract on both backends ----

/// Two endpoints of one 2-PE world: a send to a PE outside the world throws
/// BoundsError and moves no counter; five buffers of different sizes then
/// arrive in order, whole, from PE 0, and move exactly the sender's
/// fabric.msgs_sent/bytes_sent and the receiver's fabric.msgs_polled.
void messaging_contract(Lamellae& sender, Lamellae& receiver) {
  ASSERT_EQ(sender.my_pe(), 0u);
  ASSERT_EQ(receiver.my_pe(), 1u);
  const obs::MetricsSnapshot sent_before = sender.metrics().snapshot();
  const obs::MetricsSnapshot polled_before = receiver.metrics().snapshot();

  ByteBuffer stray(8);
  stray.write_pod<std::uint64_t>(7);
  EXPECT_THROW(sender.try_send(sender.num_pes(), stray), BoundsError);
  EXPECT_EQ(fabric_moves(sent_before, sender.metrics().snapshot()), "");

  const std::size_t sizes[] = {4, 1, 100, 4096, 37};
  std::vector<std::vector<std::byte>> sent;
  std::size_t total = 0;
  EXPECT_TRUE(receiver.inbox_empty());
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    std::vector<std::byte> bytes(sizes[i]);
    for (std::size_t b = 0; b < bytes.size(); ++b) {
      bytes[b] = static_cast<std::byte>(31 * i + b);
    }
    ByteBuffer buf(bytes.size());
    buf.write(bytes.data(), bytes.size());
    ASSERT_TRUE(sender.try_send(1, buf));
    total += bytes.size();
    sent.push_back(std::move(bytes));
  }
  EXPECT_FALSE(receiver.inbox_empty());

  FabricMessage msg;
  for (const auto& bytes : sent) {
    ASSERT_TRUE(receiver.poll(msg));
    EXPECT_EQ(msg.src, 0u);
    const auto got = msg.payload.as_span();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), bytes.begin(),
                           bytes.end()));
  }
  EXPECT_FALSE(receiver.poll(msg));
  EXPECT_EQ(fabric_moves(sent_before, sender.metrics().snapshot()),
            "fabric.bytes_sent=" + std::to_string(total) +
                " fabric.msgs_sent=5");
  EXPECT_EQ(fabric_moves(polled_before, receiver.metrics().snapshot()),
            "fabric.msgs_polled=5");
}

TEST_F(MessagingContract, InProcess) {
  ShmemLamellaeGroup group(2);
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  messaging_contract(*l0, *l1);
}

// Both endpoints live in this test process: a running World's engine would
// consume the raw buffers.
TEST_F(MessagingContract, Mmap) {
  const RuntimeConfig cfg = mptest::small_config();
  MmapSegment segment = MmapSegment::create(2, cfg);
  MmapLamellae l0(segment.name(), 0, cfg);
  MmapLamellae l1(segment.name(), 1, cfg);
  messaging_contract(l0, l1);
}

// ---- randomized cross-process fabric-atomic conservation ----

MP_TEST(MpProps, FabricAtomicConservation, 4) {
  auto& fab = world.lamellae();
  // One counter word in every PE's arena plus an accumulator on PE 0 —
  // symmetric allocs, so every process computes the same offsets.
  const std::size_t counter_off = fab.alloc_symmetric(8, 64);
  const std::size_t total_off = fab.alloc_symmetric(8, 64);
  fab.atomic_store_u64(world.my_pe(), counter_off, 0);
  fab.atomic_store_u64(world.my_pe(), total_off, 0);
  world.barrier();

  std::mt19937_64 rng(0x51ab5eedull + world.my_pe());
  std::uint64_t applied = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t r = rng();
    const pe_id target = r % world.num_pes();
    const std::uint64_t delta = ((r >> 8) % 100) + 1;
    if ((r >> 32) & 1) {
      fab.atomic_fetch_add_u64(target, counter_off, delta);
    } else {
      // CAS loop: expected is refreshed on failure, so each retry proposes
      // current + delta until one lands.
      std::uint64_t cur = fab.atomic_load_u64(target, counter_off);
      while (!fab.atomic_cas_u64(target, counter_off, cur, cur + delta)) {
      }
    }
    applied += delta;
  }
  fab.atomic_fetch_add_u64(0, total_off, applied);
  world.barrier();

  // Conservation at quiesce: the counters hold exactly what was applied.
  std::uint64_t counted = 0;
  for (pe_id p = 0; p < world.num_pes(); ++p) {
    counted += fab.atomic_load_u64(p, counter_off);
  }
  MP_CHECK_EQ(counted, fab.atomic_load_u64(0, total_off));
  world.barrier();
  fab.free_symmetric(total_off);
  fab.free_symmetric(counter_off);
}

// ---- fig3-shaped checksum parity: shmem vs mmap ----

// Seeded GUPS-style histogram straight on the fabric-atomic layer.  The
// final table is order-independent (each slot holds the count of updates
// that targeted it), so the checksum is deterministic per (seed, updates,
// num_pes) and must be identical under both backends.  Returns the combined
// checksum on PE 0 (0 elsewhere).
std::uint64_t fig3_histogram(World& world, std::size_t updates) {
  auto& fab = world.lamellae();
  constexpr std::size_t kSlots = 512;
  const std::size_t table = fab.alloc_symmetric(kSlots * 8, 64);
  const std::size_t hash_slot = fab.alloc_symmetric(8, 64);
  const std::size_t count_slot = fab.alloc_symmetric(8, 64);
  for (std::size_t s = 0; s < kSlots; ++s) {
    fab.atomic_store_u64(world.my_pe(), table + 8 * s, 0);
  }
  fab.atomic_store_u64(world.my_pe(), hash_slot, 0);
  fab.atomic_store_u64(world.my_pe(), count_slot, 0);
  world.barrier();

  std::mt19937_64 rng(42ull * 1000003 + world.my_pe());
  for (std::size_t i = 0; i < updates; ++i) {
    const std::uint64_t r = rng();
    const pe_id dst = r % world.num_pes();
    const std::size_t slot = (r >> 16) % kSlots;
    fab.atomic_fetch_add_u64(dst, table + 8 * slot, 1);
  }
  world.barrier();

  // Per-PE FNV over the local slice; wrapping-sum the hashes on PE 0 so the
  // combine is order-independent too.
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t local_total = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    const std::uint64_t v = fab.atomic_load_u64(world.my_pe(), table + 8 * s);
    h = (h ^ v) * 1099511628211ull;
    local_total += v;
  }
  fab.atomic_fetch_add_u64(0, hash_slot, h);
  fab.atomic_fetch_add_u64(0, count_slot, local_total);
  world.barrier();

  std::uint64_t checksum = 0;
  if (world.my_pe() == 0) {
    checksum = fab.atomic_load_u64(0, hash_slot);
    // Conservation: every issued update landed exactly once.
    MP_CHECK_EQ(fab.atomic_load_u64(0, count_slot),
                updates * world.num_pes());
  }
  world.barrier();
  fab.free_symmetric(count_slot);
  fab.free_symmetric(hash_slot);
  fab.free_symmetric(table);
  return checksum;
}

std::size_t fig3_updates() {
  if (const char* env = std::getenv("LAMELLAR_TEST_FIG3_UPDATES")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return 20'000;
}

TEST_F(MpProps, Fig3ChecksumParityShmemVsMmap) {
  const std::size_t updates = fig3_updates();

  // In-process run: the body shares this address space, so a captured
  // local receives PE 0's checksum directly.
  std::uint64_t shmem_checksum = 0;
  RuntimeConfig shmem_cfg = mptest::small_config();
  shmem_cfg.backend = BackendKind::kShmem;
  run_world(
      4,
      [&](World& world) {
        const std::uint64_t c = fig3_histogram(world, updates);
        if (world.my_pe() == 0) shmem_checksum = c;
      },
      shmem_cfg);

  // Process-separated run: fork means child writes don't reach the parent's
  // memory, so PE 0 reports its checksum through a temp file.
  const std::string path = std::string(::testing::TempDir()) +
                           "lamellar_fig3_checksum." +
                           std::to_string(::getpid());
  mptest::run_mp(4, [updates, path](World& world) {
    const std::uint64_t c = fig3_histogram(world, updates);
    if (world.my_pe() == 0) {
      std::ofstream out(path);
      out << c << "\n";
      if (!out) throw std::runtime_error("fig3: cannot write " + path);
    }
  });

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "mmap PE 0 never wrote its checksum to " << path;
  std::uint64_t mmap_checksum = 0;
  in >> mmap_checksum;
  ::unlink(path.c_str());
  EXPECT_EQ(mmap_checksum, shmem_checksum)
      << "fig3 histogram diverged between backends (" << updates
      << " updates/PE)";
}

// ---- crash injection ----

TEST_F(MpCrash, ExitingPeIsNamedAndRunUnwinds) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_world(
        4,
        [](World& world) {
          world.barrier();
          if (world.my_pe() == 2) ::_exit(1);  // silent casualty, no signal
          world.barrier();
        },
        mptest::small_config());
    FAIL() << "expected run_world to throw for the dead PE";
  } catch (const std::exception& e) {
    // Survivors abort their barrier naming the casualty; the run's error
    // carries that diagnostic.
    EXPECT_NE(std::string(e.what()).find("PE 2"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Liveness detection, not barrier timeout: well under the 8s budget.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  // Fixture TearDown asserts the segment was unlinked despite the crash.
}

TEST_F(MpCrash, SigkilledPeIsNamedAndRunUnwinds) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_world(
        4,
        [](World& world) {
          world.barrier();
          if (world.my_pe() == 1) ::raise(SIGKILL);  // dies mid-run
          world.barrier();
        },
        mptest::small_config());
    FAIL() << "expected run_world to throw for the killed PE";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PE 1"), std::string::npos) << what;
    EXPECT_NE(what.find("signal 9"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// ---- OffsetHeap base-relative bookkeeping: two-view MAP_FIXED regression --

// The same shm object mapped at two different addresses.  If heap state
// encoded absolute positions, offsets handed out while "thinking" in one
// view would corrupt the other; with base-relative bookkeeping they are
// plain numbers valid through any view.
TEST(OffsetHeapViews, OffsetsValidAcrossTwoMappings) {
  const std::size_t bytes = std::size_t{1} << 20;
  const std::string name =
      "/lamellar_test_heapview." + std::to_string(::getpid());
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ::shm_unlink(name.c_str());  // anonymous from here on
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(bytes)), 0);

  void* map_a =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(map_a, MAP_FAILED);
  // Reserve address space, then force the second view there with MAP_FIXED.
  void* reserve = ::mmap(nullptr, bytes, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(reserve, MAP_FAILED);
  void* map_b = ::mmap(reserve, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_FIXED, fd, 0);
  ASSERT_EQ(map_b, reserve);
  ASSERT_NE(map_a, map_b);
  auto* view_a = static_cast<std::byte*>(map_a);
  auto* view_b = static_cast<std::byte*>(map_b);

  // Heap base 4096 — the arena-absolute offsets the runtime trades in.
  const std::size_t base = 4096;
  OffsetHeap heap(base, bytes - base);
  const std::size_t o1 = heap.alloc(256, 64);
  const std::size_t o2 = heap.alloc(1000, 16);
  const std::size_t o3 = heap.alloc(64, 64);
  EXPECT_GE(o1, base);
  EXPECT_EQ(o1 % 64, 0u);
  EXPECT_EQ(o3 % 64, 0u);

  // Write through view A at an offset, read it back through view B.
  std::memset(view_a + o1, 0xAB, 256);
  std::memset(view_a + o2, 0xCD, 1000);
  EXPECT_EQ(std::to_integer<int>(view_b[o1]), 0xAB);
  EXPECT_EQ(std::to_integer<int>(view_b[o1 + 255]), 0xAB);
  EXPECT_EQ(std::to_integer<int>(view_b[o2 + 999]), 0xCD);
  // ...and the reverse direction.
  view_b[o3] = std::byte{0x5A};
  EXPECT_EQ(std::to_integer<int>(view_a[o3]), 0x5A);

  // Free/realloc churn keeps invariants regardless of which view is live.
  heap.free(o2);
  heap.debug_validate();
  const std::size_t o4 = heap.alloc(512, 32);
  EXPECT_GE(o4, base);
  std::memset(view_b + o4, 0xEE, 512);
  EXPECT_EQ(std::to_integer<int>(view_a[o4 + 511]), 0xEE);
  heap.free(o4);
  heap.free(o3);
  heap.free(o1);
  heap.debug_validate();
  EXPECT_EQ(heap.bytes_used(), 0u);
  EXPECT_EQ(heap.live_allocations(), 0u);

  ASSERT_EQ(::munmap(view_b, bytes), 0);
  ASSERT_EQ(::munmap(view_a, bytes), 0);
  ::close(fd);
}

// Startup sweep: a segment whose creator pid is dead gets unlinked by the
// next run's orphan collection.
TEST_F(MpCrash, OrphanedSegmentIsSweptAtStartup) {
  // Forge an orphan: a correctly-prefixed segment naming a pid that cannot
  // be alive (pid 1 is init — use a reaped child's pid instead).
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // pid now definitely dead
  const std::string orphan =
      "/lamellar_mp." + std::to_string(child) + ".0.424242";
  int fd = ::shm_open(orphan.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ::close(fd);

  // Any mmap run sweeps orphans during segment creation.
  mptest::run_mp(2, [](World& world) { world.barrier(); });

  fd = ::shm_open(orphan.c_str(), O_RDWR, 0600);
  EXPECT_LT(fd, 0) << "orphaned segment survived the startup sweep";
  if (fd >= 0) {
    ::close(fd);
    ::shm_unlink(orphan.c_str());
  }
}

}  // namespace
