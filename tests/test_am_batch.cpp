// Receive-side batching (DESIGN.md §7): the deferred records of one inbox
// buffer run as a few chunk tasks, and each chunk answers its Unit-returning
// requests with one ack record per origin.  These tests pin the blocking
// rule (a record that waits holds neither a later record of its chunk nor
// an ack the chunk already owes), chunk parallelism, and the reply
// accounting under direct and 2-hop routing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "lamellar.hpp"

namespace {

using namespace lamellar;
using namespace std::chrono_literals;

// One flag per test, set at most once: by SetFlagAm, or by a test that
// timed out, to release the waiting record so the world can shut down.
std::mutex g_flag_mu;
Promise<Unit> g_flag;
bool g_flag_set = false;

void reset_flag() {
  std::lock_guard lock(g_flag_mu);
  g_flag = Promise<Unit>();
  g_flag_set = false;
}

void set_flag() {
  std::lock_guard lock(g_flag_mu);
  if (g_flag_set) return;
  g_flag_set = true;
  g_flag.set_value(Unit{});
}

Future<Unit> flag_future() {
  std::lock_guard lock(g_flag_mu);
  return g_flag.future();
}

std::atomic<std::uint64_t> g_fillers{0};

std::mutex g_threads_mu;
std::set<std::thread::id> g_threads;

/// Waits (helping) until the flag is set.
struct WaitFlagAm {
  template <class Ar>
  void serialize(Ar&) {}
  void exec(AmContext& ctx) { ctx.world().block_on(flag_future()); }
};

struct SetFlagAm {
  template <class Ar>
  void serialize(Ar&) {}
  void exec(AmContext&) { set_flag(); }
};

struct FillerAm {
  std::uint64_t x = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x);
  }
  void exec(AmContext&) { g_fillers.fetch_add(1, std::memory_order_relaxed); }
};

/// Spins for `us` microseconds, then records the thread that ran it.
struct SpinAm {
  std::uint32_t us = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(us);
  }
  void exec(AmContext&) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
    std::lock_guard lock(g_threads_mu);
    g_threads.insert(std::this_thread::get_id());
  }
};

}  // namespace

LAMELLAR_REGISTER_AM(WaitFlagAm);
LAMELLAR_REGISTER_AM(SetFlagAm);
LAMELLAR_REGISTER_AM(FillerAm);
LAMELLAR_REGISTER_AM(SpinAm);

namespace {

/// Defaults, not from_env: no environment knob may split the buffers these
/// tests build.
RuntimeConfig batch_cfg(std::size_t threads_per_pe) {
  RuntimeConfig cfg;
  cfg.threads_per_pe = threads_per_pe;
  return cfg;
}

/// Run `send` while this PE's pool is kept busy, so no idle worker flushes
/// a lane part-way; the flush that follows then sends everything `send`
/// staged toward one destination as one buffer.
template <typename Fn>
void send_as_one_buffer(World& w, Fn send) {
  auto staged = std::make_shared<std::atomic<bool>>(false);
  w.pool().spawn([staged] {
    while (!staged->load(std::memory_order_acquire)) std::this_thread::yield();
  });
  send();
  staged->store(true, std::memory_order_release);
  w.engine().flush();
}

/// Help this PE until `f` is ready; false if `limit` passes first.
bool ready_within(World& w, const Future<Unit>& f,
                  std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  w.engine().flush();
  while (!f.ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (!w.pool().try_run_one()) w.engine().poll_inbox();
  }
  return true;
}

TEST(AmBatch, BlockedRecordDoesNotHoldLaterRecord) {
  // One worker per PE, so the receiving buffer of 8 records splits into 2
  // chunks and the first holds WaitFlagAm and SetFlagAm together.
  reset_flag();
  g_fillers.store(0);
  std::uint64_t buffers = 0;
  bool finished = false;
  run_world(
      2,
      [&](World& w) {
        if (w.my_pe() == 0) {
          Future<Unit> waiter;
          const auto before = w.metrics_snapshot().counter("cmdq.buffers_sent");
          send_as_one_buffer(w, [&] {
            waiter = w.exec_am_pe(1, WaitFlagAm{});
            (void)w.exec_am_pe(1, SetFlagAm{});
            for (std::uint64_t i = 0; i < 6; ++i) {
              (void)w.exec_am_pe(1, FillerAm{i});
            }
          });
          buffers = w.metrics_snapshot().counter("cmdq.buffers_sent") - before;
          finished = ready_within(w, waiter, 20s);
          if (!finished) set_flag();
          w.wait_all();
        }
        w.barrier();
      },
      batch_cfg(1));
  EXPECT_EQ(buffers, 1u);  // the premise: all eight records in one buffer
  EXPECT_TRUE(finished) << "WaitFlagAm held the SetFlagAm behind it";
  EXPECT_EQ(g_fillers.load(), 6u);
}

TEST(AmBatch, AcksBeforeBlockingRecordReachOrigin) {
  // The first chunk runs FillerAm{0}, then WaitFlagAm, which waits until
  // the origin has seen FillerAm{0} complete.  Its ack must leave when
  // WaitFlagAm blocks, not when the chunk ends.
  reset_flag();
  g_fillers.store(0);
  bool acked = false;
  bool finished = false;
  std::vector<obs::MetricsSnapshot> snaps(2);
  run_world(
      2,
      [&](World& w) {
        if (w.my_pe() == 0) {
          Future<Unit> first;
          Future<Unit> waiter;
          send_as_one_buffer(w, [&] {
            first = w.exec_am_pe(1, FillerAm{0});
            waiter = w.exec_am_pe(1, WaitFlagAm{});
            for (std::uint64_t i = 1; i < 7; ++i) {
              (void)w.exec_am_pe(1, FillerAm{i});
            }
          });
          acked = ready_within(w, first, 20s);
          if (acked) {
            (void)w.exec_am_pe(1, SetFlagAm{});
          } else {
            set_flag();
          }
          finished = ready_within(w, waiter, 20s);
          if (!finished) set_flag();
          w.wait_all();
        }
        w.barrier();
        w.finalize();
        snaps[w.my_pe()] = w.metrics_snapshot();
      },
      batch_cfg(1));
  EXPECT_TRUE(acked) << "the ack of FillerAm{0} waited for its chunk to end";
  EXPECT_TRUE(finished);
  EXPECT_EQ(g_fillers.load(), 7u);
  // The chunk published its counts part-way, at the release, and again at
  // its end; at quiescence no count may be short.
  std::uint64_t sent = 0;
  std::uint64_t executed = 0;
  for (const auto& s : snaps) {
    sent += s.counter("am.sent_remote") + s.counter("am.sent_local");
    executed += s.counter("am.executed");
    // Sampling is off (a sampled Unit reply leaves unacked): no request is
    // stamped.
    const auto* h = s.histogram("am.reply_latency_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, s.counter("trace.spans_closed"));
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(executed, sent);
}

TEST(AmBatch, ChunksRunInParallel) {
  {
    std::lock_guard lock(g_threads_mu);
    g_threads.clear();
  }
  run_world(
      2,
      [&](World& w) {
        if (w.my_pe() == 0) {
          send_as_one_buffer(w, [&] {
            for (int i = 0; i < 64; ++i) (void)w.exec_am_pe(1, SpinAm{500});
          });
          w.wait_all();
        }
        w.barrier();
      },
      batch_cfg(4));
  std::lock_guard lock(g_threads_mu);
  EXPECT_GE(g_threads.size(), 2u);
}

TEST(AmBatch, UnitAcksBatchAndBalance) {
  constexpr std::size_t kPes = 9;
  constexpr std::uint64_t kEach = 1000;
  for (const RouteMode route : {RouteMode::kDirect, RouteMode::k2Hop}) {
    SCOPED_TRACE(route == RouteMode::k2Hop ? "2hop" : "direct");
    g_fillers.store(0);
    RuntimeConfig cfg = batch_cfg(1);
    cfg.route = route;
    cfg.trace_sample = 7;  // sampled replies alongside the acks
    std::vector<obs::MetricsSnapshot> snaps(kPes);
    std::atomic<std::uint64_t> completed{0};
    run_world(
        kPes,
        [&](World& w) {
          const pe_id me = w.my_pe();
          std::vector<Future<Unit>> futs;
          futs.reserve(kEach);
          send_as_one_buffer(w, [&] {
            for (std::uint64_t i = 0; i < kEach; ++i) {
              const pe_id dst = (me + 1 + i % (kPes - 1)) % kPes;
              futs.push_back(w.exec_am_pe(dst, FillerAm{i}));
            }
          });
          w.wait_all();
          for (const auto& f : futs) {
            if (f.ready()) completed.fetch_add(1, std::memory_order_relaxed);
          }
          w.barrier();
          snaps[me] = w.metrics_snapshot();
          w.barrier();
        },
        cfg);
    std::uint64_t replies_sent = 0;
    std::uint64_t replies_received = 0;
    std::uint64_t ack_records = 0;
    std::uint64_t relayed = 0;
    for (const auto& s : snaps) {
      replies_sent += s.counter("am.replies_sent");
      replies_received += s.counter("am.replies_received");
      ack_records += s.counter("am.ack_records");
      relayed += s.counter("am.relayed_records");
      // Only the sampled requests' latencies are recorded.
      const auto* h = s.histogram("am.reply_latency_ns");
      ASSERT_NE(h, nullptr);
      EXPECT_GT(h->count, 0u);
      EXPECT_EQ(h->count, s.counter("trace.spans_closed"));
    }
    EXPECT_EQ(completed.load(), kPes * kEach);
    EXPECT_EQ(g_fillers.load(), kPes * kEach);
    EXPECT_EQ(replies_sent, replies_received);
    EXPECT_EQ(replies_received, kPes * kEach);
    EXPECT_GT(ack_records, 0u);
    EXPECT_LT(ack_records, replies_sent);
    if (route == RouteMode::k2Hop) {
      EXPECT_GT(relayed, 0u);
    } else {
      EXPECT_EQ(relayed, 0u);
    }
  }
}

}  // namespace
