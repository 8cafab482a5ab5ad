// Regression tests for the concurrency bugs fixed in the sanitizer PR
// (ISSUE 3): the ThreadPool park-path lost wakeup, unbounded retired-array
// growth in the Chase-Lev deque, plus invariant coverage for OffsetHeap,
// SenseBarrier (mixed clocked / clock-less participants) and MpmcQueue.
// All tests are sanitizer-clean by design; run them under
// -DLAMELLAR_SANITIZE=thread and =address,undefined (see CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/scheduler/deque.hpp"
#include "core/scheduler/thread_pool.hpp"
#include "fabric/barrier.hpp"
#include "lamellae/heap.hpp"

namespace {

using namespace lamellar;
using namespace std::chrono_literals;

// ---- ThreadPool: lost-wakeup in the park path ------------------------------

// Pre-fix, the idle park was `wait_for` with *no predicate*: a spawn whose
// notify landed between a worker's last failed find_task() and its wait
// call was lost, and the task stalled for a full park timeout.  With the
// unclaimed_-count predicate, a queued task makes the wait return
// immediately no matter how the notify raced.  We make any regression
// unmissable by using a park timeout far larger than the asserted latency:
// a single lost wakeup turns into a multi-second stall and fails the bound.
TEST(ThreadPoolWakeup, SpawnWakesParkedWorkerImmediately) {
  ThreadPool pool(1, /*progress=*/{}, SchedulerObs{},
                  /*park_timeout=*/std::chrono::duration_cast<
                      std::chrono::microseconds>(10min));
  for (int trial = 0; trial < 100; ++trial) {
    // Give the worker time to run through its idle spins and park.
    if (trial % 10 == 0) std::this_thread::sleep_for(2ms);
    std::atomic<bool> done{false};
    const auto t0 = std::chrono::steady_clock::now();
    pool.spawn([&] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_LT(std::chrono::steady_clock::now() - t0, 10s)
          << "task stalled: park-path wakeup was lost (trial " << trial << ")";
      std::this_thread::yield();
    }
  }
  pool.shutdown();
}

TEST(ThreadPoolWakeup, SpawnBatchWakesParkedWorkers) {
  ThreadPool pool(2, /*progress=*/{}, SchedulerObs{},
                  /*park_timeout=*/std::chrono::duration_cast<
                      std::chrono::microseconds>(10min));
  for (int trial = 0; trial < 25; ++trial) {
    if (trial % 5 == 0) std::this_thread::sleep_for(2ms);
    std::atomic<int> done{0};
    std::vector<Task> batch;
    for (int i = 0; i < 8; ++i) {
      // release/acquire so the final increment happens-before the next
      // trial reusing this stack slot.
      batch.emplace_back([&] { done.fetch_add(1, std::memory_order_release); });
    }
    const auto t0 = std::chrono::steady_clock::now();
    pool.spawn_batch(std::move(batch));
    while (done.load(std::memory_order_acquire) != 8) {
      ASSERT_LT(std::chrono::steady_clock::now() - t0, 10s)
          << "batch stalled: park-path wakeup was lost (trial " << trial
          << ")";
      std::this_thread::yield();
    }
  }
  pool.shutdown();
}

// The park timeout exists so idle workers keep polling the progress hook
// (Lamellae inbox drain); the predicate must not turn the timed wait into
// an indefinite sleep.
TEST(ThreadPoolWakeup, IdleWorkerKeepsPollingProgress) {
  std::atomic<std::uint64_t> polls{0};
  ThreadPool pool(
      1, [&] { polls.fetch_add(1, std::memory_order_relaxed); },
      SchedulerObs{}, /*park_timeout=*/1000us);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (polls.load(std::memory_order_relaxed) < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(polls.load(std::memory_order_relaxed), 10u)
      << "idle worker stopped polling the progress hook";
  pool.shutdown();
}

// ---- WorkStealingDeque: retired ring-array reclamation ---------------------

// Pre-fix, every grow() retired the old ring array until destruction:
// a long-lived worker with deep spikes leaked memory proportional to its
// peak depth for the rest of the run.  Retired arrays must now be freed at
// the owner's empty-deque quiesce point.
TEST(WorkStealingDeque, RetiredArraysReclaimedWhenEmpty) {
  WorkStealingDeque<int> dq(/*initial_capacity=*/4);
  for (int i = 0; i < 1000; ++i) dq.push(new int(i));
  EXPECT_GT(dq.retired_count(), 0u) << "growth did not retire any array";
  int* p = nullptr;
  while ((p = dq.pop()) != nullptr) delete p;
  // The empty pop above is the quiesce point: with no steals in flight,
  // every retired array must be gone.
  EXPECT_EQ(dq.retired_count(), 0u);
}

// Thieves racing grow() and reclamation: every item is claimed exactly once
// (conservation), and no thief touches a freed ring array (ASan/TSan verify
// the latter; the exactly-once bookkeeping verifies the algorithm).
TEST(WorkStealingDeque, StealDuringGrowConservesItems) {
  constexpr int kItems = 20000;
  WorkStealingDeque<int> dq(/*initial_capacity=*/8);
  std::vector<std::atomic<int>> claimed(kItems);
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  std::atomic<bool> stop{false};
  std::atomic<int> total{0};

  auto claim = [&](int* p) {
    claimed[*p].fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(1, std::memory_order_relaxed);
    delete p;
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < 2; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (int* p = dq.steal()) claim(p);
      }
    });
  }

  auto rng = Xoshiro256(7);
  int produced = 0;
  while (produced < kItems) {
    // Bursty pushes force repeated grows while thieves are mid-steal.
    const int burst = 1 + static_cast<int>(rng.uniform(100));
    for (int i = 0; i < burst && produced < kItems; ++i) {
      dq.push(new int(produced++));
    }
    const int pops = static_cast<int>(rng.uniform(40));
    for (int i = 0; i < pops; ++i) {
      if (int* p = dq.pop()) claim(p);
    }
  }
  while (total.load(std::memory_order_relaxed) < kItems) {
    if (int* p = dq.pop()) claim(p);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(claimed[i].load(std::memory_order_relaxed), 1)
        << "item " << i << " claimed wrong number of times";
  }
  // Thieves are gone and the deque is empty: the next owner pop must
  // reclaim everything retired by the grows above.
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.retired_count(), 0u);
}

// ---- OffsetHeap ------------------------------------------------------------

TEST(OffsetHeap, CoalescesWithBothNeighbors) {
  OffsetHeap heap(0, 4096);
  const std::size_t a = heap.alloc(96, 16);
  const std::size_t b = heap.alloc(96, 16);
  const std::size_t c = heap.alloc(96, 16);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 96u);
  EXPECT_EQ(c, 192u);
  heap.free(a);
  heap.free(c);                        // c coalesces with the tail block
  EXPECT_EQ(heap.debug_validate(), 2u);  // [a] and [c..end]
  heap.free(b);                        // b must merge with *both* neighbors
  EXPECT_EQ(heap.debug_validate(), 1u);
  EXPECT_EQ(heap.bytes_used(), 0u);
  EXPECT_EQ(heap.bytes_free(), 4096u);
}

TEST(OffsetHeap, AlignmentPaddingIsTrackedAndFreed) {
  OffsetHeap heap(0, 1024);
  const std::size_t a = heap.alloc(10, 16);
  const std::size_t b = heap.alloc(8, 64);  // free space starts at 10 -> pad
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_EQ(heap.debug_validate(), 1u);  // tail block only
  heap.free(b);  // must release the padding too, and coalesce
  heap.free(a);
  EXPECT_EQ(heap.debug_validate(), 1u);
  EXPECT_EQ(heap.bytes_used(), 0u);
}

TEST(OffsetHeap, FragmentedOomReportsFreeBytes) {
  OffsetHeap heap(0, 1024);
  const std::size_t a = heap.alloc(256, 16);
  const std::size_t b = heap.alloc(256, 16);
  const std::size_t c = heap.alloc(256, 16);
  const std::size_t d = heap.alloc(256, 16);
  (void)a;
  (void)c;
  heap.free(b);
  heap.free(d);
  // 512 bytes free but no contiguous 512-byte run.
  try {
    heap.alloc(512, 16);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("512"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fragmented"), std::string::npos) << msg;
  }
  EXPECT_EQ(heap.debug_validate(), 2u);
}

TEST(OffsetHeap, FreeOfUnknownOffsetThrows) {
  OffsetHeap heap(0, 1024);
  EXPECT_THROW(heap.free(64), Error);
  const std::size_t a = heap.alloc(32, 16);
  heap.free(a);
  EXPECT_THROW(heap.free(a), Error);  // double free
}

TEST(OffsetHeap, ConcurrentRandomizedAllocFreeKeepsInvariants) {
  OffsetHeap heap(0, std::size_t{1} << 20);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::atomic<bool> stop{false};

  // A validator thread hammers debug_validate() while mutators run: every
  // invariant must hold at every lock-grant, not just at the end.
  std::thread validator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_NO_THROW(heap.debug_validate());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> mutators;
  std::vector<std::vector<std::size_t>> leftovers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&heap, &leftovers, t] {
      auto rng = pe_rng(/*seed=*/99, static_cast<std::size_t>(t));
      std::vector<std::size_t>& mine = leftovers[t];
      for (int op = 0; op < kOps; ++op) {
        if (mine.empty() || rng.uniform(3) != 0) {
          try {
            const std::size_t bytes = 8 + rng.uniform(512);
            const std::size_t align = std::size_t{1} << (3 + rng.uniform(4));
            mine.push_back(heap.alloc(bytes, align));
          } catch (const OutOfMemoryError&) {
            // Fine under contention; freed below.
          }
        } else {
          const std::size_t idx = rng.uniform(mine.size());
          heap.free(mine[idx]);
          mine[idx] = mine.back();
          mine.pop_back();
        }
      }
    });
  }
  for (auto& t : mutators) t.join();
  stop.store(true, std::memory_order_release);
  validator.join();

  for (auto& mine : leftovers) {
    for (std::size_t off : mine) heap.free(off);
  }
  EXPECT_EQ(heap.bytes_used(), 0u);
  EXPECT_EQ(heap.debug_validate(), 1u);  // fully coalesced again
}

// ---- SenseBarrier: mixed clocked / clock-less participants -----------------

TEST(SenseBarrier, MixedClockedAndClocklessRounds) {
  constexpr std::size_t kParticipants = 4;
  constexpr std::size_t kClocked = 2;
  constexpr int kRounds = 200;
  constexpr double kCostNs = 5.0;
  SenseBarrier barrier(kParticipants);
  std::vector<VirtualClock> clocks(kClocked);
  std::atomic<std::uint64_t> arrivals{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kParticipants; ++t) {
    threads.emplace_back([&, t] {
      auto rng = pe_rng(/*seed=*/123, t);
      VirtualClock* clk = t < kClocked ? &clocks[t] : nullptr;
      for (int r = 0; r < kRounds; ++r) {
        if (clk != nullptr) clk->advance(static_cast<double>(rng.uniform(50)));
        arrivals.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait(t, clk, kCostNs);
        // Release implies every participant of this round arrived.
        ASSERT_GE(arrivals.load(std::memory_order_relaxed),
                  kParticipants * static_cast<std::uint64_t>(r + 1));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(arrivals.load(), kParticipants * static_cast<std::uint64_t>(kRounds));
  // All clocked participants end on the identical release time.
  EXPECT_EQ(clocks[0].now(), clocks[1].now());
  // kRounds releases, each adding at least the modeled cost.
  EXPECT_GE(clocks[0].now(),
            static_cast<sim_nanos>(kCostNs) * static_cast<sim_nanos>(kRounds));
}

// ---- MpmcQueue -------------------------------------------------------------

TEST(MpmcQueue, ConcurrentPushPopConservesItems) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 20000;
  MpmcQueue<int> q;
  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped_count.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (auto v = q.try_pop()) {
          popped_sum.fetch_add(*v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n - 1) / 2);
  EXPECT_TRUE(q.empty());
}

// Empty trivially-copyable vectors round-trip without invoking memcpy on a
// null data() pointer (UBSan flagged the unguarded zero-length copy; found
// by the sanitizer CI on AM payloads that happened to be empty).
TEST(Serialize, EmptyVectorPayloadRoundTrips) {
  const std::vector<std::uint64_t> empty;
  const std::vector<std::uint64_t> full = {1, 2, 3};
  ByteBuffer buf;
  Serializer ser(buf);
  ser.put(empty);
  ser.put(full);
  ser.put(empty);
  Deserializer des(buf);
  EXPECT_TRUE(des.take<std::vector<std::uint64_t>>().empty());
  EXPECT_EQ(des.take<std::vector<std::uint64_t>>(), full);
  EXPECT_TRUE(des.take<std::vector<std::uint64_t>>().empty());
}

TEST(MpmcQueue, DrainIntoMovesEverythingInOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.drain_into(out), 10u);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

}  // namespace
