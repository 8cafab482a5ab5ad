// The origin-side completer table (DESIGN.md §7): the request id is the
// slot handle.  These tests pin that each completer runs once whatever the
// take order, that bad ids throw without damaging the table, that capacity
// follows the peak live count rather than the traffic, and that concurrent
// senders and takers hand every completer over exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/am/completer_table.hpp"

namespace {

using namespace lamellar;

void run(CompleterTable::Completer completer) {
  Deserializer unit{std::span<const std::byte>{}};
  completer(unit);
}

TEST(CompleterTable, ShuffledTakesRunEachCompleterOnce) {
  CompleterTable table;
  constexpr std::size_t kN = 1000;
  std::vector<int> runs(kN, 0);
  std::vector<request_id> rids;
  for (std::size_t i = 0; i < kN; ++i) {
    rids.push_back(table.insert([&runs, i](Deserializer&) { ++runs[i]; }));
  }
  EXPECT_EQ(std::set<request_id>(rids.begin(), rids.end()).size(), kN);
  EXPECT_EQ(std::count(rids.begin(), rids.end(), request_id{0}), 0);
  std::mt19937_64 rng(7);
  std::shuffle(rids.begin(), rids.end(), rng);
  for (request_id rid : rids) run(table.take(rid));
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1),
            static_cast<std::ptrdiff_t>(kN));
}

TEST(CompleterTable, BadIdsThrowAndTableStaysUsable) {
  CompleterTable table;
  int ran = 0;
  const request_id armed = table.insert([&ran](Deserializer&) { ++ran; });
  const request_id taken = table.insert([&ran](Deserializer&) { ++ran; });
  run(table.take(taken));
  ASSERT_EQ(ran, 1);

  const request_id beyond = (armed & ~0xffffffffULL) | table.capacity();
  const request_id wrong_gen = armed + (1ULL << 32);
  for (request_id bad : {request_id{0}, request_id{1}, beyond, wrong_gen,
                         taken}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(table.take(bad), Error);
  }

  // The armed slot survived the wrong-generation attempt, and a slot that
  // was freed takes new completers under a new id.
  run(table.take(armed));
  EXPECT_EQ(ran, 2);
  EXPECT_THROW(table.take(armed), Error);
  const request_id fresh = table.insert([&ran](Deserializer&) { ++ran; });
  EXPECT_NE(fresh, armed);
  EXPECT_NE(fresh, taken);
  run(table.take(fresh));
  EXPECT_EQ(ran, 3);
}

TEST(CompleterTable, StaleIdOfReusedSlotThrows) {
  CompleterTable table;
  // One live request at a time: the hand laps the first block twice, so
  // every slot, the first one's included, is re-armed under a new id.
  const request_id first = table.insert([](Deserializer&) {});
  run(table.take(first));
  for (int i = 0; i < 2 * 64; ++i) {
    run(table.take(table.insert([](Deserializer&) {})));
  }
  ASSERT_EQ(table.capacity(), 64u);
  int ran = 0;
  std::vector<request_id> live;
  for (int i = 0; i < 64; ++i) {
    live.push_back(table.insert([&ran](Deserializer&) { ++ran; }));
  }
  EXPECT_EQ(table.capacity(), 64u);
  EXPECT_THROW(table.take(first), Error);
  for (request_id rid : live) run(table.take(rid));
  EXPECT_EQ(ran, 64);
}

TEST(CompleterTable, CapacityStaysWithinTwicePeakLive) {
  enum class Order { kOldest, kNewest, kRandom };
  for (Order order : {Order::kOldest, Order::kNewest, Order::kRandom}) {
    SCOPED_TRACE(static_cast<int>(order));
    CompleterTable table;
    std::uint64_t sum = 0;
    std::uint64_t expected = 0;
    std::uint64_t next_value = 1;
    auto insert = [&] {
      const std::uint64_t v = next_value++;
      expected += v;
      return table.insert([&sum, v](Deserializer&) { sum += v; });
    };
    const request_id held = insert();
    std::deque<request_id> live;
    std::mt19937_64 rng(11);
    std::size_t peak = 1;
    for (std::size_t cycle = 0; cycle < 100'000; ++cycle) {
      // The live count wanders in [0, 1000]; the order picks the victim.
      const bool add = live.empty() || (live.size() < 1000 &&
                                        (cycle < 1000 || rng() % 2 == 0));
      if (add) {
        live.push_back(insert());
      } else {
        std::size_t at = 0;
        if (order == Order::kNewest) at = live.size() - 1;
        if (order == Order::kRandom) at = rng() % live.size();
        run(table.take(live[at]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      peak = std::max(peak, live.size() + 1);
      ASSERT_LE(table.capacity(), 2 * peak + 64);
    }
    for (request_id rid : live) run(table.take(rid));
    run(table.take(held));
    EXPECT_EQ(sum, expected);
  }
}

TEST(CompleterTable, TakeIsOrderedBeforeTheSlotIsReused) {
  // One sender and one taker, with nothing but the table's state words to
  // order a take before the next arm of its slot: the taker reports
  // progress through a relaxed counter, which gives the thread sanitizer no
  // happens-before edge.  A small window keeps the table at one block, so
  // the hand re-arms every slot each lap.  A take that freed the slot
  // before moving the completer out would race with that re-arm, and the
  // thread sanitizer reports it even when the timing never collides.
  constexpr std::uint64_t kN = 200'000;
  constexpr std::uint64_t kWindow = 32;
  CompleterTable table;
  std::array<std::atomic<request_id>, 2 * kWindow> ring{};
  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> taken{0};
  std::uint64_t sum = 0;  // written by the taker only
  std::thread taker([&] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      while (published.load(std::memory_order_acquire) == i) {
        std::this_thread::yield();
      }
      run(table.take(ring[i % ring.size()].load(std::memory_order_relaxed)));
      taken.store(i + 1, std::memory_order_relaxed);
    }
  });
  for (std::uint64_t i = 0; i < kN; ++i) {
    while (i - taken.load(std::memory_order_relaxed) >= kWindow) {
      std::this_thread::yield();
    }
    ring[i % ring.size()].store(
        table.insert([&sum, i](Deserializer&) { sum += i; }),
        std::memory_order_relaxed);
    published.store(i + 1, std::memory_order_release);
  }
  taker.join();
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
  EXPECT_EQ(table.capacity(), 64u);
}

TEST(CompleterTable, ConcurrentSendersAndTakersConserveChecksum) {
  constexpr std::size_t kSenders = 2;
  constexpr std::size_t kTakers = 2;
  constexpr std::uint64_t kPerSender = 100'000;
  constexpr std::size_t kMaxQueued = 4096;
  CompleterTable table;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> completions{0};
  // One id stays armed throughout, so the hands keep passing a busy slot.
  const request_id held = table.insert([](Deserializer&) {});

  std::mutex mu;
  std::deque<request_id> handoff;
  std::size_t senders_left = kSenders;

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        const std::uint64_t v = s * kPerSender + i + 1;
        const request_id rid = table.insert([&sum, &completions, v](
                                                Deserializer&) {
          sum.fetch_add(v, std::memory_order_relaxed);
          completions.fetch_add(1, std::memory_order_relaxed);
        });
        for (;;) {
          {
            std::lock_guard lock(mu);
            if (handoff.size() < kMaxQueued) {
              handoff.push_back(rid);
              break;
            }
          }
          std::this_thread::yield();
        }
      }
      std::lock_guard lock(mu);
      --senders_left;
    });
  }
  for (std::size_t t = 0; t < kTakers; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        request_id rid = 0;
        {
          std::lock_guard lock(mu);
          if (handoff.empty()) {
            if (senders_left == 0) return;
          } else {
            rid = handoff.front();
            handoff.pop_front();
          }
        }
        if (rid == 0) {
          std::this_thread::yield();
          continue;
        }
        run(table.take(rid));
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t n = kSenders * kPerSender;
  EXPECT_EQ(completions.load(), n);
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  run(table.take(held));
  EXPECT_THROW(table.take(held), Error);
  // Live at any time: the queue, one id per sender not yet queued, one
  // claimed slot per taker, and the held one.
  EXPECT_LE(table.capacity(), 2 * (kMaxQueued + kSenders + kTakers + 1) + 64);
}

}  // namespace
