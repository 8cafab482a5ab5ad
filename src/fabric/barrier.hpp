// Sense-reversing tree barrier for SPMD participant threads, with
// virtual-time synchronization: on release, every participant's clock is
// raised to the maximum arrival time plus the modeled barrier cost.
//
// Participants combine in fixed groups of kFanIn at the leaves; the last
// arrival of each group carries the group's max arrival time one level up,
// so a P-participant barrier costs O(log P) lock hand-offs on the critical
// path instead of P serialized acquisitions of one global mutex — the
// difference between usable and unusable at the paper-scale PE counts
// (DESIGN.md §12).
//
// Concurrency invariants (audited under TSan with mixed clocked/clock-less
// participants; see tests/test_concurrency_regressions.cpp):
//  * Every node's fields are guarded by its own mutex; participants publish
//    state to each other exclusively through those mutexes.
//  * Membership of every node is FIXED across rounds: participant `who`
//    always arrives at leaf `who / kFanIn`, and level k+1 receives exactly
//    one arrival per child node per round (the child's releaser).  A member
//    cannot re-arrive for round g+1 until it returned from round g — waiters
//    return only after the releaser bumps the node generation, and the
//    releaser returns only after its recursive parent arrival completed — so
//    round g+1 arrivals can never be counted into round g, and release_time
//    cannot be overwritten before every round-g waiter has read it.  (An
//    anonymous free-running scheme does NOT have this property: arrivals of
//    round g+1 could fill a node whose round-g waiters haven't woken.)
//  * Mixed clocked/clock-less participants: clock-less arrivals contribute
//    arrival time 0, which never raises a node's max (sim_nanos is
//    non-negative), so an all-clock-less round releases at cost_ns alone.
//    Each node's max_arrival is reset by its releaser before any member can
//    arrive for the next round.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fabric/virtual_clock.hpp"

namespace lamellar {

class SenseBarrier {
 public:
  /// Combining-tree fan-in.  8 keeps the tree two levels deep up to 64
  /// participants and four deep at 4096.
  static constexpr std::size_t kFanIn = 8;

  explicit SenseBarrier(std::size_t participants)
      : participants_(participants == 0 ? 1 : participants) {
    // Build levels bottom-up: level 0 groups participants, each further
    // level groups the nodes below it, until one root remains.
    std::size_t width = participants_;
    for (;;) {
      level_base_.push_back(nodes_.size());
      const std::size_t count = (width + kFanIn - 1) / kFanIn;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t lo = i * kFanIn;
        nodes_.emplace_back(std::min(kFanIn, width - lo));
      }
      if (count == 1) break;
      width = count;
    }
  }

  /// Block until all participants arrive.  `who` is this participant's
  /// stable identity in [0, participants) — world PE id or team rank — and
  /// determines its leaf group.  `clock` may be null (no virtual time
  /// accounting).  `cost_ns` is the modeled latency of the barrier.
  void arrive_and_wait(std::size_t who, VirtualClock* clock = nullptr,
                       double cost_ns = 0.0) {
    if (who >= participants_) {
      throw Error("SenseBarrier: participant id out of range");
    }
    const sim_nanos arrival = clock != nullptr ? clock->now() : 0;
    const sim_nanos release =
        arrive_node(0, who / kFanIn, arrival, cost_ns);
    if (clock != nullptr) clock->raise_to(release);
  }

  [[nodiscard]] std::size_t participants() const { return participants_; }

 private:
  struct Node {
    explicit Node(std::size_t expected_in) : expected(expected_in) {}
    std::mutex mu;
    std::condition_variable cv;
    const std::size_t expected;
    std::size_t arrived = 0;
    std::size_t generation = 0;
    sim_nanos max_arrival = 0;
    sim_nanos release_time = 0;
  };

  Node& node_at(std::size_t level, std::size_t idx) {
    return nodes_[level_base_[level] + idx];
  }

  /// Arrive at one node with the (group-)max arrival time gathered below.
  /// The last arrival resets the node, carries the max upward (or computes
  /// the release at the root), then publishes the release time and wakes
  /// the node's waiters.  Returns the barrier's release time.
  sim_nanos arrive_node(std::size_t level, std::size_t idx, sim_nanos arrival,
                        double cost_ns) {
    Node& node = node_at(level, idx);
    std::unique_lock lock(node.mu);
    const std::size_t gen = node.generation;
    if (arrival > node.max_arrival) node.max_arrival = arrival;
    if (++node.arrived < node.expected) {
      node.cv.wait(lock, [&] { return node.generation != gen; });
      return node.release_time;
    }
    const sim_nanos group_max = node.max_arrival;
    node.arrived = 0;
    node.max_arrival = 0;
    sim_nanos release;
    if (level + 1 == level_base_.size()) {
      release = group_max + static_cast<sim_nanos>(cost_ns);
    } else {
      // Recurse to the parent without holding this node's lock: the node is
      // quiescent (all members counted, none can re-arrive until the
      // generation bump below).
      lock.unlock();
      release = arrive_node(level + 1, idx / kFanIn, group_max, cost_ns);
      lock.lock();
    }
    node.release_time = release;
    ++node.generation;
    node.cv.notify_all();
    return release;
  }

  const std::size_t participants_;
  /// All tree nodes, levels concatenated bottom-up; level_base_[k] is the
  /// index of level k's first node.  deque: nodes hold mutexes (immovable).
  std::deque<Node> nodes_;
  std::vector<std::size_t> level_base_;
};

}  // namespace lamellar
