// The collective rendezvous: the one rule by which the PEs of a collective
// agree on a value they all need (a team's shared state, a symmetric
// allocation's offset) and on when to release it (DESIGN.md §13).
//
// A process runs `local_pes` of the world's `world_pes` PEs.  One that runs
// them all meets a collective's participants here: under each key the first
// arrival makes the value and later arrivals pick it up, and for a release
// the last departure runs it.  One that runs fewer holds a replica instead:
// each process makes the value itself from the same SPMD sequence of calls,
// with no communication.  That is sound only when every process takes
// part, so such a process accepts whole-world collectives alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/error.hpp"

namespace lamellar {

template <typename V>
class Rendezvous {
 public:
  Rendezvous(std::size_t world_pes, std::size_t local_pes)
      : world_pes_(world_pes), local_pes_(local_pes) {}

  /// How many of the world's PEs this process runs.
  [[nodiscard]] std::size_t local_pes() const { return local_pes_; }

  /// Arrive at collective `key` of `participants` PEs: the first local
  /// arrival returns make(), the later ones the same value.
  template <typename Make>
  V arrive(std::uint64_t key, std::size_t participants, const char* what,
           Make&& make) {
    const std::size_t local = local_arrivals(participants, what);
    std::lock_guard lock(mu_);
    auto it = arrivals_.find(key);
    if (it == arrivals_.end()) {
      V value = make();
      if (local > 1) arrivals_.emplace(key, Pending{value, local - 1});
      return value;
    }
    V value = it->second.value;
    if (--it->second.remaining == 0) arrivals_.erase(it);
    return value;
  }

  /// Depart from collective `key` of `participants` PEs: the last local
  /// departure runs release().
  template <typename Release>
  void depart(std::uint64_t key, std::size_t participants, const char* what,
              Release&& release) {
    const std::size_t local = local_arrivals(participants, what);
    std::lock_guard lock(mu_);
    if (local > 1) {
      auto it = departures_.try_emplace(key, local).first;
      if (--it->second != 0) return;
      departures_.erase(it);
    }
    release();
  }

 private:
  struct Pending {
    V value;
    std::size_t remaining = 0;
  };

  /// How many of the collective's calls this process makes.  Throws Error,
  /// before the call counts, when this process holds replicas and the
  /// collective is not whole-world; `what` names the call.
  [[nodiscard]] std::size_t local_arrivals(std::size_t participants,
                                           const char* what) const {
    if (local_pes_ == world_pes_) return participants;
    if (participants != world_pes_) {
      throw Error(std::string(what) + ": " + std::to_string(participants) +
                  " of " + std::to_string(world_pes_) +
                  " PEs take part, but this process runs " +
                  std::to_string(local_pes_) +
                  " and holds replicas, which agree only on whole-world "
                  "collectives (sub-world teams are unsupported under "
                  "LAMELLAR_BACKEND=mmap)");
    }
    return local_pes_;
  }

  const std::size_t world_pes_;
  const std::size_t local_pes_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Pending> arrivals_;
  std::unordered_map<std::uint64_t, std::size_t> departures_;
};

}  // namespace lamellar
