// Per-PE virtual clocks.
//
// Each PE accumulates virtual nanoseconds as the performance model charges
// its fabric operations.  Clocks are monotone; collectives (barriers)
// synchronize participants to the maximum.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/types.hpp"

namespace lamellar {

class VirtualClock {
 public:
  [[nodiscard]] sim_nanos now() const {
    return ns_.load(std::memory_order_relaxed);
  }

  void advance(double ns) {
    if (ns <= 0.0) return;
    ns_.fetch_add(static_cast<sim_nanos>(ns), std::memory_order_relaxed);
  }

  /// Move the clock forward to at least `t` (used at synchronization points).
  void raise_to(sim_nanos t) {
    sim_nanos cur = ns_.load(std::memory_order_relaxed);
    while (cur < t &&
           !ns_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<sim_nanos> ns_{0};
};

}  // namespace lamellar
