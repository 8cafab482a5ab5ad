// A per-PE free list of ByteBuffers (hot-path memory discipline).
//
// Swapped-out aggregation lane buffers and drained inbox buffers are
// returned here instead of being destroyed, so steady-state AM traffic
// performs no std::vector growth: every acquire() after warm-up hands back
// a previously grown allocation.  The pool is bounded by buffer count so an
// imbalanced phase (e.g. all-to-one) cannot pin unbounded memory.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"

namespace lamellar {

/// Retention bound of one PE's lane-buffer pool in a world of `num_pes`.
inline std::size_t lane_pool_bound(std::size_t num_pes) {
  return std::max<std::size_t>(16, 2 * num_pes);
}

class BufferPool {
 public:
  /// `max_buffers` bounds how many recycled buffers are retained; releases
  /// beyond the bound free their storage normally.
  explicit BufferPool(std::size_t max_buffers = 64)
      : max_buffers_(max_buffers) {}

  /// Pop a recycled buffer (reset, capacity intact), or a fresh one with
  /// `reserve_hint` bytes reserved on pool miss.  Returns true in `*hit`
  /// (when non-null) iff the buffer came from the free list.
  ByteBuffer acquire(std::size_t reserve_hint, bool* hit = nullptr) {
    {
      std::lock_guard lock(mu_);
      if (!free_.empty()) {
        ByteBuffer buf = std::move(free_.back());
        free_.pop_back();
        if (hit != nullptr) *hit = true;
        return buf;
      }
    }
    if (hit != nullptr) *hit = false;
    return ByteBuffer{reserve_hint};
  }

  /// Return a drained buffer for reuse.  Returns false when the pool is
  /// full and the buffer was dropped instead.
  bool release(ByteBuffer buf) {
    buf.reset();
    std::lock_guard lock(mu_);
    if (free_.size() >= max_buffers_) return false;
    free_.push_back(std::move(buf));
    return true;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return free_.size();
  }

  /// Retention bound: size() never exceeds this (pool-accounting invariant
  /// checked by the stress harness).
  [[nodiscard]] std::size_t max_buffers() const { return max_buffers_; }

 private:
  std::size_t max_buffers_;
  mutable std::mutex mu_;
  std::vector<ByteBuffer> free_;
};

}  // namespace lamellar
