// The origin-side table of reply completers (paper Sec. III-C: every remote
// AM returns a future, so the origin must find the waiting completion when
// the reply lands).
//
// The request id *is* the slot handle: `rid = (generation << 32) | slot`.
// Senders claim a slot under a lock that only senders take; the thread that
// receives the reply releases it with one CAS on the slot itself.  Per
// request, the only memory both sides write is that slot, and the sender's
// clock hand walks the slots in order (DESIGN.md §7).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace lamellar {

class CompleterTable {
 public:
  using Completer = UniqueFunction<void(Deserializer&)>;

  CompleterTable() = default;
  ~CompleterTable();

  CompleterTable(const CompleterTable&) = delete;
  CompleterTable& operator=(const CompleterTable&) = delete;

  /// Park `completer` in a free slot and return its request id (never 0).
  /// Callers are the sending threads; they serialize on `insert_mu_`.
  request_id insert(Completer completer);

  /// Move the completer of `rid` out and free its slot.  Any thread, no
  /// lock.  Throws Error for a zero, unknown, stale or already-taken id;
  /// the table stays usable.
  Completer take(request_id rid);

  /// Slots published so far (the table never shrinks).
  [[nodiscard]] std::size_t capacity() const {
    return released_.load(std::memory_order_acquire);
  }

 private:
  // State word values besides an armed slot's rid.  Generations start at 1,
  // so every rid is at least 2^32 and differs from both.
  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kClaimed = 1;

  // Block b holds kFirstBlockSlots << b slots; kMaxBlocks blocks keep every
  // slot index below 2^32.
  static constexpr std::uint32_t kFirstBlockSlots = 64;
  static constexpr unsigned kMaxBlocks = 26;

  struct Slot {
    std::atomic<std::uint64_t> state{kFree};
    std::uint32_t generation = 0;  // sender-only, under insert_mu_
    Completer completer;
  };

  Slot& slot_at(std::uint32_t slot) const;
  request_id arm(std::uint32_t slot, Completer completer);

  /// Publish the next block and return the index of its first slot.
  std::uint32_t grow();

  /// Blocks never move and are freed only with the table, so a stale or
  /// forged rid that passes the bounds check touches live memory.
  std::array<std::atomic<Slot*>, kMaxBlocks> blocks_{};
  std::atomic<std::uint32_t> released_{0};

  // Sender side, on its own line so takers' reads of the block table do not
  // miss on every insert: the lock and the clock hand it guards.
  alignas(kCacheLine) std::mutex insert_mu_;
  std::uint32_t hand_ = 0;
};

}  // namespace lamellar
