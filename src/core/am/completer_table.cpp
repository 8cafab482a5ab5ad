#include "core/am/completer_table.hpp"

#include <bit>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace lamellar {

CompleterTable::~CompleterTable() {
  for (auto& block : blocks_) delete[] block.load(std::memory_order_relaxed);
}

CompleterTable::Slot& CompleterTable::slot_at(std::uint32_t slot) const {
  // Block b covers slots [64 (2^b - 1), 64 (2^(b+1) - 1)).
  const std::uint64_t q = slot / kFirstBlockSlots + 1;
  const auto b = static_cast<unsigned>(std::bit_width(q) - 1);
  const std::uint64_t first = kFirstBlockSlots * ((std::uint64_t{1} << b) - 1);
  return blocks_[b].load(std::memory_order_acquire)[slot - first];
}

request_id CompleterTable::arm(std::uint32_t slot, Completer completer) {
  Slot& s = slot_at(slot);
  // Skipping generation 0 keeps every rid non-zero and distinct from
  // kClaimed.
  if (++s.generation == 0) s.generation = 1;
  const request_id rid =
      (static_cast<std::uint64_t>(s.generation) << 32) | slot;
  s.completer = std::move(completer);
  s.state.store(rid, std::memory_order_release);
  return rid;
}

std::uint32_t CompleterTable::grow() {
  const std::uint32_t first = released_.load(std::memory_order_relaxed);
  const auto b = static_cast<unsigned>(
      std::bit_width(std::uint64_t{first} / kFirstBlockSlots + 1) - 1);
  if (b >= kMaxBlocks) throw Error("CompleterTable: out of request slots");
  blocks_[b].store(new Slot[std::size_t{kFirstBlockSlots} << b],
                   std::memory_order_release);
  released_.store(first + (kFirstBlockSlots << b), std::memory_order_release);
  return first;
}

request_id CompleterTable::insert(Completer completer) {
  std::lock_guard lock(insert_mu_);
  // The hand claims the first free slot at or after it.  Only this walk
  // arms slots, so every busy slot it passes was live when it began: a
  // full lap of busy slots means the table is full, and only then does it
  // grow, which keeps capacity within 2 x peak live + 64.
  const std::uint32_t n = released_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t slot = hand_;
    hand_ = slot + 1 == n ? 0 : slot + 1;
    // Acquire: the taker moved the completer out before storing kFree.
    if (slot_at(slot).state.load(std::memory_order_acquire) == kFree) {
      return arm(slot, std::move(completer));
    }
  }
  const std::uint32_t slot = grow();
  hand_ = slot + 1;
  return arm(slot, std::move(completer));
}

CompleterTable::Completer CompleterTable::take(request_id rid) {
  const auto slot = static_cast<std::uint32_t>(rid);
  if ((rid >> 32) != 0 && slot < released_.load(std::memory_order_acquire)) {
    Slot& s = slot_at(slot);
    std::uint64_t expected = rid;
    // Acquire: pairs with arm()'s release store of the completer.
    if (s.state.compare_exchange_strong(expected, kClaimed,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      // Move first, free second: the hand may re-arm the slot as soon as
      // it reads kFree.
      Completer completer = std::move(s.completer);
      s.state.store(kFree, std::memory_order_release);
      return completer;
    }
  }
  throw Error("AmEngine: reply for unknown request " + std::to_string(rid));
}

}  // namespace lamellar
