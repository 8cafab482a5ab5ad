#include "lamellae/lamellae.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"

namespace lamellar {

// atomic_ref on a mapped peer word IS the remote atomic: x86/aarch64
// atomics are address-free, so the same physical word reached through
// different per-process mappings still serializes correctly.
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free,
              "cross-process remote atomics need lock-free atomic_ref");

std::byte* Lamellae::checked(pe_id pe, std::size_t offset,
                             std::size_t len) const {
  check_pe("RDMA", pe, num_pes());
  const std::span<std::byte> a = arena(pe);
  // Written so that no sum can wrap past the arena's end.
  if (len > a.size() || offset > a.size() - len) {
    throw BoundsError("RDMA: [" + std::to_string(offset) + ", +" +
                      std::to_string(len) + ") outside PE " +
                      std::to_string(pe) + "'s " + std::to_string(a.size()) +
                      "-byte arena");
  }
  return a.data() + offset;
}

void Lamellae::put(pe_id dst, std::size_t dst_offset,
                   std::span<const std::byte> data) {
  std::memcpy(checked(dst, dst_offset, data.size()), data.data(),
              data.size());
  charge(access_cost_ns(dst, Access::kTransfer, data.size()));
  fabric_counters_.puts->inc();
  fabric_counters_.bytes_put->inc(data.size());
}

void Lamellae::read(pe_id src, std::size_t remote_offset,
                    std::span<std::byte> out, Access kind) {
  std::memcpy(out.data(), checked(src, remote_offset, out.size()),
              out.size());
  charge(access_cost_ns(src, kind, out.size()));
  fabric_counters_.gets->inc();
  fabric_counters_.bytes_get->inc(out.size());
}

void Lamellae::get(pe_id src, std::size_t remote_offset,
                   std::span<std::byte> out) {
  read(src, remote_offset, out, Access::kTransfer);
}

void Lamellae::get_pipelined(pe_id src, std::size_t remote_offset,
                             std::span<std::byte> out) {
  read(src, remote_offset, out, Access::kPipelined);
}

std::atomic_ref<std::uint64_t> Lamellae::atomic_word(pe_id pe,
                                                     std::size_t offset) {
  std::byte* word = checked(pe, offset, sizeof(std::uint64_t));
  if (offset % sizeof(std::uint64_t) != 0) {
    throw BoundsError("RDMA: atomic offset " + std::to_string(offset) +
                      " is not 8-byte aligned");
  }
  charge(access_cost_ns(pe, Access::kAtomic, sizeof(std::uint64_t)));
  fabric_counters_.atomics->inc();
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(word));
}

std::uint64_t Lamellae::atomic_fetch_add_u64(pe_id dst, std::size_t offset,
                                             std::uint64_t v) {
  return atomic_word(dst, offset).fetch_add(v, std::memory_order_acq_rel);
}

std::uint64_t Lamellae::atomic_load_u64(pe_id dst, std::size_t offset) {
  return atomic_word(dst, offset).load(std::memory_order_acquire);
}

void Lamellae::atomic_store_u64(pe_id dst, std::size_t offset,
                                std::uint64_t v) {
  atomic_word(dst, offset).store(v, std::memory_order_release);
}

bool Lamellae::atomic_cas_u64(pe_id dst, std::size_t offset,
                              std::uint64_t& expected, std::uint64_t desired) {
  return atomic_word(dst, offset)
      .compare_exchange_strong(expected, desired, std::memory_order_acq_rel,
                               std::memory_order_acquire);
}

}  // namespace lamellar
