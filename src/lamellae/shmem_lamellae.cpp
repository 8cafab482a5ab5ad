#include "lamellae/shmem_lamellae.hpp"

namespace lamellar {

ShmemLamellaeGroup::ShmemLamellaeGroup(std::size_t num_pes, Layout layout,
                                       PerfParams params, PeMapping mapping,
                                       bool virtual_time, bool metrics_enabled)
    : layout_(layout),
      fabric_(num_pes, layout.total(), params, mapping, virtual_time,
              metrics_enabled),
      symmetric_heap_(kReservedArenaBytes, layout.symmetric_bytes),
      alloc_seq_(num_pes) {
  const std::size_t onesided_base =
      kReservedArenaBytes + layout.symmetric_bytes;
  onesided_heaps_.reserve(num_pes);
  buffer_pools_.reserve(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    onesided_heaps_.push_back(
        std::make_unique<OffsetHeap>(onesided_base, layout.onesided_bytes));
    buffer_pools_.push_back(
        std::make_unique<BufferPool>(lane_pool_bound(num_pes)));
  }
}

std::unique_ptr<ShmemLamellae> ShmemLamellaeGroup::endpoint(pe_id pe) {
  return std::make_unique<ShmemLamellae>(*this, pe);
}

void ShmemLamellaeGroup::collective_free(std::size_t offset,
                                         std::size_t participants) {
  CollectiveShard& shard = free_shard(offset);
  std::unique_lock lock(shard.mu);
  auto [it, inserted] = shard.pending_frees.try_emplace(offset);
  it->second.participants = participants;
  if (++it->second.calls == participants) {
    shard.pending_frees.erase(it);
    symmetric_heap_.free(offset);
  }
}

std::size_t ShmemLamellae::alloc_symmetric(std::size_t bytes,
                                           std::size_t align) {
  // World-wide collectives use a per-PE sequence number in a reserved key
  // space; team collectives pass their own keys via the _group variant.
  // The sequence must match across PEs, so the key carries no PE bits.
  const std::uint64_t key =
      (1ULL << 63) |
      group_.alloc_seq_[pe_].fetch_add(1, std::memory_order_relaxed);
  return alloc_symmetric_group(key, num_pes(), bytes, align);
}

std::size_t ShmemLamellae::alloc_symmetric_group(std::uint64_t key,
                                                 std::size_t participants,
                                                 std::size_t bytes,
                                                 std::size_t align) {
  ShmemLamellaeGroup::CollectiveShard& shard = group_.alloc_shard(key);
  std::unique_lock lock(shard.mu);
  auto it = shard.pending_allocs.find(key);
  if (it == shard.pending_allocs.end()) {
    const std::size_t offset = group_.symmetric_heap_.alloc(bytes, align);
    if (participants > 1) {
      shard.pending_allocs.emplace(
          key, ShmemLamellaeGroup::PendingAlloc{offset, participants - 1});
    }
    return offset;
  }
  const std::size_t offset = it->second.offset;
  if (--it->second.remaining == 0) shard.pending_allocs.erase(it);
  return offset;
}

void ShmemLamellae::free_symmetric(std::size_t offset) {
  group_.collective_free(offset, num_pes());
}

void ShmemLamellae::free_symmetric_group(std::size_t offset,
                                         std::size_t participants) {
  group_.collective_free(offset, participants);
}

std::size_t ShmemLamellae::alloc_onesided(std::size_t bytes,
                                          std::size_t align) {
  return group_.onesided_heaps_[pe_]->alloc(bytes, align);
}

void ShmemLamellae::free_onesided(std::size_t offset) {
  group_.onesided_heaps_[pe_]->free(offset);
}

double ShmemLamellae::access_cost_ns(pe_id peer, Access kind,
                                     std::size_t bytes) const {
  const ShmemFabric& fabric = group_.fabric_;
  const PerfParams& p = fabric.params();
  if (kind == Access::kAtomic && peer == pe_) return p.atomic_store_ns;
  if (kind == Access::kPipelined) {
    // Back-to-back posts pipeline on the NIC only; within a node the copy
    // runs at memcpy rate.
    return fabric.mapping().same_node(pe_, peer) ? p.memcpy_ns(bytes)
                                                 : p.pipelined_cost_ns(bytes);
  }
  return fabric.transfer_cost_ns(pe_, peer, bytes);
}

}  // namespace lamellar
