#include "lamellae/shmem_lamellae.hpp"

#include <sys/mman.h>

#include <new>

#include "common/error.hpp"

namespace lamellar {

ShmemLamellaeGroup::Arena::Arena(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
}

ShmemLamellaeGroup::Arena::~Arena() {
  if (base_ != nullptr) munmap(base_, bytes_);
}

ShmemLamellaeGroup::ShmemLamellaeGroup(std::size_t num_pes, ArenaLayout layout,
                                       PerfParams params, PeMapping mapping,
                                       bool virtual_time)
    : layout_(layout),
      params_(params),
      mapping_(mapping),
      virtual_time_(virtual_time),
      world_barrier_(num_pes),
      symmetric_(std::make_shared<SymmetricHeap>(layout, num_pes, num_pes)) {
  arenas_.reserve(num_pes);
  inboxes_.reserve(num_pes);
  buffer_pools_.reserve(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    arenas_.emplace_back(layout.total());
    inboxes_.push_back(std::make_unique<Inbox>());
    buffer_pools_.push_back(
        std::make_unique<BufferPool>(lane_pool_bound(num_pes)));
  }
}

std::unique_ptr<ShmemLamellae> ShmemLamellaeGroup::endpoint(pe_id pe) {
  return std::make_unique<ShmemLamellae>(*this, pe);
}

ShmemLamellae::ShmemLamellae(ShmemLamellaeGroup& group, pe_id pe)
    : Lamellae(pe, group.num_pes(), group.layout_, group.symmetric_),
      group_(group),
      vtime_charged_ns_(&metrics().counter("fabric.vtime_charged_ns")) {}

bool ShmemLamellae::try_send(pe_id dst, ByteBuffer& buf) {
  check_pe("fabric send", dst, num_pes());
  const std::size_t bytes = buf.size();
  ShmemLamellaeGroup::Inbox& inbox = *group_.inboxes_[dst];
  std::lock_guard lock(inbox.mu);
  if (inbox.messages.size() >= group_.inbox_capacity_) return false;
  charge(transfer_cost_ns(dst, bytes));
  fabric_counters_.msgs_sent->inc();
  fabric_counters_.bytes_sent->inc(bytes);
  FabricMessage msg;
  msg.src = my_pe();
  msg.arrival_time = group_.virtual_time_ ? clock_.now() : 0;
  msg.payload = std::move(buf);
  inbox.messages.push_back(std::move(msg));
  return true;
}

bool ShmemLamellae::poll(FabricMessage& out) {
  ShmemLamellaeGroup::Inbox& inbox = *group_.inboxes_[my_pe()];
  std::lock_guard lock(inbox.mu);
  if (inbox.messages.empty()) return false;
  out = std::move(inbox.messages.front());
  inbox.messages.pop_front();
  if (group_.virtual_time_) clock_.raise_to(out.arrival_time);
  fabric_counters_.msgs_polled->inc();
  return true;
}

bool ShmemLamellae::inbox_empty() const {
  const ShmemLamellaeGroup::Inbox& inbox = *group_.inboxes_[my_pe()];
  std::lock_guard lock(inbox.mu);
  return inbox.messages.empty();
}

void ShmemLamellae::barrier() {
  fabric_counters_.barriers->inc();
  barrier(group_.world_barrier_, my_pe());
}

void ShmemLamellae::barrier(SenseBarrier& team, std::size_t rank) {
  team.arrive_and_wait(rank, group_.virtual_time_ ? &clock_ : nullptr,
                       group_.params_.barrier_ns);
}

double ShmemLamellae::transfer_cost_ns(pe_id peer, std::size_t bytes) const {
  const PerfParams& p = group_.params_;
  if (peer == my_pe()) return p.memcpy_ns(bytes);
  if (group_.mapping_.same_node(my_pe(), peer)) {
    // Shared-memory path: copy through the node's memory system.
    return 120.0 + static_cast<double>(bytes) / p.memcpy_bytes_per_ns;
  }
  return p.rdma_cost_ns(bytes);
}

double ShmemLamellae::access_cost_ns(pe_id peer, Access kind,
                                     std::size_t bytes) const {
  const PerfParams& p = group_.params_;
  if (kind == Access::kAtomic && peer == my_pe()) return p.atomic_store_ns;
  if (kind == Access::kPipelined) {
    // Back-to-back posts pipeline on the NIC only; within a node the copy
    // runs at memcpy rate.
    return group_.mapping_.same_node(my_pe(), peer)
               ? p.memcpy_ns(bytes)
               : p.pipelined_cost_ns(bytes);
  }
  return transfer_cost_ns(peer, bytes);
}

}  // namespace lamellar
