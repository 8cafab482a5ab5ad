#include "fabric/shmem_fabric.hpp"

#include <sys/mman.h>

#include <new>

#include "common/error.hpp"

namespace lamellar {

FabricCounters::FabricCounters(obs::MetricsRegistry& reg)
    : puts(&reg.counter("fabric.puts")),
      gets(&reg.counter("fabric.gets")),
      atomics(&reg.counter("fabric.atomics")),
      bytes_put(&reg.counter("fabric.bytes_put")),
      bytes_get(&reg.counter("fabric.bytes_get")),
      msgs_sent(&reg.counter("fabric.msgs_sent")),
      msgs_polled(&reg.counter("fabric.msgs_polled")),
      bytes_sent(&reg.counter("fabric.bytes_sent")),
      barriers(&reg.counter("fabric.barriers")) {}

ShmemFabric::Arena::Arena(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
}

ShmemFabric::Arena::~Arena() {
  if (base_ != nullptr) munmap(base_, bytes_);
}

ShmemFabric::ShmemFabric(std::size_t num_pes, std::size_t arena_bytes,
                         PerfParams params, PeMapping mapping,
                         bool virtual_time, bool metrics_enabled)
    : arena_bytes_(arena_bytes),
      params_(params),
      mapping_(mapping),
      virtual_time_(virtual_time),
      clocks_(num_pes),
      world_barrier_(num_pes) {
  arenas_.reserve(num_pes);
  inboxes_.reserve(num_pes);
  fab_metrics_.reserve(num_pes);
  vtime_charged_ns_.reserve(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    arenas_.emplace_back(arena_bytes);
    inboxes_.push_back(std::make_unique<Inbox>());
    obs::MetricsRegistry& reg = registries_.emplace_back(metrics_enabled);
    fab_metrics_.emplace_back(reg);
    vtime_charged_ns_.push_back(&reg.counter("fabric.vtime_charged_ns"));
  }
}

double ShmemFabric::transfer_cost_ns(pe_id a, pe_id b,
                                     std::size_t bytes) const {
  if (a == b) {
    return params_.memcpy_ns(bytes);
  }
  if (mapping_.same_node(a, b)) {
    // Shared-memory path: copy through the node's memory system.
    return 120.0 + static_cast<double>(bytes) / params_.memcpy_bytes_per_ns;
  }
  return params_.rdma_cost_ns(bytes);
}

bool ShmemFabric::try_send(pe_id src, pe_id dst, ByteBuffer& payload) {
  check_pe("fabric send", dst, inboxes_.size());
  const std::size_t bytes = payload.size();
  Inbox& inbox = *inboxes_[dst];
  std::lock_guard lock(inbox.mu);
  if (inbox.messages.size() >= inbox_capacity_) return false;
  charge(src, transfer_cost_ns(src, dst, bytes));
  fab_metrics_[src].msgs_sent->inc();
  fab_metrics_[src].bytes_sent->inc(bytes);
  FabricMessage msg;
  msg.src = src;
  msg.arrival_time = virtual_time_ ? clocks_[src].now() : 0;
  msg.payload = std::move(payload);
  inbox.messages.push_back(std::move(msg));
  return true;
}

bool ShmemFabric::poll(pe_id pe, FabricMessage& out) {
  Inbox& inbox = *inboxes_[pe];
  std::lock_guard lock(inbox.mu);
  if (inbox.messages.empty()) return false;
  out = std::move(inbox.messages.front());
  inbox.messages.pop_front();
  if (virtual_time_) clocks_[pe].raise_to(out.arrival_time);
  fab_metrics_[pe].msgs_polled->inc();
  return true;
}

bool ShmemFabric::inbox_empty(pe_id pe) const {
  Inbox& inbox = *inboxes_[pe];
  std::lock_guard lock(inbox.mu);
  return inbox.messages.empty();
}

void ShmemFabric::barrier(pe_id pe) {
  fab_metrics_[pe].barriers->inc();
  barrier(pe, world_barrier_, pe);
}

void ShmemFabric::barrier(pe_id pe, SenseBarrier& b, std::size_t rank) {
  b.arrive_and_wait(rank, virtual_time_ ? &clocks_[pe] : nullptr,
                    params_.barrier_ns);
}

}  // namespace lamellar
