#include "fabric/shmem_fabric.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>

#include "common/error.hpp"

namespace lamellar {

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
  for (std::size_t i = 0; i < num_pes; ++i) {
    arenas_.emplace_back(arena_bytes);
    inboxes_.push_back(std::make_unique<Inbox>());
    registries_.emplace_back(metrics_enabled);
    obs::MetricsRegistry& reg = registries_.back();
    fab_metrics_.push_back(FabricCounters{
        &reg.counter("fabric.puts"),
        &reg.counter("fabric.gets"),
        &reg.counter("fabric.atomics"),
        &reg.counter("fabric.bytes_put"),
        &reg.counter("fabric.bytes_get"),
        &reg.counter("fabric.msgs_sent"),
        &reg.counter("fabric.msgs_polled"),
        &reg.counter("fabric.bytes_sent"),
        &reg.counter("fabric.barriers"),
        &reg.counter("fabric.vtime_charged_ns"),
    });
  }
}

void ShmemFabric::check_bounds(pe_id pe, std::size_t offset,
                               std::size_t len) const {
  if (pe >= arenas_.size()) {
    throw BoundsError("fabric: PE id out of range");
  }
  if (offset + len > arena_bytes_ || offset + len < offset) {
    throw_bounds("fabric arena access", offset + len, arena_bytes_);
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

void ShmemFabric::put(pe_id src, pe_id dst, std::size_t dst_offset,
                      std::span<const std::byte> data) {
  check_bounds(dst, dst_offset, data.size());
  std::memcpy(arenas_[dst].base() + dst_offset, data.data(), data.size());
  charge(src, transfer_cost_ns(src, dst, data.size()));
  fab_metrics_[src].puts->inc();
  fab_metrics_[src].bytes_put->inc(data.size());
}

void ShmemFabric::get(pe_id dst, pe_id src_remote, std::size_t remote_offset,
                      std::span<std::byte> out) {
  check_bounds(src_remote, remote_offset, out.size());
  std::memcpy(out.data(), arenas_[src_remote].base() + remote_offset,
              out.size());
  charge(dst, transfer_cost_ns(dst, src_remote, out.size()));
  fab_metrics_[dst].gets->inc();
  fab_metrics_[dst].bytes_get->inc(out.size());
}

void ShmemFabric::get_pipelined(pe_id dst, pe_id src_remote,
                                std::size_t remote_offset,
                                std::span<std::byte> out) {
  check_bounds(src_remote, remote_offset, out.size());
  std::memcpy(out.data(), arenas_[src_remote].base() + remote_offset,
              out.size());
  if (dst == src_remote || mapping_.same_node(dst, src_remote)) {
    charge(dst, params_.memcpy_ns(out.size()));
  } else {
    charge(dst, params_.pipelined_cost_ns(out.size()));
  }
  fab_metrics_[dst].gets->inc();
  fab_metrics_[dst].bytes_get->inc(out.size());
}

namespace {
// Arena words used for atomics are 8-byte aligned by the allocators.
std::atomic_ref<std::uint64_t> word_at(std::byte* base, std::size_t offset) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(base + offset));
}
}  // namespace

std::uint64_t ShmemFabric::atomic_fetch_add_u64(pe_id src, pe_id dst,
                                                std::size_t offset,
                                                std::uint64_t v) {
  check_bounds(dst, offset, sizeof(std::uint64_t));
  charge(src, src == dst ? params_.atomic_store_ns
                         : transfer_cost_ns(src, dst, sizeof(std::uint64_t)));
  fab_metrics_[src].atomics->inc();
  return word_at(arenas_[dst].base(), offset)
      .fetch_add(v, std::memory_order_acq_rel);
}

std::uint64_t ShmemFabric::atomic_load_u64(pe_id src, pe_id dst,
                                           std::size_t offset) {
  check_bounds(dst, offset, sizeof(std::uint64_t));
  charge(src, src == dst ? params_.atomic_store_ns
                         : transfer_cost_ns(src, dst, sizeof(std::uint64_t)));
  fab_metrics_[src].atomics->inc();
  return word_at(arenas_[dst].base(), offset).load(std::memory_order_acquire);
}

void ShmemFabric::atomic_store_u64(pe_id src, pe_id dst, std::size_t offset,
                                   std::uint64_t v) {
  check_bounds(dst, offset, sizeof(std::uint64_t));
  charge(src, src == dst ? params_.atomic_store_ns
                         : transfer_cost_ns(src, dst, sizeof(std::uint64_t)));
  fab_metrics_[src].atomics->inc();
  word_at(arenas_[dst].base(), offset).store(v, std::memory_order_release);
}

bool ShmemFabric::atomic_cas_u64(pe_id src, pe_id dst, std::size_t offset,
                                 std::uint64_t& expected,
                                 std::uint64_t desired) {
  check_bounds(dst, offset, sizeof(std::uint64_t));
  charge(src, src == dst ? params_.atomic_store_ns
                         : transfer_cost_ns(src, dst, sizeof(std::uint64_t)));
  fab_metrics_[src].atomics->inc();
  return word_at(arenas_[dst].base(), offset)
      .compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
}

bool ShmemFabric::try_send(pe_id src, pe_id dst, ByteBuffer& payload) {
  if (dst >= inboxes_.size()) throw BoundsError("fabric: send to bad PE");
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
