// SmpLamellae: single-PE backend (paper Sec. III-A3).
//
// Targets single-process multi-threaded applications: exactly one PE, no
// remote transfers, barriers are no-ops over one participant, and message
// "sends" loop back into the local inbox.  Implemented as a thin owner of a
// one-PE ShmemLamellaeGroup so the code path matches the distributed
// backends exactly (the paper highlights this transparency goal for its
// Shmem lamellae; we extend it to SMP).  The AM engine's local-execution
// bypass means no serialization actually occurs for local AMs, matching the
// paper's description of the SMP lamellae.
#pragma once

#include <memory>

#include "lamellae/shmem_lamellae.hpp"

namespace lamellar {

class SmpLamellae final : public Lamellae {
 public:
  explicit SmpLamellae(ShmemLamellaeGroup::Layout layout = {},
                       bool virtual_time = false);

  [[nodiscard]] pe_id my_pe() const override { return 0; }
  [[nodiscard]] std::size_t num_pes() const override { return 1; }
  std::byte* base() override { return inner_->base(); }

  std::size_t alloc_symmetric(std::size_t bytes, std::size_t align) override {
    return inner_->alloc_symmetric(bytes, align);
  }
  void free_symmetric(std::size_t offset) override {
    inner_->free_symmetric(offset);
  }
  std::size_t alloc_symmetric_group(std::uint64_t key,
                                    std::size_t participants,
                                    std::size_t bytes,
                                    std::size_t align) override {
    return inner_->alloc_symmetric_group(key, participants, bytes, align);
  }
  void free_symmetric_group(std::size_t offset,
                            std::size_t participants) override {
    inner_->free_symmetric_group(offset, participants);
  }
  std::size_t alloc_onesided(std::size_t bytes, std::size_t align) override {
    return inner_->alloc_onesided(bytes, align);
  }
  void free_onesided(std::size_t offset) override {
    inner_->free_onesided(offset);
  }

  void put(pe_id dst, std::size_t dst_offset,
           std::span<const std::byte> data) override {
    inner_->put(dst, dst_offset, data);
  }
  void get(pe_id src, std::size_t remote_offset,
           std::span<std::byte> out) override {
    inner_->get(src, remote_offset, out);
  }
  void get_pipelined(pe_id src, std::size_t remote_offset,
                     std::span<std::byte> out) override {
    inner_->get_pipelined(src, remote_offset, out);
  }

  std::uint64_t atomic_fetch_add_u64(pe_id dst, std::size_t offset,
                                     std::uint64_t v) override {
    return inner_->atomic_fetch_add_u64(dst, offset, v);
  }
  std::uint64_t atomic_load_u64(pe_id dst, std::size_t offset) override {
    return inner_->atomic_load_u64(dst, offset);
  }
  void atomic_store_u64(pe_id dst, std::size_t offset,
                        std::uint64_t v) override {
    inner_->atomic_store_u64(dst, offset, v);
  }
  bool atomic_cas_u64(pe_id dst, std::size_t offset, std::uint64_t& expected,
                      std::uint64_t desired) override {
    return inner_->atomic_cas_u64(dst, offset, expected, desired);
  }

  bool try_send(pe_id dst, ByteBuffer& buf) override {
    return inner_->try_send(dst, buf);
  }
  bool poll(FabricMessage& out) override { return inner_->poll(out); }
  [[nodiscard]] bool inbox_empty() const override {
    return inner_->inbox_empty();
  }
  BufferPool& buffer_pool(pe_id pe) override {
    return inner_->buffer_pool(pe);
  }

  void barrier() override { inner_->barrier(); }
  VirtualClock& clock() override { return inner_->clock(); }
  [[nodiscard]] sim_nanos mono_now() const override {
    return inner_->mono_now();
  }
  obs::MetricsRegistry& metrics() override { return inner_->metrics(); }
  [[nodiscard]] const PerfParams& params() const override {
    return inner_->params();
  }
  void charge(double ns) override { inner_->charge(ns); }
  [[nodiscard]] bool remote_to(pe_id) const override { return false; }

 private:
  std::unique_ptr<ShmemLamellaeGroup> group_;
  std::unique_ptr<ShmemLamellae> inner_;
};

}  // namespace lamellar
