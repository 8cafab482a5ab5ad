// Trace-event layer (observability, ISSUE 1).
//
// Fixed-capacity per-thread ring buffers of spans and instants stamped with
// the owning PE's time (Lamellae::now()), exported as Chrome trace_event JSON
// (loadable in chrome://tracing or Perfetto).  Each ring is written only by
// its owning thread; export happens after the worker threads are joined, so
// the rings need no atomics.  When the ring wraps, the oldest events are
// overwritten — a bounded-memory flight recorder, not a lossless log.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace lamellar::obs {

struct TraceEvent {
  const char* name = "";  // must point to a string literal / static storage
  const char* category = "";
  pe_id pe = 0;
  sim_nanos ts = 0;   // Lamellae::now(): virtual or steady-clock ns
  sim_nanos dur = 0;  // span duration (0 for instants)
  char phase = 'X';   // 'X' complete span, 'i' instant, 's'/'t'/'f' flow
  std::uint64_t arg = 0;
  /// Flow-binding id for phases 's' (start), 't' (step), 'f' (end): events
  /// sharing a flow id render as one causal arrow chain in Perfetto and are
  /// stitched across per-PE trace files by tools/trace_stitch.py.  Ignored
  /// for other phases.
  std::uint64_t flow = 0;
};

/// Single-writer ring of trace events.  Capacity is rounded up to a power
/// of two; once full, new events overwrite the oldest.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity, std::uint32_t tid);

  void record(const TraceEvent& e) {
    events_[head_ & mask_] = e;
    ++head_;
  }

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] std::size_t capacity() const { return events_.size(); }
  [[nodiscard]] std::uint64_t recorded() const { return head_; }

  /// Events currently held, oldest first (at most capacity()).
  [[nodiscard]] std::vector<TraceEvent> drain_ordered() const;

 private:
  std::vector<TraceEvent> events_;
  std::size_t mask_;
  std::uint64_t head_ = 0;
  std::uint32_t tid_;
};

/// Owns one ring per participating thread.  Thread->ring resolution is a
/// thread_local cache keyed by a process-unique collector id, so the lookup
/// on the hot path is two loads and a compare.
class TraceCollector {
 public:
  explicit TraceCollector(bool enabled, std::size_t ring_capacity = 1 << 16);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The calling thread's ring (registered on first use).
  TraceRing& ring();

  void record(const TraceEvent& e) {
    if (enabled_) ring().record(e);
  }

  [[nodiscard]] std::size_t num_rings() const;

  /// Serialize all rings as a Chrome trace_event JSON object.  Call only
  /// when writer threads are quiescent (joined or barriered).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Write to_chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  TraceRing* register_ring();

  bool enabled_;
  std::size_t ring_capacity_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<TraceRing>> rings_;
  std::map<std::thread::id, TraceRing*> by_thread_;
};

}  // namespace lamellar::obs
