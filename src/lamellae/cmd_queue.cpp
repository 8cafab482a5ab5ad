#include "lamellae/cmd_queue.hpp"

#include <algorithm>

namespace lamellar {

namespace {
// First-touch reserve for a lane: small, so a lane that only ever carries a
// few records never pins a threshold-sized allocation (the buffer grows
// organically, and pooled buffers arrive with whatever capacity they earned).
constexpr std::size_t kLaneInitialBytes = 4096;
}  // namespace

OutgoingQueues::OutgoingQueues(Lamellae& lamellae, std::size_t flush_threshold,
                               obs::TraceCollector* tracer)
    : lamellae_(lamellae),
      tracer_(tracer),
      threshold_(std::max<std::size_t>(1, flush_threshold)),
      lanes_(lamellae.num_pes()),
      pool_(lamellae.buffer_pool(lamellae.my_pe())) {
  obs::MetricsRegistry& reg = lamellae.metrics();
  metrics_ = CmdQueueCounters{
      &reg.counter("cmdq.buffers_sent"),
      &reg.counter("cmdq.bytes_sent"),
      &reg.counter("cmdq.flush_threshold"),
      &reg.counter("cmdq.flush_explicit"),
      &reg.counter("cmdq.bypass_large"),
      &reg.counter("cmdq.backpressure_stalls"),
      &reg.counter("cmdq.buffers_recycled"),
      &reg.counter("cmdq.buffers_allocated"),
      &reg.counter("cmdq.buffers_dropped"),
      &reg.histogram("am.stage_inject_flush_ns"),
      &reg.gauge("cmdq.nonempty_lanes"),
      &reg.gauge("cmdq.live_lanes"),
  };
}

OutgoingQueues::~OutgoingQueues() {
  for (auto& slot : lanes_) delete slot.load(std::memory_order_acquire);
}

OutgoingQueues::Lane& OutgoingQueues::lane(pe_id dst) {
  Lane* l = lanes_[dst].load(std::memory_order_acquire);
  if (l != nullptr) return *l;
  std::lock_guard lock(lanes_mu_);
  l = lanes_[dst].load(std::memory_order_relaxed);
  if (l == nullptr) {
    l = new Lane();
    lanes_[dst].store(l, std::memory_order_release);
  }
  return *l;
}

void OutgoingQueues::RecordWriter::note_trace(std::uint64_t span,
                                              std::size_t ts_offset) {
  lane_->traced.push_back({span, ts_offset, q_->lamellae_.now()});
}

void OutgoingQueues::seal_traced(ByteBuffer& buf,
                                 std::vector<TracedRecord>& traced) {
  const sim_nanos now = lamellae_.now();
  for (const TracedRecord& t : traced) {
    // Patch the wire trace-ext ts with the departure time so the receiver
    // can compute flight latency from its own arrival clock.
    buf.patch_pod<std::uint64_t>(t.ts_offset,
                                 static_cast<std::uint64_t>(now));
    const sim_nanos dur = now >= t.staged_at ? now - t.staged_at : 0;
    metrics_.stage_inject_flush->record(static_cast<std::uint64_t>(dur));
    if (tracer_ != nullptr && tracer_->enabled()) {
      const pe_id pe = lamellae_.my_pe();
      tracer_->record({"am_lane", "am", pe, t.staged_at, dur, 'X',
                       static_cast<std::uint64_t>(dur)});
      tracer_->record({"am_flush", "am", pe, now, 0, 't',
                       static_cast<std::uint64_t>(dur), t.span});
    }
  }
  traced.clear();
}

OutgoingQueues::RecordWriter::~RecordWriter() {
  // An uncommitted record (serialization threw) must not leak half-written
  // bytes into the lane: roll the buffer back to where the record began.
  if (q_ == nullptr || committed_) return;
  lane_->active.truncate(start_);
  if (start_ == 0) q_->release_storage_locked(*lane_);
}

void OutgoingQueues::prime(Lane& lane) {
  if (lane.active.capacity() != 0) return;
  bool hit = false;
  lane.active = pool_.acquire(kLaneInitialBytes, &hit);
  if (!hit) metrics_.buffers_allocated->inc();
  metrics_.live_lanes->add(1);
}

void OutgoingQueues::release_storage_locked(Lane& lane) {
  if (lane.active.capacity() == 0) return;
  recycle(std::move(lane.active));
  lane.active = ByteBuffer{};
  metrics_.live_lanes->sub(1);
}

OutgoingQueues::RecordWriter OutgoingQueues::begin_record(pe_id dst) {
  Lane& l = lane(dst);
  std::unique_lock lock(l.mu);
  prime(l);
  return RecordWriter(*this, dst, l, l.active.size(), std::move(lock));
}

ByteBuffer OutgoingQueues::extract_locked(Lane& lane,
                                          std::vector<TracedRecord>& traced) {
  ByteBuffer out = std::move(lane.active);
  lane.active = ByteBuffer{};
  traced = std::move(lane.traced);
  lane.traced.clear();
  metrics_.live_lanes->sub(1);
  if (lane.occupied.load(std::memory_order_relaxed)) {
    lane.occupied.store(false, std::memory_order_release);
    nonempty_lanes_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.nonempty_lanes->sub(1);
  }
  return out;
}

void OutgoingQueues::commit_record(RecordWriter& w, const ProgressFn& progress) {
  Lane& lane = *w.lane_;
  const bool was_counted = w.start_ > 0;
  const std::size_t record_bytes = lane.active.size() - w.start_;
  const std::size_t threshold = threshold_;
  w.committed_ = true;
  ByteBuffer to_send;
  std::vector<TracedRecord> traced;
  if (lane.active.size() >= threshold) {
    // Swap the filled buffer out; the lane goes back to empty immediately
    // (the second half of the double buffer) so other writers continue.
    to_send = extract_locked(lane, traced);
    (record_bytes >= threshold ? metrics_.bypass_large
                               : metrics_.flush_threshold)
        ->inc();
  } else if (!was_counted && record_bytes > 0) {
    lane.occupied.store(true, std::memory_order_release);
    nonempty_lanes_.fetch_add(1, std::memory_order_relaxed);
    metrics_.nonempty_lanes->add(1);
  } else if (record_bytes == 0 && lane.active.empty()) {
    // Zero-byte commit on an empty lane (e.g. a routed record that was
    // pulled back out for the direct path): do not leave primed storage
    // pinned on a lane that carries nothing.
    release_storage_locked(lane);
  }
  w.lock_.unlock();
  if (!to_send.empty()) {
    if (!traced.empty()) seal_traced(to_send, traced);
    lamellae_.charge(lamellae_.params().agg_flush_overhead_ns);
    transmit(w.dst_, std::move(to_send), progress);
  }
}

void OutgoingQueues::flush(pe_id dst, const ProgressFn& progress) {
  Lane* lp = lanes_[dst].load(std::memory_order_acquire);
  if (lp == nullptr) return;
  Lane& lane = *lp;
  ByteBuffer to_send;
  std::vector<TracedRecord> traced;
  {
    std::lock_guard lock(lane.mu);
    if (lane.active.empty()) {
      // Primed-but-empty (rolled back, or drained by a concurrent swap):
      // leave nothing pinned.
      release_storage_locked(lane);
      return;
    }
    to_send = extract_locked(lane, traced);
  }
  if (!traced.empty()) seal_traced(to_send, traced);
  metrics_.flush_explicit->inc();
  lamellae_.charge(lamellae_.params().agg_flush_overhead_ns);
  transmit(dst, std::move(to_send), progress);
}

void OutgoingQueues::flush_all(const ProgressFn& progress) {
  const std::size_t n = lanes_.size();
  for (pe_id dst = 0; dst < n; ++dst) {
    // Skip never-created and provably-empty lanes without their locks; the
    // occupancy hint is maintained under the lane lock, and any commit that
    // races past this check is a record staged after flush_all began —
    // outside this flush's obligations (has_pending() still reports it).
    Lane* lane = lanes_[dst].load(std::memory_order_acquire);
    if (lane == nullptr || !lane->occupied.load(std::memory_order_acquire)) {
      continue;
    }
    flush(dst, progress);
  }
}

void OutgoingQueues::recycle(ByteBuffer buf, pe_id owner) {
  if (buf.capacity() == 0) return;
  if (lamellae_.buffer_pool(owner).release(std::move(buf))) {
    metrics_.buffers_recycled->inc();
  } else {
    metrics_.buffers_dropped->inc();
  }
}

void OutgoingQueues::transmit(pe_id dst, ByteBuffer buf,
                              const ProgressFn& progress) {
  metrics_.buffers_sent->inc();
  metrics_.bytes_sent->inc(buf.size());
  // try_send consumes the buffer only on success; on backpressure, make
  // progress on our own inbox (which can unblock the destination) and retry.
  while (!lamellae_.try_send(dst, buf)) {
    metrics_.backpressure_stalls->inc();
    progress();
  }
}

}  // namespace lamellar
