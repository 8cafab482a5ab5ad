// Outgoing command queues: per-destination double-buffered staging of
// serialized records (paper Sec. III-A1, "double buffering message queue").
//
// The hot path is zero-copy: callers open an in-place record on the
// destination lane (`begin_record`), serialize header + payload directly
// into the active buffer while holding the lane lock, and `commit_record`
// decides whether the buffer leaves.  Buffers that fill to the aggregation
// threshold are swapped out (the second half of the double buffer becomes
// active immediately) and handed to the Lamellae; a record that is itself
// at or above the threshold leaves on its own — the large-record bypass the
// paper describes around the 100 KB default.  Swapped-out buffers are
// replaced from a per-PE BufferPool (Lamellae::buffer_pool), and receivers
// recycle drained inbox buffers back into the sender's pool, so
// steady-state traffic performs no heap growth even when two PEs send
// unevenly.
//
// Memory discipline at high PE counts (DESIGN.md §12): lanes are created
// lazily on first use and acquire only a small initial buffer that grows
// organically toward the threshold; whenever a lane is left empty (swap,
// flush, rollback) its storage returns to the pool.  A PE therefore pays
// for the lanes it actually talks through — O(sqrt P) under 2-hop routing —
// not for all P destinations.  The `cmdq.live_lanes` gauge tracks lanes
// currently holding storage.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "lamellae/lamellae.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamellar {

class OutgoingQueues {
 public:
  /// `progress` is invoked while the fabric is backpressured; it must drain
  /// the caller's own inbox (and may execute tasks) to guarantee progress.
  using ProgressFn = std::function<void()>;

  OutgoingQueues(Lamellae& lamellae, std::size_t flush_threshold,
                 obs::TraceCollector* tracer = nullptr);
  ~OutgoingQueues();

 private:
  /// One trace-sampled record staged in a lane's active buffer, awaiting
  /// its departure timestamp.
  struct TracedRecord {
    std::uint64_t span = 0;
    std::size_t ts_offset = 0;   // of the wire trace-ext ts field
    sim_nanos staged_at = 0;     // lane-residency start (inject time)
  };

  struct Lane {
    mutable std::mutex mu;
    ByteBuffer active;
    /// Sampled records currently staged in `active` (almost always empty;
    /// moved out together with the buffer when it departs).
    std::vector<TracedRecord> traced;
    /// Relaxed occupancy hint, written only under `mu`: lets flush_all skip
    /// provably-empty lanes without acquiring their locks (O(live) instead
    /// of O(P) mutex round-trips per quiesce).
    std::atomic<bool> occupied{false};
  };

 public:
  /// An open in-place record on one destination lane.  Holds the lane lock
  /// from begin_record() until commit_record() (or destruction, which rolls
  /// an uncommitted record back), so the caller may serialize directly into
  /// buffer() without another writer interleaving bytes.
  class RecordWriter {
   public:
    RecordWriter(const RecordWriter&) = delete;
    RecordWriter& operator=(const RecordWriter&) = delete;
    ~RecordWriter();

    /// The lane's active buffer; append the record at the current end.
    [[nodiscard]] ByteBuffer& buffer() { return lane_->active; }
    /// Offset in buffer() where this record starts.
    [[nodiscard]] std::size_t record_start() const { return start_; }

    /// Register the open record as trace-sampled: when the buffer departs
    /// the lane, the u64 at `ts_offset` is patched with the departure time
    /// (so the receiver can compute flight latency), the lane-residency
    /// stage latency is recorded, and a flow step is traced.  Must be
    /// called between begin_record() and commit_record().
    void note_trace(std::uint64_t span, std::size_t ts_offset);

   private:
    friend class OutgoingQueues;
    RecordWriter(OutgoingQueues& q, pe_id dst, Lane& lane, std::size_t start,
                 std::unique_lock<std::mutex> lock)
        : q_(&q), dst_(dst), lane_(&lane), start_(start),
          lock_(std::move(lock)) {}

    OutgoingQueues* q_;
    pe_id dst_;
    Lane* lane_;
    std::size_t start_;
    std::unique_lock<std::mutex> lock_;
    bool committed_ = false;
  };

  /// Open an in-place record destined for `dst`.
  RecordWriter begin_record(pe_id dst);

  /// Close the record opened by `w`: update lane occupancy, swap the buffer
  /// out if it reached the threshold, and transmit outside the lane lock.
  void commit_record(RecordWriter& w, const ProgressFn& progress);

  /// Flush any partially filled buffer for `dst`.
  void flush(pe_id dst, const ProgressFn& progress);

  /// Flush every destination with staged bytes.  Lanes that were never
  /// created or are provably empty are skipped without taking their locks.
  void flush_all(const ProgressFn& progress);

  /// Return a drained buffer for reuse to the pool of `owner`, the PE
  /// whose lane filled it (for an inbox payload, the message's source).  A
  /// buffer that the full pool refuses is freed and counted in
  /// cmdq.buffers_dropped on this PE.
  void recycle(ByteBuffer buf, pe_id owner);
  /// Return a buffer this PE's own lanes filled to its pool.
  void recycle(ByteBuffer buf) { recycle(std::move(buf), lamellae_.my_pe()); }

  /// Relaxed count of non-empty lanes — safe to call in tight wait loops
  /// without touching any lane lock.
  [[nodiscard]] bool has_pending() const {
    return nonempty_lanes_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] BufferPool& pool() { return pool_; }

 private:
  // Resolved once from the PE's metrics registry ("cmdq.*" namespace):
  // buffers/bytes handed to the fabric, flushes split by cause, pool
  // traffic, full-inbox stalls observed while transmitting, and the gauge
  // of lanes currently holding buffer storage.
  struct CmdQueueCounters {
    obs::Counter* buffers_sent;
    obs::Counter* bytes_sent;
    obs::Counter* flush_threshold;
    obs::Counter* flush_explicit;
    obs::Counter* bypass_large;
    obs::Counter* backpressure_stalls;
    obs::Counter* buffers_recycled;
    obs::Counter* buffers_allocated;
    obs::Counter* buffers_dropped;       // recycles a full pool refused
    obs::Histogram* stage_inject_flush;  // am.stage_inject_flush_ns
    obs::Gauge* nonempty_lanes;          // cmdq.nonempty_lanes
    obs::Gauge* live_lanes;              // cmdq.live_lanes
  };

  /// Get-or-create the lane for `dst` (lanes are materialized on first
  /// use, so a PE that never talks to `dst` pays one pointer).
  Lane& lane(pe_id dst);

  /// Ensure `lane.active` has pooled backing storage (called under lock).
  void prime(Lane& lane);

  /// Return an empty lane's backing storage to the pool (called under the
  /// lane lock with `lane.active` empty): idle lanes hold no memory.
  void release_storage_locked(Lane& lane);

  void transmit(pe_id dst, ByteBuffer buf, const ProgressFn& progress);

  /// Move a nonempty lane's buffer out under its lock: clears occupancy and
  /// maintains the nonempty/live gauges.  Returns the departing buffer's
  /// traced records through `traced`.
  ByteBuffer extract_locked(Lane& lane, std::vector<TracedRecord>& traced);

  /// Stamp the departure time into every traced record of a departing
  /// buffer, record the lane-residency latency, and emit flow steps.
  /// Called outside the lane lock, before the buffer is transmitted.
  void seal_traced(ByteBuffer& buf, std::vector<TracedRecord>& traced);

  Lamellae& lamellae_;
  obs::TraceCollector* tracer_;
  /// Aggregation flush threshold in bytes, fixed at construction (DESIGN.md
  /// §14) and at least 1, so every nonempty commit can depart.
  const std::size_t threshold_;
  /// Lazily created lanes: a slot is null until the first record for that
  /// destination.  Readers load acquire; creation is serialized by
  /// lanes_mu_ and published with a release store.
  std::vector<std::atomic<Lane*>> lanes_;
  std::mutex lanes_mu_;
  BufferPool& pool_;
  std::atomic<std::size_t> nonempty_lanes_{0};
  CmdQueueCounters metrics_;
};

}  // namespace lamellar
