// The per-PE active-message engine (paper Sec. III-C).
//
// Responsibilities:
//  * typed, asynchronous AM launches (`exec_am_pe` / `exec_am_all` surface
//    on World delegates here), returning futures;
//  * serialization of AM payloads and aggregation of small records into
//    per-destination buffers (OutgoingQueues, the double-buffered command
//    queue of Sec. III-A1);
//  * receive-side dispatch: buffers are parsed and their AM records run as
//    a few chunk tasks on the PE's work-stealing pool, each chunk answering
//    its Unit-returning requests with one ack record per origin;
//  * request/reply tracking so every launch can be awaited, and the
//    launched/completed counters behind wait_all();
//  * local bypass: AMs addressed to the local PE skip serialization
//    entirely (the behaviour the paper attributes to the SMP lamellae and
//    to local execution in exec_am_*).
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/serialize.hpp"
#include "common/unique_function.hpp"
#include "core/am/am_context.hpp"
#include "core/am/am_registry.hpp"
#include "core/am/completer_table.hpp"
#include "core/am/wire.hpp"
#include "core/scheduler/future.hpp"
#include "core/scheduler/thread_pool.hpp"
#include "fabric/topology.hpp"
#include "lamellae/cmd_queue.hpp"
#include "lamellae/lamellae.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lamellar {

namespace detail {

template <typename Am>
using am_exec_result_t =
    decltype(std::declval<Am&>().exec(std::declval<AmContext&>()));

}  // namespace detail

/// The result type of awaiting an AM of type `Am`: its exec() return type,
/// or Unit when exec() returns void.
template <typename Am>
using am_return_t =
    std::conditional_t<std::is_void_v<detail::am_exec_result_t<Am>>, Unit,
                       detail::am_exec_result_t<Am>>;

/// Requirements on user AM types: serializable, default-constructible (for
/// deserialization), with an exec(AmContext&) member.  The analogue of the
/// paper's `#[AmData]` trait bounds (serde + Send + Sync).
template <typename T>
concept ActiveMessageType =
    Serializable<T> && std::is_default_constructible_v<T> &&
    requires(T t, AmContext& ctx) { t.exec(ctx); };

/// Marker: AM types declaring `static constexpr bool kBorrowsPayload =
/// true` deserialize members as borrowed spans of the inbox buffer and/or
/// return arena-backed span results.  For such types the runtime (a) keeps
/// the inbox buffer alive (InboxHold) until the deferred execution task has
/// run, and (b) wraps exec + reply serialization in an ArenaFrame so
/// arena-staged results are reclaimed once the reply is on the wire.
template <typename T>
concept BorrowingAm = requires { T::kBorrowsPayload; };

/// Marker: AM types declaring `static constexpr bool kRuntimeInternal =
/// true` execute inline during inbox dispatch instead of as pool tasks.
/// The Darc lifetime protocol requires per-channel FIFO processing of its
/// control messages (drop/revive/ack/check); inline execution preserves the
/// fabric's per-inbox ordering, whereas independent tasks could reorder.
/// For the same reason such AMs (and their replies) are never 2-hop
/// relayed: relaying would interleave two paths to the same destination.
template <typename T>
concept InlineAm = requires { T::kRuntimeInternal; };

class AmEngine {
 public:
  AmEngine(Lamellae& lamellae, ThreadPool& pool, const RuntimeConfig& cfg,
           obs::TraceCollector* tracer = nullptr);

  void bind_world(World* w) { world_ = w; }
  [[nodiscard]] World* world() const { return world_; }

  [[nodiscard]] pe_id my_pe() const { return lamellae_.my_pe(); }
  [[nodiscard]] std::size_t num_pes() const { return lamellae_.num_pes(); }

  // ---- typed sends ----

  /// Launch `am` on `dst`; the future completes with exec()'s result.
  template <ActiveMessageType Am>
  Future<am_return_t<Am>> send(pe_id dst, Am am) {
    using R = am_return_t<Am>;
    Promise<R> promise;
    send_cb(dst, std::move(am),
            [promise](R r) mutable { promise.set_value(std::move(r)); });
    return promise.future();
  }

  /// Launch a copy of `am` on every PE in id order; the future completes
  /// with all results indexed by PE.
  template <ActiveMessageType Am>
  Future<std::vector<am_return_t<Am>>> send_all(const Am& am) {
    using R = am_return_t<Am>;
    struct Gather {
      std::mutex mu;
      std::vector<R> results;
      std::size_t remaining;
      Promise<std::vector<R>> promise;
    };
    auto g = std::make_shared<Gather>();
    g->results.resize(num_pes());
    g->remaining = num_pes();
    for (pe_id pe = 0; pe < num_pes(); ++pe) {
      send_cb(pe, Am(am), [g, pe](R r) {
        std::unique_lock lock(g->mu);
        g->results[pe] = std::move(r);
        if (--g->remaining == 0) {
          auto out = std::move(g->results);
          lock.unlock();
          g->promise.set_value(std::move(out));
        }
      });
    }
    return g->promise.future();
  }

  /// Core send: invoke `on_result` with exec()'s result once the AM has
  /// completed (possibly remotely).  `on_result` runs on a runtime thread.
  /// A `dst` outside the world throws BoundsError before anything is
  /// counted, so wait_all() still returns.
  ///
  /// `launched_` is bumped relaxed: only its value matters.  `completed_`
  /// is bumped with release after `on_result` has run, once per reply or
  /// ack record (dispatch_record), so a wait_all() that reads
  /// outstanding() == 0 (acquire) sees every callback's writes: callbacks
  /// may write results straight into caller memory with no future to
  /// publish them.
  template <ActiveMessageType Am, typename Fn>
  void send_cb(pe_id dst, Am am, Fn on_result) {
    using R = am_return_t<Am>;
    check_pe("AM send", dst, num_pes());
    launched_.fetch_add(1, std::memory_order_relaxed);
    if (dst == my_pe()) {
      // Local bypass: execute as a pool task without serialization.
      am_sent_local_->inc();
      lamellae_.charge(lamellae_.params().task_spawn_ns);
      pool_.spawn([this, am = std::move(am), cb = std::move(on_result),
                   src = my_pe()]() mutable {
        ScopedWorld scope(world_);
        AmContext ctx(*world_, src);
        if constexpr (BorrowingAm<Am>) {
          // The result may point into the thread's scratch arena; the
          // callback must consume it before this frame rewinds.  (Span
          // *payloads* cannot take this path — there was no buffer to
          // borrow from — so dispatchers apply local chunks directly.)
          ArenaFrame frame;
          cb(invoke_exec<Am>(am, ctx));
        } else {
          cb(invoke_exec<Am>(am, ctx));
        }
        am_executed_->inc();
        completed_.fetch_add(1, std::memory_order_release);
      });
      return;
    }

    const request_id seq =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    am_sent_remote_->inc();
    auto complete = [cb = std::move(on_result)](Deserializer& de) mutable {
      R r{};
      de.get(r);
      cb(std::move(r));
    };
    // Causal trace sampling: one in every trace_sample_ requests carries a
    // 16-byte wire extension and opens a span that the reply closes
    // (spans_opened == spans_closed at quiesce).  Only replied-to sends are
    // sampled — a fire-and-forget span would never close.  The span is
    // named by the monotone sequence, not the table handle: a handle's low
    // 48 bits repeat once one slot is reused 65,536 times.  Only a sampled
    // send reads the clock: its reply, always a traced kReplyType record,
    // records the send-to-completion latency before the callback runs.
    std::uint64_t span = 0;
    request_id rid = 0;
    if (trace_sample_ != 0 && seq % trace_sample_ == 0) {
      span = make_trace_span(my_pe(), seq);
      spans_opened_->inc();
      const sim_nanos sent_at = lamellae_.now();
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->record({"am_send", "am", my_pe(), sent_at, 0, 's', seq, span});
      }
      rid = completers_.insert(
          [this, sent_at, complete = std::move(complete)](
              Deserializer& de) mutable {
            reply_latency_ns_->record(lamellae_.now() - sent_at);
            complete(de);
          });
    } else {
      rid = completers_.insert(std::move(complete));
    }
    write_record_inplace(dst, AmTypeId<Am>::id, kWantsReply, rid, am, span,
                         /*allow_relay=*/!InlineAm<Am>);
  }

  /// Fire-and-forget: launch `am` on `dst` with no reply record, no
  /// completer, and no entry in this PE's launched/completed accounting —
  /// wait_all() does not cover it.  For runtime protocols (e.g. the reduce
  /// combining tree) whose own completion message proves every prior hop
  /// has landed.  Local sends fall back to send_cb (the bypass never
  /// replies anyway, and the spawned task should count as local work).
  template <ActiveMessageType Am>
  void send_forget(pe_id dst, Am am) {
    check_pe("AM send", dst, num_pes());
    if (dst == my_pe()) {
      send_cb(dst, std::move(am), [](am_return_t<Am>) {});
      return;
    }
    am_sent_remote_->inc();
    const request_id rid =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    write_record_inplace(dst, AmTypeId<Am>::id, 0, rid, am, 0,
                         /*allow_relay=*/!InlineAm<Am>);
  }

  /// Send a reply for request `rid` back to `dst` (used by executors).
  /// A non-zero `trace_span` (propagated from a sampled request's envelope)
  /// marks the reply traced; its wire ts is the reply-inject time, from
  /// which the origin computes the reply->complete stage.  Replies to
  /// runtime-internal (FIFO-ordered) AMs pass `allow_relay = false`.
  template <typename R>
  void send_reply(pe_id dst, request_id rid, const R& value,
                  std::uint64_t trace_span = 0, bool allow_relay = true) {
    replies_sent_->inc();
    write_record_inplace(dst, kReplyType, 0, rid, value, trace_span,
                         allow_relay);
  }

  /// Reply from a deferred AM task.  An untraced Unit reply joins the
  /// running chunk's ack list for `dst` and leaves in one kAckType record
  /// per origin when the chunk ends or blocks (DESIGN.md §7).  A reply that
  /// carries a value leaves at once: the value may live in the arena frame
  /// of this record.  A sampled reply leaves at once: its trace extension
  /// is per span.
  template <typename R>
  void reply(pe_id dst, request_id rid, const R& value,
             std::uint64_t trace_span) {
    if constexpr (std::is_same_v<R, Unit>) {
      if (trace_span == 0 && queue_ack(dst, rid)) return;
    }
    // This reply leaves before the chunk ends, and the origin may count the
    // AM complete as soon as it lands: publish the chunk's count first.
    if (Chunk* chunk = running_chunk()) publish_executed(*chunk);
    send_reply(dst, rid, value, trace_span);
  }

  // ---- progress / waiting ----

  /// Drain the fabric inbox, dispatching AM records and completing replies.
  /// Returns true if any message was processed.
  bool poll_inbox();

  /// Idle progress: poll, and flush residual aggregation buffers when the
  /// pool has no runnable work.
  void progress();

  /// Flush all partially filled aggregation buffers.
  void flush();

  /// Block (helping) until every AM launched by this PE has completed.
  void wait_all();

  /// Block (helping) until `f` is ready; returns its value.
  template <typename T>
  T block_on(Future<T> f) {
    release_running_chunk();
    flush();
    while (!f.ready()) {
      if (!pool_.try_run_one()) {
        const bool polled = poll_inbox();
        // Tasks executed while helping (nested AMs, replies) stage records
        // below the flush threshold; the pool looks busy while this task is
        // blocked, so the idle-flush path cannot fire — flush here.
        if (outgoing_.has_pending()) flush();
        // Oversubscribed hosts (thousands of PE threads on few cores) need
        // idle waiters off the core so the PEs with work can run.
        if (!polled) std::this_thread::yield();
      }
    }
    return f.get();
  }

  [[nodiscard]] std::uint64_t outstanding() const {
    return launched_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }

  Lamellae& lamellae() { return lamellae_; }
  ThreadPool& pool() { return pool_; }
  OutgoingQueues& outgoing() { return outgoing_; }
  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }
  obs::TraceCollector* tracer() { return tracer_; }

  /// Called by AmExecutor when a deferred record finishes exec().  Its
  /// chunk counts it and adds the count to am.executed before any reply of
  /// the chunk leaves: with the chunk's acks (write_acks), or ahead of a
  /// reply that leaves at once (reply).
  void note_am_executed();

  /// Called by AmExecutor when an inline record finishes exec().
  void note_inline_executed() { am_executed_->inc(); }

  /// Invoke exec() mapping void to Unit.
  template <typename Am>
  static am_return_t<Am> invoke_exec(Am& am, AmContext& ctx) {
    if constexpr (std::is_void_v<detail::am_exec_result_t<Am>>) {
      am.exec(ctx);
      return Unit{};
    } else {
      return am.exec(ctx);
    }
  }

  /// invoke_exec for AmExecutor.  A trace-sampled record (`span` != 0)
  /// also records the exec stage and emits the exec slice + flow step; an
  /// untraced one reads no clock.
  template <typename Am>
  am_return_t<Am> exec_record(Am& am, AmContext& ctx, std::uint64_t span) {
    if (span == 0) return invoke_exec<Am>(am, ctx);
    const sim_nanos start = lamellae_.now();
    auto result = invoke_exec<Am>(am, ctx);
    const sim_nanos end = lamellae_.now();
    const sim_nanos dur = end - start;
    stage_exec_ns_->record(dur);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record({"am_exec", "am", my_pe(), start, dur, 'X', dur});
      tracer_->record({"am_exec", "am", my_pe(), end, 0, 't', dur, span});
    }
    return result;
  }

 private:
  /// Serialize one record (header + payload) directly into the destination
  /// lane's active aggregation buffer under the lane lock — the single byte
  /// copy a steady-state remote AM performs.  The payload length is patched
  /// into the header after serialization; records at or above the
  /// aggregation threshold leave immediately (large-record bypass).
  ///
  /// A non-zero `trace_span` adds the 16-byte wire trace extension.  For
  /// requests the ts field is registered with the lane so it is patched
  /// with the buffer's departure time; replies keep their inject time (the
  /// value written here), per the wire.hpp contract.
  ///
  /// Under 2-hop routing (DESIGN.md §12) a small record whose RouteGrid
  /// relay differs from `dst` is serialized inside a kForwardType wrapper
  /// addressed to the relay instead; `allow_relay = false` (FIFO-ordered
  /// runtime-internal traffic) forces the direct path.  Records at or above
  /// `route_cutoff_` escape back to the direct lane after serialization —
  /// relaying them would double large payloads on the wire for no
  /// aggregation benefit.
  template <typename T>
  void write_record_inplace(pe_id dst, am_type_id type, std::uint32_t flags,
                            request_id rid, const T& value,
                            std::uint64_t trace_span = 0,
                            bool allow_relay = true) {
    if (trace_span != 0) flags |= kTraced;
    const pe_id hop =
        (route_2hop_ && allow_relay) ? grid_.relay(my_pe(), dst) : dst;
    if (hop == dst) {
      auto w = outgoing_.begin_record(dst);
      ByteBuffer& rec = w.buffer();
      const std::size_t start = w.record_start();
      rec.write_pod<std::uint32_t>(type);
      rec.write_pod<std::uint32_t>(flags);
      rec.write_pod<std::uint64_t>(rid);
      rec.write_pod<std::uint64_t>(0);  // payload length, patched below
      std::size_t ext_bytes = 0;
      if (trace_span != 0) {
        rec.write_pod<std::uint64_t>(trace_span);
        rec.write_pod<std::uint64_t>(lamellae_.now());
        ext_bytes = kTraceExtBytes;
        if (type != kReplyType) {
          w.note_trace(trace_span,
                       start + kRecordHeaderBytes + sizeof(std::uint64_t));
        }
      }
      {
        Serializer ser(rec);
        ScopedWorld scope(world_);
        ser.put(value);
      }
      const std::size_t record_bytes = rec.size() - start;
      rec.patch_pod<std::uint64_t>(
          start + kRecordHeaderBytes - sizeof(std::uint64_t),
          record_bytes - kRecordHeaderBytes - ext_bytes);
      bytes_copied_->inc(record_bytes);
      charge_serialize(record_bytes);
      outgoing_.commit_record(w, progress_fn_);
      return;
    }
    // Routed: serialize a complete inner record inside a forward wrapper on
    // the relay's lane.  The cutoff decision needs the serialized size, so
    // the record is built optimistically in place and pulled back out on the
    // rare large-record escape.
    auto w = outgoing_.begin_record(hop);
    ByteBuffer& rec = w.buffer();
    const std::size_t start = w.record_start();
    rec.write_pod<std::uint32_t>(kForwardType);
    rec.write_pod<std::uint32_t>(0);
    rec.write_pod<std::uint64_t>(0);
    rec.write_pod<std::uint64_t>(0);  // wrapper payload len, patched below
    rec.write_pod<std::uint32_t>(static_cast<std::uint32_t>(dst));
    rec.write_pod<std::uint32_t>(static_cast<std::uint32_t>(my_pe()));
    const std::size_t inner_start = rec.size();
    rec.write_pod<std::uint32_t>(type);
    rec.write_pod<std::uint32_t>(flags);
    rec.write_pod<std::uint64_t>(rid);
    rec.write_pod<std::uint64_t>(0);  // inner payload len, patched below
    std::size_t ext_bytes = 0;
    if (trace_span != 0) {
      rec.write_pod<std::uint64_t>(trace_span);
      rec.write_pod<std::uint64_t>(lamellae_.now());
      ext_bytes = kTraceExtBytes;
    }
    {
      Serializer ser(rec);
      ScopedWorld scope(world_);
      ser.put(value);
    }
    const std::size_t inner_bytes = rec.size() - inner_start;
    rec.patch_pod<std::uint64_t>(
        inner_start + kRecordHeaderBytes - sizeof(std::uint64_t),
        inner_bytes - kRecordHeaderBytes - ext_bytes);
    if (inner_bytes >= route_cutoff_) {
      // Escape hatch: move the finished inner record onto the direct lane.
      std::vector<std::byte> tmp(inner_bytes);
      std::memcpy(tmp.data(), rec.as_span().data() + inner_start, inner_bytes);
      rec.truncate(start);
      // Zero-byte commit; may release the lane's storage.
      outgoing_.commit_record(w, progress_fn_);
      auto w2 = outgoing_.begin_record(dst);
      const std::size_t start2 = w2.record_start();
      w2.buffer().write(tmp.data(), tmp.size());
      if (trace_span != 0 && type != kReplyType) {
        w2.note_trace(trace_span,
                      start2 + kRecordHeaderBytes + sizeof(std::uint64_t));
      }
      bytes_copied_->inc(tmp.size());
      charge_serialize(tmp.size());
      outgoing_.commit_record(w2, progress_fn_);
      return;
    }
    rec.patch_pod<std::uint64_t>(
        start + kRecordHeaderBytes - sizeof(std::uint64_t),
        rec.size() - start - kRecordHeaderBytes);
    if (trace_span != 0 && type != kReplyType) {
      w.note_trace(trace_span,
                   inner_start + kRecordHeaderBytes + sizeof(std::uint64_t));
    }
    const std::size_t record_bytes = rec.size() - start;
    bytes_copied_->inc(record_bytes);
    charge_serialize(record_bytes);
    sent_routed_->inc();
    outgoing_.commit_record(w, progress_fn_);
  }

  /// Deferred records of one inbox buffer, shared by the chunks that run
  /// them.
  using ChunkRecords = std::shared_ptr<std::vector<Task>>;

  /// Request ids the running chunk owes one origin an ack for.
  struct AckList {
    pe_id origin = 0;
    std::vector<request_id> ids;
  };

  /// A chunk being executed by this thread: records [next, end) are still
  /// to run, in wire order, `acks` holds the Unit replies of the ones that
  /// finished, and `executed` counts the finished ones not yet added to
  /// am.executed.
  struct Chunk {
    AmEngine* engine = nullptr;
    ChunkRecords records;
    std::size_t next = 0;
    std::size_t end = 0;
    std::vector<AckList> acks;
    std::uint64_t executed = 0;
  };

  void charge_serialize(std::size_t bytes);
  void dispatch_buffer(ByteBuffer buffer, pe_id src);

  /// Inject an inbox buffer's deferred records as at most
  /// `pool_.num_workers() + 1` contiguous chunk tasks, so every worker and
  /// one helping caller can take one.
  void spawn_chunks(std::vector<Task> records);
  Task chunk_task(ChunkRecords records, std::size_t begin, std::size_t end);
  void run_chunk(ChunkRecords records, std::size_t begin, std::size_t end);

  /// The chunk of this engine that this thread runs, or null.  Defined
  /// out of line, like every other read of the thread-locals: GCC 12's
  /// UBSan reported a null-pointer load for a read inlined into another
  /// translation unit.
  [[nodiscard]] Chunk* running_chunk() const;

  /// Append `rid` to the running chunk's ack list for `origin`; false when
  /// this thread runs no chunk of this engine.
  bool queue_ack(pe_id origin, request_id rid);

  /// Add `chunk`'s executed count to am.executed.
  void publish_executed(Chunk& chunk);

  /// Publish `chunk`'s executed count, then write one kAckType record per
  /// origin for its collected acks.
  void write_acks(Chunk& chunk);

  /// Blocking rule: a record that enters a helping wait (block_on or
  /// wait_all) first writes its chunk's acks and re-queues the chunk's
  /// records that have not started, so neither can wait behind it.  No-op
  /// outside a chunk.
  static void release_running_chunk();

  /// Dispatch one non-forward record (reply completion or AM execution).
  /// `src` is the PE that *originated* the record — for 2-hop traffic this
  /// is the origin carried in the wrapper, not the relay the fabric message
  /// physically came from.
  void dispatch_record(const AmEnvelope& env, std::span<const std::byte> payload,
                       pe_id src, AmDispatchBatch& batch);

  /// Handle a kForwardType wrapper: unwrap and dispatch when this PE is the
  /// final destination, otherwise re-aggregate the wrapper verbatim into our
  /// own lane toward the destination (the relay hop).
  void handle_forward(std::span<const std::byte> payload,
                      AmDispatchBatch& batch);

  Lamellae& lamellae_;
  ThreadPool& pool_;
  RuntimeConfig cfg_;
  OutgoingQueues outgoing_;
  /// poll_inbox() as the lanes' backpressure callback, built once.
  OutgoingQueues::ProgressFn progress_fn_;
  World* world_ = nullptr;
  obs::TraceCollector* tracer_ = nullptr;

  // AM-engine metrics ("am.*"), resolved once from the PE registry.
  obs::Counter* am_sent_remote_;
  obs::Counter* am_sent_local_;
  obs::Counter* am_executed_;
  obs::Counter* replies_sent_;
  obs::Counter* replies_received_;
  obs::Counter* ack_records_;
  obs::Counter* bytes_serialized_;
  obs::Counter* bytes_copied_;
  obs::Counter* idle_flushes_;
  obs::Histogram* reply_latency_ns_;

  // 2-hop routing (ISSUE 8): the grid, the mode/cutoff resolved from config,
  // and the origin/relay-side counters.
  RouteGrid grid_;
  bool route_2hop_ = false;
  std::size_t route_cutoff_ = 0;
  obs::Counter* sent_routed_;       // am.sent_routed (origin side)
  obs::Counter* relayed_records_;   // am.relayed_records (relay side)
  obs::Counter* relay_bytes_;       // am.relay_bytes (relay side)

  // Causal-trace sampling (tentpole, ISSUE 6): per-stage latency histograms
  // and the open/close span accounting checked at quiesce.
  std::uint64_t trace_sample_ = 0;
  obs::Histogram* stage_flight_ns_;
  obs::Histogram* stage_exec_ns_;
  obs::Histogram* stage_reply_complete_ns_;
  obs::Counter* spans_opened_;
  obs::Counter* spans_closed_;

  // Reply completers, indexed by the request id on the wire.
  CompleterTable completers_;

  // One cache line each: the issuing thread bumps the first two on every
  // send, whichever thread polls bumps completed_ on every completion.
  // next_request_id_ numbers sends for trace sampling and span ids.
  alignas(kCacheLine) std::atomic<request_id> next_request_id_{1};
  alignas(kCacheLine) std::atomic<std::uint64_t> launched_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> completed_{0};

  static thread_local Chunk* tl_chunk_;
};

/// Type-erased execution shim instantiated per AM type by the registration
/// macro: deserialize straight from the borrowed inbox view (no
/// intermediate copy), collect the execution task into the dispatch batch
/// (or run inline for runtime-internal control messages), and reply.
/// Inline AMs always reply with their own record: they need FIFO order
/// and are never relayed.
template <typename Am>
struct AmExecutor {
  static void execute(AmEngine& engine, pe_id src, const AmEnvelope& env,
                      std::span<const std::byte> payload,
                      AmDispatchBatch& batch) {
    const request_id rid = env.req_id;
    const std::uint32_t flags = env.flags;
    // Copied out of the envelope (which only lives for this call) so the
    // deferred task can time its exec stage and tag the reply.
    const std::uint64_t span = env.traced() ? env.trace_span : 0;
    Am am{};
    {
      Deserializer de(payload);
      ScopedWorld scope(engine.world());
      de.get(am);
    }
    engine.lamellae().charge(engine.lamellae().params().am_dispatch_ns);
    if constexpr (InlineAm<Am>) {
      ScopedWorld scope(engine.world());
      AmContext ctx(*engine.world(), src);
      auto result = engine.exec_record(am, ctx, span);
      engine.note_inline_executed();
      if ((flags & kWantsReply) != 0) {
        engine.send_reply(src, rid, result, span, /*allow_relay=*/false);
      }
      return;
    } else if constexpr (BorrowingAm<Am>) {
      // The deserialized AM holds spans into the inbox buffer; keep the
      // buffer alive until this task has executed and replied.  The arena
      // frame reclaims any result staging once the reply is serialized.
      batch.tasks.emplace_back([&engine, am = std::move(am), src, rid, flags,
                                span, hold = batch.require_hold()]() mutable {
        ScopedWorld scope(engine.world());
        AmContext ctx(*engine.world(), src);
        ArenaFrame frame;
        auto result = engine.exec_record(am, ctx, span);
        engine.note_am_executed();
        if ((flags & kWantsReply) != 0) engine.reply(src, rid, result, span);
        hold.reset();
      });
    } else {
      batch.tasks.emplace_back([&engine, am = std::move(am), src, rid, flags,
                                span]() mutable {
        ScopedWorld scope(engine.world());
        AmContext ctx(*engine.world(), src);
        auto result = engine.exec_record(am, ctx, span);
        engine.note_am_executed();
        if ((flags & kWantsReply) != 0) engine.reply(src, rid, result, span);
      });
    }
  }
};

}  // namespace lamellar

/// Register an AM type with the runtime lookup table.  Must appear at
/// namespace scope in exactly one translation unit per AM type — the C++
/// stand-in for the paper's #[am] procedural macro.
#define LAMELLAR_REGISTER_AM(T)                                       \
  template <>                                                         \
  const ::lamellar::am_type_id ::lamellar::AmTypeId<T>::id =          \
      ::lamellar::AmRegistry::instance().register_handler(            \
          #T, &::lamellar::AmExecutor<T>::execute)
