#include "core/am/am_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace lamellar {

namespace {
thread_local World* tl_current_world = nullptr;
thread_local pe_id tl_am_src = 0;
}  // namespace

World* current_world() { return tl_current_world; }

ScopedWorld::ScopedWorld(World* w) : prev_(tl_current_world) {
  tl_current_world = w;
}

ScopedWorld::~ScopedWorld() { tl_current_world = prev_; }

pe_id current_am_src() { return tl_am_src; }

ScopedAmSrc::ScopedAmSrc(pe_id src) : prev_(tl_am_src) { tl_am_src = src; }

ScopedAmSrc::~ScopedAmSrc() { tl_am_src = prev_; }

AmEngine::AmEngine(Lamellae& lamellae, ThreadPool& pool,
                   const RuntimeConfig& cfg, obs::TraceCollector* tracer)
    : lamellae_(lamellae),
      pool_(pool),
      cfg_(cfg),
      outgoing_(lamellae, cfg.agg_threshold_bytes, tracer),
      tracer_(tracer),
      trace_sample_(cfg.trace_sample) {
  route_2hop_ = cfg.route == RouteMode::k2Hop;
  grid_ = RouteGrid::make(
      lamellae.num_pes(),
      PeMapping{std::max<std::size_t>(1, lamellae.pes_per_node())});
  route_cutoff_ = std::max<std::size_t>(1, cfg.agg_threshold_bytes / 8);
  obs::MetricsRegistry& reg = lamellae.metrics();
  am_sent_remote_ = &reg.counter("am.sent_remote");
  am_sent_local_ = &reg.counter("am.sent_local");
  am_executed_ = &reg.counter("am.executed");
  replies_sent_ = &reg.counter("am.replies_sent");
  replies_received_ = &reg.counter("am.replies_received");
  ack_records_ = &reg.counter("am.ack_records");
  bytes_serialized_ = &reg.counter("am.bytes_serialized");
  bytes_copied_ = &reg.counter("am.bytes_copied");
  idle_flushes_ = &reg.counter("am.idle_flushes");
  reply_latency_ns_ = &reg.histogram("am.reply_latency_ns");
  stage_flight_ns_ = &reg.histogram("am.stage_flight_ns");
  stage_exec_ns_ = &reg.histogram("am.stage_exec_ns");
  stage_reply_complete_ns_ = &reg.histogram("am.stage_reply_complete_ns");
  spans_opened_ = &reg.counter("trace.spans_opened");
  spans_closed_ = &reg.counter("trace.spans_closed");
  sent_routed_ = &reg.counter("am.sent_routed");
  relayed_records_ = &reg.counter("am.relayed_records");
  relay_bytes_ = &reg.counter("am.relay_bytes");
  progress_fn_ = [this] { poll_inbox(); };
}

void AmEngine::charge_serialize(std::size_t bytes) {
  bytes_serialized_->inc(bytes);
  lamellae_.charge(lamellae_.params().serialize_ns(bytes));
}

bool AmEngine::poll_inbox() {
  bool any = false;
  FabricMessage msg;
  while (lamellae_.poll(msg)) {
    any = true;
    dispatch_buffer(std::move(msg.payload), msg.src);
  }
  return any;
}

void AmEngine::dispatch_record(const AmEnvelope& env,
                               std::span<const std::byte> payload, pe_id src,
                               AmDispatchBatch& batch) {
  if (env.type == kAckType) {
    // One record completes many Unit requests; the ids are read one by one
    // from the serialized std::vector<request_id> (wire.hpp).  An ack
    // carries no sampled request, so no completer reads the clock.  The
    // completions are published once, after every callback that ran: also
    // when one throws.
    struct Publish {
      std::atomic<std::uint64_t>& completed;
      std::uint64_t n = 0;
      ~Publish() {
        if (n != 0) completed.fetch_add(n, std::memory_order_release);
      }
    } done{completed_};
    Deserializer de(payload);
    std::uint64_t n = 0;
    de.get(n);
    replies_received_->inc(n);
    Deserializer unit{std::span<const std::byte>{}};
    for (std::uint64_t i = 0; i < n; ++i) {
      request_id rid = 0;
      de.get(rid);
      completers_.take(rid)(unit);
      ++done.n;
    }
    return;
  }
  if (env.type == kReplyType) {
    replies_received_->inc();
    if (env.traced()) {
      // The reply's wire ts is the executing PE's reply-inject time; the
      // difference to our arrival clock is the reply->complete stage.
      // Clamped at zero: per-PE virtual clocks are not globally ordered.
      const sim_nanos now = lamellae_.now();
      const auto sent = static_cast<sim_nanos>(env.trace_ts);
      const sim_nanos dur = now >= sent ? now - sent : 0;
      stage_reply_complete_ns_->record(static_cast<std::uint64_t>(dur));
      spans_closed_->inc();
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->record({"am_complete", "am", my_pe(), now, 0, 'f',
                         static_cast<std::uint64_t>(dur), env.trace_span});
      }
    }
    CompleterTable::Completer completer = completers_.take(env.req_id);
    // Deserialize the return value straight from the inbox buffer; the
    // borrowed view only needs to outlive this synchronous call.  Span
    // replies may stage a misaligned-fallback copy in the arena; the
    // frame reclaims it once the completer has scattered the results.
    ArenaFrame frame;
    Deserializer de(payload);
    completer(de);
    completed_.fetch_add(1, std::memory_order_release);
    return;
  }
  if (env.traced()) {
    // The request's wire ts was patched with the origin's flush time when
    // its aggregation buffer departed; arrival minus that is the flight
    // stage (clamped: per-PE virtual clocks are not globally ordered).
    // For 2-hop traffic the stage spans origin flush -> final arrival,
    // including relay residency — the true end-to-end flight.
    const sim_nanos now = lamellae_.now();
    const auto flushed = static_cast<sim_nanos>(env.trace_ts);
    const sim_nanos dur = now >= flushed ? now - flushed : 0;
    stage_flight_ns_->record(static_cast<std::uint64_t>(dur));
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record({"am_recv", "am", my_pe(), now, 0, 't',
                       static_cast<std::uint64_t>(dur), env.trace_span});
    }
  }
  AmRegistry::instance().handler(env.type)(*this, src, env, payload, batch);
}

void AmEngine::handle_forward(std::span<const std::byte> payload,
                              AmDispatchBatch& batch) {
  if (payload.size() < kForwardPrefixBytes) {
    throw DeserializeError("forward record: truncated routing prefix");
  }
  std::uint32_t fdst32 = 0;
  std::uint32_t origin32 = 0;
  std::memcpy(&fdst32, payload.data(), sizeof(fdst32));
  std::memcpy(&origin32, payload.data() + sizeof(fdst32), sizeof(origin32));
  const auto fdst = static_cast<pe_id>(fdst32);
  const auto origin = static_cast<pe_id>(origin32);
  if (fdst >= num_pes() || origin >= num_pes()) {
    throw DeserializeError("forward record: PE id out of range");
  }
  std::span<const std::byte> inner = payload.subspan(kForwardPrefixBytes);
  if (fdst == my_pe()) {
    AmEnvelope ienv;
    std::span<const std::byte> ipayload;
    if (!read_record(inner, ienv, ipayload)) {
      throw DeserializeError("forward record: empty inner record");
    }
    // Dispatch as if the record had arrived directly from the origin: the
    // deserializer and any reply must see the origin, not the relay the
    // fabric message physically came from.
    ScopedAmSrc src_scope(origin);
    dispatch_record(ienv, ipayload, origin, batch);
    return;
  }
  // Relay hop: copy the wrapper verbatim into our own lane toward the final
  // destination (we sit in its column, so relay(my_pe, fdst) == fdst) — the
  // re-aggregation that turns O(P) origin lanes into O(sqrt P).  Relay
  // traffic is deliberately excluded from bytes_copied/bytes_serialized
  // (those count origin-side serialization once per record); the copy cost
  // is still charged to the modeled clock.
  relayed_records_->inc();
  relay_bytes_->inc(payload.size());
  lamellae_.charge(lamellae_.params().serialize_ns(payload.size()));
  auto w = outgoing_.begin_record(fdst);
  ByteBuffer& rec = w.buffer();
  rec.write_pod<std::uint32_t>(kForwardType);
  rec.write_pod<std::uint32_t>(0);
  rec.write_pod<std::uint64_t>(0);
  rec.write_pod<std::uint64_t>(payload.size());
  rec.write(payload.data(), payload.size());
  outgoing_.commit_record(w, progress_fn_);
}

void AmEngine::dispatch_buffer(ByteBuffer buffer, pe_id src) {
  ScopedWorld scope(world_);
  ScopedAmSrc src_scope(src);
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const sim_nanos start = tracing ? lamellae_.now() : 0;
  std::uint64_t records = 0;
  AmEnvelope env;
  std::span<const std::byte> cursor = buffer.as_span();
  std::span<const std::byte> payload;
  AmDispatchBatch batch;
  while (read_record(cursor, env, payload)) {
    ++records;
    if (env.type == kForwardType) {
      handle_forward(payload, batch);
      continue;
    }
    dispatch_record(env, payload, src, batch);
  }
  if (batch.hold) {
    // Some deferred task borrows payload views: park the buffer in the
    // hold (vector move — the storage the spans point at stays put) and
    // let the last task's release recycle it.
    batch.hold->buffer = std::move(buffer);
    batch.hold->recycler = &outgoing_;
    batch.hold->owner = src;
    batch.hold.reset();
  } else {
    // Every payload view has been consumed: hand the drained buffer back to
    // its sender's pool so a later send reuses its storage.
    outgoing_.recycle(std::move(buffer), src);
  }
  spawn_chunks(std::move(batch.tasks));
  if (tracing) {
    tracer_->record({"dispatch_buffer", "am", my_pe(), start,
                     lamellae_.now() - start, 'X', records});
  }
}

thread_local AmEngine::Chunk* AmEngine::tl_chunk_ = nullptr;

void AmEngine::spawn_chunks(std::vector<Task> records) {
  const std::size_t n = records.size();
  if (n == 0) return;
  const std::size_t k = std::min(n, pool_.num_workers() + 1);
  auto shared = std::make_shared<std::vector<Task>>(std::move(records));
  std::vector<Task> chunks;
  chunks.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    chunks.push_back(chunk_task(shared, n * c / k, n * (c + 1) / k));
  }
  // One pending update and one wake for the whole buffer.
  pool_.spawn_batch(std::move(chunks));
}

Task AmEngine::chunk_task(ChunkRecords records, std::size_t begin,
                          std::size_t end) {
  return [this, records = std::move(records), begin, end]() mutable {
    run_chunk(std::move(records), begin, end);
  };
}

void AmEngine::run_chunk(ChunkRecords records, std::size_t begin,
                         std::size_t end) {
  Chunk chunk{this, std::move(records), begin, end, {}};
  struct Bind {
    Chunk* outer;
    ~Bind() { tl_chunk_ = outer; }
  } bind{std::exchange(tl_chunk_, &chunk)};
  while (chunk.next < chunk.end) {
    // Moved out so that what the record holds (a Darc, an inbox hold) is
    // released as soon as it has run.
    Task record = std::move((*chunk.records)[chunk.next++]);
    record();
  }
  write_acks(chunk);
}

AmEngine::Chunk* AmEngine::running_chunk() const {
  Chunk* chunk = tl_chunk_;
  return chunk != nullptr && chunk->engine == this ? chunk : nullptr;
}

void AmEngine::note_am_executed() {
  if (Chunk* chunk = running_chunk()) {
    ++chunk->executed;
  } else {
    am_executed_->inc();
  }
}

bool AmEngine::queue_ack(pe_id origin, request_id rid) {
  Chunk* chunk = running_chunk();
  if (chunk == nullptr) return false;
  // A chunk almost always owes one origin; relayed traffic brings a few.
  auto it = std::find_if(
      chunk->acks.rbegin(), chunk->acks.rend(),
      [origin](const AckList& a) { return a.origin == origin; });
  if (it == chunk->acks.rend()) {
    chunk->acks.push_back(AckList{origin, {}});
    it = chunk->acks.rbegin();
  }
  it->ids.push_back(rid);
  return true;
}

void AmEngine::publish_executed(Chunk& chunk) {
  if (chunk.executed != 0) am_executed_->inc(std::exchange(chunk.executed, 0));
}

void AmEngine::write_acks(Chunk& chunk) {
  publish_executed(chunk);
  const std::vector<AckList> acks = std::exchange(chunk.acks, {});
  for (const AckList& a : acks) {
    replies_sent_->inc(a.ids.size());
    ack_records_->inc();
    write_record_inplace(a.origin, kAckType, 0, 0, a.ids);
  }
}

void AmEngine::release_running_chunk() {
  Chunk* chunk = tl_chunk_;
  if (chunk == nullptr) return;
  AmEngine& engine = *chunk->engine;
  engine.write_acks(*chunk);
  if (chunk->next < chunk->end) {
    engine.pool_.spawn(
        engine.chunk_task(chunk->records, chunk->next, chunk->end));
    chunk->end = chunk->next;
  }
}

void AmEngine::progress() {
  const bool polled = poll_inbox();
  if (!polled && pool_.pending() == 0 && outgoing_.has_pending()) {
    // Idle: push residual aggregation buffers out so fire-and-forget AMs
    // are not stranded below the flush threshold.
    idle_flushes_->inc();
    flush();
  }
}

void AmEngine::flush() { outgoing_.flush_all(progress_fn_); }

void AmEngine::wait_all() {
  release_running_chunk();
  flush();
  while (outstanding() > 0) {
    if (!pool_.try_run_one()) {
      const bool polled = poll_inbox();
      // Replies produced by remote PEs may still be sitting in *their*
      // aggregation buffers; their idle workers flush them.  Meanwhile our
      // own residuals must also leave.
      if (outgoing_.has_pending()) flush();
      // At paper-scale PE counts thousands of PE threads share few cores;
      // spinning here starves the PEs that actually hold our replies.
      if (!polled) std::this_thread::yield();
    }
  }
}

}  // namespace lamellar
