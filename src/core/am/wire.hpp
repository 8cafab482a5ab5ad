// Wire format for active-message records inside aggregation buffers.
//
// A transferred buffer is a concatenation of records:
//   [u32 am_type][u32 flags][u64 req_id][u64 payload_len][payload bytes]
// Replies reuse the same framing with type = kReplyType and the request id
// of the originating AM; the payload is the serialized return value.
// Batched completion acks (type = kAckType) answer many Unit-returning
// requests of one origin at once; their payload lists the request ids.
//
// Records carrying the kTraced flag insert a 16-byte trace extension
// between the header and the payload:
//   [u64 span_id][u64 ts]
// `span_id` identifies one sampled request end-to-end (origin PE in the
// high 16 bits, origin request id below), so per-PE trace rings stitch into
// one causal timeline.  `ts` is a Lamellae::now() nanosecond stamp whose
// meaning depends on direction: requests carry the origin's *flush* time
// (patched when the aggregation buffer departs, so the receiver can compute
// flight latency), replies carry the executing PE's reply-inject time (so
// the origin can compute reply→complete latency).  Untraced records are
// byte-for-byte identical to the pre-tracing format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace lamellar {

inline constexpr am_type_id kReplyType = 0xFFFFFFFFu;

/// Relay-forwarded wrapper record (2-hop routing, DESIGN.md §12).  The
/// wrapper's own header carries type = kForwardType, flags = 0, req_id = 0;
/// its payload is
///   [u32 final_dst][u32 origin][one complete inner record]
/// where the inner record uses the standard framing above (header, optional
/// trace extension, payload).  A relay whose PE id != final_dst copies the
/// wrapper verbatim into its own aggregation lane toward final_dst
/// (re-aggregation); the final destination unwraps and dispatches the inner
/// record as if it had arrived directly from `origin` — replies must route
/// to the origin, not to the relay the fabric message came from.
inline constexpr am_type_id kForwardType = 0xFFFFFFFEu;
inline constexpr std::size_t kForwardPrefixBytes = sizeof(std::uint32_t) * 2;

/// Batched completion ack (DESIGN.md §7).  The header carries type =
/// kAckType, flags = 0, req_id = 0; the payload is a serialized
/// std::vector<request_id>:
///   [u64 n][n x u64 request id]
/// listing, in execution order, the requests of one origin whose AMs
/// returned Unit and ran in one receive-side chunk.  The origin completes
/// each id as if it had received a reply with an empty (Unit) value.  Ack
/// records route like replies (2-hop relaying included) and never carry
/// the trace extension: sampled requests keep their own reply record.
inline constexpr am_type_id kAckType = 0xFFFFFFFDu;

enum AmFlags : std::uint32_t {
  kWantsReply = 1u << 0,
  kTraced = 1u << 1,
};

struct AmEnvelope {
  am_type_id type = 0;
  std::uint32_t flags = 0;
  request_id req_id = 0;
  // Trace extension (valid only when flags & kTraced).
  std::uint64_t trace_span = 0;
  std::uint64_t trace_ts = 0;

  [[nodiscard]] bool traced() const { return (flags & kTraced) != 0; }
};

inline constexpr std::size_t kRecordHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * 2;
inline constexpr std::size_t kTraceExtBytes = sizeof(std::uint64_t) * 2;

/// Globally unique span id for a sampled request: origin PE in the top 16
/// bits over that PE's monotone request id.
inline std::uint64_t make_trace_span(pe_id origin, request_id rid) {
  return (static_cast<std::uint64_t>(origin) << 48) |
         (rid & ((1ULL << 48) - 1));
}
inline pe_id trace_span_origin(std::uint64_t span) {
  return static_cast<pe_id>(span >> 48);
}

inline void write_record(ByteBuffer& out, const AmEnvelope& env,
                         std::span<const std::byte> payload) {
  out.write_pod<std::uint32_t>(env.type);
  out.write_pod<std::uint32_t>(env.flags);
  out.write_pod<std::uint64_t>(env.req_id);
  out.write_pod<std::uint64_t>(payload.size());
  if (env.traced()) {
    out.write_pod<std::uint64_t>(env.trace_span);
    out.write_pod<std::uint64_t>(env.trace_ts);
  }
  out.write(payload.data(), payload.size());
}

/// Read the next record from the front of `in`, shrinking `in` past it.
/// Returns false when `in` is empty.  The payload view aliases the original
/// buffer and is valid as long as that buffer's storage is.
inline bool read_record(std::span<const std::byte>& in, AmEnvelope& env,
                        std::span<const std::byte>& payload) {
  if (in.empty()) return false;
  if (in.size() < kRecordHeaderBytes) {
    throw DeserializeError("read_record: truncated record header");
  }
  std::uint64_t len = 0;
  std::memcpy(&env.type, in.data(), sizeof(env.type));
  std::memcpy(&env.flags, in.data() + 4, sizeof(env.flags));
  std::memcpy(&env.req_id, in.data() + 8, sizeof(env.req_id));
  std::memcpy(&len, in.data() + 16, sizeof(len));
  std::size_t off = kRecordHeaderBytes;
  if (env.traced()) {
    if (in.size() - off < kTraceExtBytes) {
      throw DeserializeError("read_record: truncated trace extension");
    }
    std::memcpy(&env.trace_span, in.data() + off, sizeof(env.trace_span));
    std::memcpy(&env.trace_ts, in.data() + off + 8, sizeof(env.trace_ts));
    off += kTraceExtBytes;
  } else {
    env.trace_span = 0;
    env.trace_ts = 0;
  }
  if (in.size() - off < len) {
    throw DeserializeError("read_record: truncated record payload");
  }
  payload = in.subspan(off, static_cast<std::size_t>(len));
  in = in.subspan(off + static_cast<std::size_t>(len));
  return true;
}

/// ByteBuffer convenience: reads at the buffer's cursor, advancing it.
inline bool read_record(ByteBuffer& in, AmEnvelope& env,
                        std::span<const std::byte>& payload) {
  if (in.remaining() == 0) return false;
  env.type = in.read_pod<std::uint32_t>();
  env.flags = in.read_pod<std::uint32_t>();
  env.req_id = in.read_pod<std::uint64_t>();
  const auto len = in.read_pod<std::uint64_t>();
  if (env.traced()) {
    env.trace_span = in.read_pod<std::uint64_t>();
    env.trace_ts = in.read_pod<std::uint64_t>();
  } else {
    env.trace_span = 0;
    env.trace_ts = 0;
  }
  payload = in.read_view(static_cast<std::size_t>(len));
  return true;
}

}  // namespace lamellar
