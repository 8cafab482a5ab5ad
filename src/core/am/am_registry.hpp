// Registration of active-message types.
//
// The paper's `#[am]` procedural macro assigns each AM a unique identifier
// "registered in a runtime lookup table, enabling AMs to properly
// deserialize and execute on remote PEs" (Sec. III-C).  Here the same table
// is populated at static-initialization time by the LAMELLAR_REGISTER_AM
// macro; because all PEs share the process, ids are trivially consistent
// across PEs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/am/wire.hpp"
#include "core/scheduler/task.hpp"

namespace lamellar {

class AmEngine;
class OutgoingQueues;

/// Keeps one aggregated inbox buffer alive while deferred tasks execute AMs
/// that borrow views of its payload (kBorrowsPayload types).  The
/// dispatcher parks the drained buffer here after the record walk; the last
/// task to release its reference recycles the buffer back to its owner's
/// pool.
/// (Moving the ByteBuffer moves a std::vector, so the heap storage — and
/// every span into it — stays put.)
struct InboxHold {
  ByteBuffer buffer;
  OutgoingQueues* recycler = nullptr;
  pe_id owner = 0;  // the PE whose lane filled `buffer`
  ~InboxHold();
};

/// Execution tasks collected in wire order while one aggregated buffer is
/// parsed, then run as a few contiguous chunk tasks (AmEngine::spawn_chunks)
/// instead of one pool task per record.
struct AmDispatchBatch {
  std::vector<Task> tasks;
  /// Created on demand by executors of payload-borrowing AM types; empty
  /// when every record either completed synchronously or was copied out.
  std::shared_ptr<InboxHold> hold;

  std::shared_ptr<InboxHold>& require_hold() {
    if (!hold) hold = std::make_shared<InboxHold>();
    return hold;
  }
};

/// Type-erased executor: deserializes an AM of its type straight from the
/// borrowed `payload` view (valid only for the duration of the call),
/// appends the execution task to `batch` (or runs inline for runtime-
/// internal AMs), and arranges the reply.  `env` is the parsed record
/// envelope (request id, flags, and — for sampled requests — the trace
/// span to propagate onto the reply); it is only valid for the duration of
/// the call, so deferred tasks must copy what they need.
using AmExecuteFn = void (*)(AmEngine& engine, pe_id src,
                             const AmEnvelope& env,
                             std::span<const std::byte> payload,
                             AmDispatchBatch& batch);

class AmRegistry {
 public:
  static AmRegistry& instance();

  am_type_id register_handler(std::string name, AmExecuteFn fn);

  [[nodiscard]] AmExecuteFn handler(am_type_id id) const;
  [[nodiscard]] const std::string& name(am_type_id id) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    AmExecuteFn fn;
  };
  std::vector<Entry> entries_;
};

/// Compile-time hook holding the runtime id of a registered AM type.
/// Specialized (defined) by LAMELLAR_REGISTER_AM.
template <typename Am>
struct AmTypeId {
  static const am_type_id id;
};

}  // namespace lamellar
