#include "core/am/am_registry.hpp"

#include "common/error.hpp"
#include "core/am/wire.hpp"
#include "lamellae/cmd_queue.hpp"

namespace lamellar {

InboxHold::~InboxHold() {
  if (recycler != nullptr) recycler->recycle(std::move(buffer), owner);
}

AmRegistry& AmRegistry::instance() {
  static AmRegistry registry;
  return registry;
}

am_type_id AmRegistry::register_handler(std::string name, AmExecuteFn fn) {
  const auto id = static_cast<am_type_id>(entries_.size());
  if (id >= kAckType) throw Error("AmRegistry: id space exhausted");
  entries_.push_back(Entry{std::move(name), fn});
  return id;
}

AmExecuteFn AmRegistry::handler(am_type_id id) const {
  if (id >= entries_.size()) {
    throw Error("AmRegistry: unknown AM type id " + std::to_string(id));
  }
  return entries_[id].fn;
}

const std::string& AmRegistry::name(am_type_id id) const {
  if (id >= entries_.size()) {
    throw Error("AmRegistry: unknown AM type id " + std::to_string(id));
  }
  return entries_[id].name;
}

}  // namespace lamellar
