#include "obs/trace.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>

namespace lamellar::obs {

namespace {

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t next_collector_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity, std::uint32_t tid)
    : events_(round_pow2(capacity == 0 ? 1 : capacity)),
      mask_(events_.size() - 1),
      tid_(tid) {}

std::vector<TraceEvent> TraceRing::drain_ordered() const {
  const std::uint64_t held =
      head_ < events_.size() ? head_ : events_.size();
  std::vector<TraceEvent> out;
  out.reserve(held);
  for (std::uint64_t i = head_ - held; i < head_; ++i) {
    out.push_back(events_[i & mask_]);
  }
  return out;
}

TraceCollector::TraceCollector(bool enabled, std::size_t ring_capacity)
    : enabled_(enabled),
      ring_capacity_(ring_capacity),
      id_(next_collector_id()) {}

TraceRing& TraceCollector::ring() {
  struct Cache {
    std::uint64_t collector_id = 0;
    TraceRing* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.collector_id != id_) {
    cache.ring = register_ring();
    cache.collector_id = id_;
  }
  return *cache.ring;
}

TraceRing* TraceCollector::register_ring() {
  std::lock_guard lock(mu_);
  auto it = by_thread_.find(std::this_thread::get_id());
  if (it != by_thread_.end()) return it->second;
  rings_.push_back(std::make_unique<TraceRing>(
      ring_capacity_, static_cast<std::uint32_t>(rings_.size() + 1)));
  TraceRing* r = rings_.back().get();
  by_thread_.emplace(std::this_thread::get_id(), r);
  return r;
}

std::size_t TraceCollector::num_rings() const {
  std::lock_guard lock(mu_);
  return rings_.size();
}

std::string TraceCollector::to_chrome_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const auto& ring : rings_) {
    for (const auto& e : ring->drain_ordered()) {
      // Chrome trace timestamps are microseconds; keep ns precision with a
      // fractional part.
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":%zu,"
          "\"tid\":%u,\"ts\":%.3f",
          first ? "" : ",", e.name, e.category, e.phase, e.pe, ring->tid(),
          static_cast<double>(e.ts) / 1000.0);
      out += buf;
      if (e.phase == 'X') {
        std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                      static_cast<double>(e.dur) / 1000.0);
        out += buf;
      }
      if (e.phase == 'i') out += ",\"s\":\"t\"";
      if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
        // Flow events: the id chains them; bind to the enclosing slice so
        // Perfetto draws the arrows at the stage spans.
        std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64 ",\"bp\":\"e\"",
                      e.flow);
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"v\":%" PRIu64 "}}",
                    e.arg);
      out += buf;
      first = false;
    }
  }
  out += "]}";
  return out;
}

bool TraceCollector::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace lamellar::obs
