#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace lamellar::obs {

std::uint64_t HistogramSnapshot::quantile_bound(double p) const {
  if (count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > target) {
      return i == 0 ? 0 : (i >= 64 ? ~0ULL : (1ULL << i) - 1);
    }
  }
  return max;
}

std::uint64_t HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // 1-based target rank of the p-quantile sample.
  std::uint64_t rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count) + 0.9999999999);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    // Rank falls in bucket i, which covers [2^(i-1), 2^i) (bucket 0 holds
    // exactly the value 0; the top bucket also absorbs clamped overflow).
    if (i == 0) return 0;
    const double lo = static_cast<double>(1ULL << (i - 1));
    double hi = lo * 2.0;
    // The top bucket also absorbs clamped overflow (bucket_of >= 64), so
    // its true range extends past 2^63 up to the observed max.
    const double dmax = static_cast<double>(max);
    if (i == buckets.size() - 1 && dmax > hi) hi = dmax;
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets[i]);
    const double v = lo + frac * (hi - lo);
    // Never report beyond the observed maximum: keeps the single-sample
    // case exact and the open-ended top bucket honest.  Compare in double
    // before narrowing — dmax can round up to 2^64, where a u64 cast of
    // `v` would be undefined.
    if (v >= dmax) return max;
    return static_cast<std::uint64_t>(v);
  }
  return max;
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot out = after;
  for (auto& [name, v] : out.counters) {
    const std::uint64_t prev = before.counter(name);
    v = v >= prev ? v - prev : 0;
  }
  for (auto& h : out.histograms) {
    const HistogramSnapshot* prev = before.histogram(h.name);
    if (prev == nullptr) continue;
    h.count = h.count >= prev->count ? h.count - prev->count : 0;
    h.sum = h.sum >= prev->sum ? h.sum - prev->sum : 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] = h.buckets[i] >= prev->buckets[i]
                         ? h.buckets[i] - prev->buckets[i]
                         : 0;
    }
    // max is a high-water mark, not subtractable: keep the overall max,
    // which upper-bounds the interval's.
  }
  return out;
}

void snapshot_accumulate(MetricsSnapshot& into, const MetricsSnapshot& delta) {
  if (into.empty()) {
    const pe_id pe = into.pe;
    into = delta;
    into.pe = pe == 0 ? delta.pe : pe;
    return;
  }
  for (const auto& [name, v] : delta.counters) {
    bool found = false;
    for (auto& [n, acc] : into.counters) {
      if (n == name) {
        acc += v;
        found = true;
        break;
      }
    }
    if (!found) into.counters.emplace_back(name, v);
  }
  for (const auto& [name, vm] : delta.gauges) {
    bool found = false;
    for (auto& [n, acc] : into.gauges) {
      if (n == name) {
        acc = vm;  // instantaneous level: latest wins
        found = true;
        break;
      }
    }
    if (!found) into.gauges.emplace_back(name, vm);
  }
  for (const auto& h : delta.histograms) {
    HistogramSnapshot* acc = nullptr;
    for (auto& cand : into.histograms) {
      if (cand.name == h.name) {
        acc = &cand;
        break;
      }
    }
    if (acc == nullptr) {
      into.histograms.push_back(h);
      continue;
    }
    acc->count += h.count;
    acc->sum += h.sum;
    acc->max = std::max(acc->max, h.max);
    for (std::size_t i = 0; i < acc->buckets.size(); ++i) {
      acc->buckets[i] += h.buckets[i];
    }
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  char buf[320];
  out += "{\"pe\":" + std::to_string(pe) + ",\"counters\":{";
  bool first = true;
  for (const auto& [n, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  n.c_str(), v);
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [n, vm] : gauges) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%" PRId64 ",\"max\":%" PRId64 "}",
                  first ? "" : ",", n.c_str(), vm.first, vm.second);
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    const auto pct = h.percentiles();
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"max\":%" PRIu64 ",\"mean\":%.1f,\"p50\":%" PRIu64
                  ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
                  first ? "" : ",", h.name.c_str(), h.count, h.sum, h.max,
                  h.mean(), pct.p50, pct.p90, pct.p99);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  std::string key(name);
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return *it->second;
  counters_.emplace_back();
  counters_.back().name = key;
  Counter* slot = &counters_.back().slot;
  counter_index_.emplace(std::move(key), slot);
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  std::string key(name);
  auto it = gauge_index_.find(key);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.emplace_back();
  gauges_.back().name = key;
  Gauge* slot = &gauges_.back().slot;
  gauge_index_.emplace(std::move(key), slot);
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  std::string key(name);
  auto it = histogram_index_.find(key);
  if (it != histogram_index_.end()) return *it->second;
  histograms_.emplace_back();
  histograms_.back().name = key;
  Histogram* slot = &histograms_.back().slot;
  histogram_index_.emplace(std::move(key), slot);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot(pe_id pe) const {
  MetricsSnapshot snap;
  snap.pe = pe;
  std::lock_guard lock(mu_);
  for (const auto& e : counters_) {
    snap.counters.emplace_back(e.name, e.slot.get());
  }
  for (const auto& e : gauges_) {
    snap.gauges.emplace_back(e.name, std::make_pair(e.slot.get(),
                                                    e.slot.max()));
  }
  for (const auto& e : histograms_) {
    HistogramSnapshot h;
    h.name = e.name;
    h.count = e.slot.count.load(std::memory_order_relaxed);
    h.sum = e.slot.sum.load(std::memory_order_relaxed);
    h.max = e.slot.max_value.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = e.slot.buckets[i].load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(h));
  }
  // Deterministic ordering for tables and tests.
  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

MetricsRegistry& MetricsRegistry::process_instance() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace lamellar::obs
