// Per-PE metrics registry (observability layer, ISSUE 1).
//
// Counters, gauges, and log2-bucketed latency histograms, registered by
// name.  Instrument sites resolve their handles once (a mutex-protected
// name lookup at construction time) and then update them with relaxed
// atomics — the hot path is a single uncontended fetch_add on a
// cache-line-padded word, cheap enough to stay on even in benchmark runs.
//
// A registry can be constructed disabled (LAMELLAR_METRICS=off): lookups
// then hand back shared inert slots that are not recorded as entries, so
// snapshots are empty and the instrument sites stay branch-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace lamellar::obs {

/// Monotone event counter.  Padded so independent counters never share a
/// cache line (the registry hands out one slot per name per PE).
struct alignas(kCacheLine) Counter {
  std::atomic<std::uint64_t> value{0};

  void inc(std::uint64_t n = 1) {
    value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const {
    return value.load(std::memory_order_relaxed);
  }
};

/// Instantaneous level (queue depth, live objects) with a high-water mark.
///
/// Two update idioms, both safe under concurrency:
///   * set(v)   — an absolute level the caller derives from its own source
///                of truth (e.g. a size it just computed under a lock);
///   * add(d) / sub(d) — delta updates where the gauge itself is the source
///                of truth.  These are a single fetch_add, so concurrent
///                deltas never lose updates (the old `set(get()±1)` idiom
///                was a racy read-modify-write, and its stale reads could
///                also publish a too-low level that a concurrent set()
///                would then miss in the high-water race).
struct alignas(kCacheLine) Gauge {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> high_water{0};

  void set(std::int64_t v) {
    value.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  void add(std::int64_t d) {
    const std::int64_t v = value.fetch_add(d, std::memory_order_relaxed) + d;
    if (d > 0) raise_high_water(v);
  }
  void sub(std::int64_t d) { add(-d); }
  [[nodiscard]] std::int64_t get() const {
    return value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const {
    return high_water.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v) {
    std::int64_t hw = high_water.load(std::memory_order_relaxed);
    while (v > hw && !high_water.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }
};

/// Log2-bucketed value histogram: bucket i counts values whose bit width is
/// i, i.e. [2^(i-1), 2^i), with 0 landing in bucket 0.  64 buckets cover
/// the full u64 range, so latencies in nanoseconds never saturate.
struct alignas(kCacheLine) Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max_value{0};

  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(v));
  }

  void record(std::uint64_t v) {
    buckets[bucket_of(v) < kBuckets ? bucket_of(v) : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = max_value.load(std::memory_order_relaxed);
    while (v > m && !max_value.compare_exchange_weak(
                        m, v, std::memory_order_relaxed)) {
    }
  }
};

/// Point-in-time copy of one histogram, usable without atomics.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bucket holding the p-quantile (p in [0,1]).
  [[nodiscard]] std::uint64_t quantile_bound(double p) const;

  /// Interpolated p-quantile (p in [0,1]): locate the log2 bucket holding
  /// the target rank and interpolate linearly within its value range
  /// [2^(i-1), 2^i).  Results are clamped to the observed max, so a
  /// single-sample histogram returns that sample exactly and the open-ended
  /// top bucket never reports beyond what was recorded.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  /// The standard latency triple, in recording units.
  struct Percentiles {
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };
  [[nodiscard]] Percentiles percentiles() const {
    return {percentile(0.50), percentile(0.90), percentile(0.99)};
  }
};

/// Plain-struct snapshot of a whole registry: what tests and the bench
/// drivers consume, and what the end-of-run reporters format.
struct MetricsSnapshot {
  pe_id pe = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name -> (value, high-water mark)
  std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
      gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; 0 when the counter was never registered.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Compact single-object JSON (histograms as
  /// {count,sum,max,mean,p50,p90,p99}).
  [[nodiscard]] std::string to_json() const;
};

/// Per-name counter and histogram deltas between two snapshots of the same
/// registry (`after` taken later than `before`).  Used by bench drivers to
/// attribute metrics to one phase of a multi-phase run: counters subtract,
/// histogram counts/sums/buckets subtract (percentiles then describe only
/// the interval), gauges keep their `after` state.  Names present only in
/// `after` pass through unchanged.
MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

/// Accumulate `delta` (typically a snapshot_delta result) into `into`:
/// counters and histogram counts/sums/buckets add, histogram max takes the
/// larger, gauges take `delta`'s (latest) state.  Names absent from `into`
/// are appended.  Used by bench drivers whose per-impl phases interleave,
/// so one impl's intervals must be summed across the run.
void snapshot_accumulate(MetricsSnapshot& into, const MetricsSnapshot& delta);

/// One registry per PE.  Registration (name lookup) takes a mutex and is
/// meant for construction time; the returned references stay valid for the
/// registry's lifetime (entries live in deques and never move).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot(pe_id pe = 0) const;

  /// Process-wide inert registry: layers constructed without a real
  /// registry resolve their handles here, so instrument sites never need a
  /// null check.
  static MetricsRegistry& disabled_instance();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T slot;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_index_;
  std::unordered_map<std::string, Gauge*> gauge_index_;
  std::unordered_map<std::string, Histogram*> histogram_index_;

  // Shared inert slots handed out when disabled.
  Counter inert_counter_;
  Gauge inert_gauge_;
  Histogram inert_histogram_;
};

}  // namespace lamellar::obs
