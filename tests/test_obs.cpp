// Observability layer: metrics registry correctness under concurrency,
// end-to-end snapshot consistency through a multi-PE world, trace-ring
// wraparound semantics, Chrome JSON export, and the metrics-off path.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/am/wire.hpp"
#include "lamellar.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lamellar;

struct PingAm {
  std::uint64_t v = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(v);
  }
  std::uint64_t exec(AmContext& ctx) { return v + ctx.current_pe() + 1; }
};

}  // namespace

LAMELLAR_REGISTER_AM(PingAm);

namespace {

// ---- Registry primitives ----

TEST(ObsMetrics, CounterConcurrentIncrements) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEach = 50'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kEach; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.get(), kThreads * kEach);
  EXPECT_EQ(reg.snapshot().counter("test.hits"), kThreads * kEach);
}

TEST(ObsMetrics, RegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same.name");
  obs::Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(reg.snapshot().counter("same.name"), 7u);
  // Registration from many threads also converges on one slot.
  std::vector<std::thread> ts;
  std::vector<obs::Counter*> slots(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&reg, &slots, t] {
      slots[t] = &reg.counter("racy.name");
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(slots[t], slots[0]);
}

TEST(ObsMetrics, GaugeHighWaterMark) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("test.depth");
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.get(), 3);
  EXPECT_EQ(g.max(), 12);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second.first, 3);
  EXPECT_EQ(snap.gauges[0].second.second, 12);
}

TEST(ObsMetrics, HistogramBucketsAndStats) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.lat");
  // bucket_of: 0 -> 0, 1 -> 1, [2,4) -> 2, [4,8) -> 3, ...
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ULL), 64u - 0u);

  constexpr int kThreads = 4;
  constexpr std::uint64_t kEach = 10'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kEach; ++i) h.record(i % 100);
    });
  }
  for (auto& t : ts) t.join();

  auto snap = reg.snapshot();
  const auto* hs = snap.histogram("test.lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kThreads * kEach);
  EXPECT_EQ(hs->max, 99u);
  // sum = threads * sum(0..99) * (kEach/100)
  EXPECT_EQ(hs->sum, kThreads * 4950ULL * (kEach / 100));
  EXPECT_NEAR(hs->mean(), 49.5, 0.01);
  std::uint64_t bucket_total = 0;
  for (auto b : hs->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hs->count);
  EXPECT_GE(hs->quantile_bound(0.99), 63u);  // p99 of 0..99 is in [64,128)
}

TEST(ObsMetrics, DisabledRegistryHasZeroEntries) {
  obs::MetricsRegistry reg(false);
  EXPECT_FALSE(reg.enabled());
  reg.counter("a").inc();
  reg.gauge("b").set(7);
  reg.histogram("c").record(42);
  auto snap = reg.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.counter("a"), 0u);
  // Disabled lookups share the inert slots; no per-name allocation.
  EXPECT_EQ(&reg.counter("x"), &reg.counter("y"));
}

TEST(ObsMetrics, SnapshotJsonShape) {
  obs::MetricsRegistry reg;
  reg.counter("n.c").inc(5);
  reg.gauge("n.g").set(2);
  reg.histogram("n.h").record(10);
  auto json = reg.snapshot(3).to_json();
  EXPECT_NE(json.find("\"pe\":3"), std::string::npos);
  EXPECT_NE(json.find("\"n.c\":5"), std::string::npos);
  EXPECT_NE(json.find("\"n.g\""), std::string::npos);
  EXPECT_NE(json.find("\"n.h\""), std::string::npos);
  auto line = obs::bench_json_line("bench_x", "impl_y", reg.snapshot(3));
  EXPECT_NE(line.find("\"bench\":\"bench_x\""), std::string::npos);
  EXPECT_NE(line.find("\"impl\":\"impl_y\""), std::string::npos);
}

// ---- Percentile edge cases ----

TEST(ObsMetrics, PercentileEmptyHistogramIsZero) {
  obs::HistogramSnapshot hs;
  EXPECT_EQ(hs.percentile(0.0), 0u);
  EXPECT_EQ(hs.percentile(0.5), 0u);
  EXPECT_EQ(hs.percentile(1.0), 0u);
  const auto p = hs.percentiles();
  EXPECT_EQ(p.p50, 0u);
  EXPECT_EQ(p.p90, 0u);
  EXPECT_EQ(p.p99, 0u);
}

TEST(ObsMetrics, PercentileSingleSampleIsExact) {
  obs::MetricsRegistry reg;
  reg.histogram("h").record(777);
  const auto snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  // Clamping to the observed max makes every quantile the sample itself,
  // even though 777's log2 bucket spans [512, 1024).
  EXPECT_EQ(hs->percentile(0.01), 777u);
  EXPECT_EQ(hs->percentile(0.50), 777u);
  EXPECT_EQ(hs->percentile(0.99), 777u);
}

TEST(ObsMetrics, PercentileAllInOneBucket) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  for (int i = 0; i < 1000; ++i) h.record(1000);  // all in [512, 1024)
  const auto snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  const auto p = hs->percentiles();
  // Every rank interpolates inside one bucket; all are clamped to max and
  // ordered.
  EXPECT_GE(p.p50, 512u);
  EXPECT_LE(p.p50, 1000u);
  EXPECT_LE(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p99);
  EXPECT_EQ(p.p99, 1000u);
}

TEST(ObsMetrics, PercentileMaxBucketOverflow) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  // bucket_of(~0) == 64, clamped into the last bucket (63) by record().
  h.record(~0ULL);
  h.record(~0ULL);
  h.record(1);
  const auto snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->buckets[obs::Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(hs->max, ~0ULL);
  // The open-ended top bucket must clamp to the observed max (no wraparound
  // computing 2^64 as its upper bound).
  EXPECT_EQ(hs->percentile(0.99), ~0ULL);
  EXPECT_EQ(hs->percentile(1.0), ~0ULL);
}

TEST(ObsMetrics, PercentileMonotoneOverUniformData) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  for (std::uint64_t v = 0; v < 1024; ++v) h.record(v);
  const auto snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  std::uint64_t prev = 0;
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t q = hs->percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    EXPECT_LE(q, hs->max);
    prev = q;
  }
  // p50 of 0..1023 lies in the [512,1024) bucket.
  EXPECT_GE(hs->percentile(0.5), 256u);
  EXPECT_LE(hs->percentile(0.5), 1023u);
}

// ---- Gauge delta semantics ----

TEST(ObsMetrics, GaugeAddSubAndHighWater) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("g");
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.get(), 3);
  EXPECT_EQ(g.max(), 5);
  g.sub(10);  // negative levels are representable; no high-water change
  EXPECT_EQ(g.get(), -7);
  EXPECT_EQ(g.max(), 5);
}

TEST(ObsMetrics, GaugeConcurrentDeltasNeverLoseUpdates) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("g");
  constexpr int kThreads = 8;
  constexpr int kEach = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&g] {
      for (int i = 0; i < kEach; ++i) {
        g.add(1);
        g.sub(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  // The old set(get()+1) idiom would routinely end nonzero here.
  EXPECT_EQ(g.get(), 0);
  EXPECT_GE(g.max(), 1);
  EXPECT_LE(g.max(), kThreads);
}

// ---- Snapshot accumulation (interleaved bench attribution) ----

TEST(ObsMetrics, SnapshotAccumulateSumsIntervals) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h");
  obs::Gauge& g = reg.gauge("g");

  auto s0 = reg.snapshot(2);
  c.inc(10);
  h.record(100);
  g.set(4);
  auto s1 = reg.snapshot(2);
  c.inc(5);
  h.record(3000);
  g.set(1);
  auto s2 = reg.snapshot(2);

  obs::MetricsSnapshot acc;
  obs::snapshot_accumulate(acc, obs::snapshot_delta(s0, s1));
  obs::snapshot_accumulate(acc, obs::snapshot_delta(s1, s2));
  EXPECT_EQ(acc.pe, 2);
  EXPECT_EQ(acc.counter("c"), 15u);
  const auto* hs = acc.histogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->sum, 3100u);
  EXPECT_EQ(hs->max, 3000u);
  // Gauges are levels, not rates: latest interval wins.
  ASSERT_FALSE(acc.gauges.empty());
  EXPECT_EQ(acc.counter("c"), 15u);
  for (const auto& [name, vals] : acc.gauges) {
    if (name == "g") {
      EXPECT_EQ(vals.first, 1);
    }
  }
}

// ---- Wire-format trace extension ----

TEST(ObsWire, UntracedRecordIsByteForByteLegacy) {
  const std::array<std::byte, 3> payload{std::byte{0xAA}, std::byte{0xBB},
                                         std::byte{0xCC}};
  AmEnvelope env;
  env.type = 7;
  env.flags = kWantsReply;  // no kTraced
  env.req_id = 42;
  ByteBuffer buf;
  write_record(buf, env, payload);

  // Hand-build the pre-tracing layout and compare bytes.
  ByteBuffer legacy;
  legacy.write_pod<std::uint32_t>(7);
  legacy.write_pod<std::uint32_t>(kWantsReply);
  legacy.write_pod<std::uint64_t>(42);
  legacy.write_pod<std::uint64_t>(payload.size());
  legacy.write(payload.data(), payload.size());
  ASSERT_EQ(buf.size(), legacy.size());
  EXPECT_EQ(buf.size(), kRecordHeaderBytes + payload.size());
  EXPECT_EQ(std::memcmp(buf.data(), legacy.data(), buf.size()), 0);

  // Round-trip resets the (absent) trace fields.
  AmEnvelope out;
  out.trace_span = 0xDEAD;
  out.trace_ts = 0xBEEF;
  std::span<const std::byte> view{buf.data(), buf.size()};
  std::span<const std::byte> body;
  ASSERT_TRUE(read_record(view, out, body));
  EXPECT_FALSE(out.traced());
  EXPECT_EQ(out.trace_span, 0u);
  EXPECT_EQ(out.trace_ts, 0u);
  EXPECT_EQ(body.size(), payload.size());
  EXPECT_TRUE(view.empty());
}

TEST(ObsWire, TracedRecordRoundTripsSpanAndTs) {
  const std::array<std::byte, 5> payload{std::byte{1}, std::byte{2},
                                         std::byte{3}, std::byte{4},
                                         std::byte{5}};
  AmEnvelope env;
  env.type = 3;
  env.flags = kWantsReply | kTraced;
  env.req_id = 99;
  env.trace_span = make_trace_span(11, 99);
  env.trace_ts = 123'456'789;
  ByteBuffer buf;
  write_record(buf, env, payload);
  EXPECT_EQ(buf.size(), kRecordHeaderBytes + kTraceExtBytes + payload.size());

  // Span-view overload.
  {
    AmEnvelope out;
    std::span<const std::byte> view{buf.data(), buf.size()};
    std::span<const std::byte> body;
    ASSERT_TRUE(read_record(view, out, body));
    EXPECT_TRUE(out.traced());
    EXPECT_EQ(out.type, 3u);
    EXPECT_EQ(out.req_id, 99u);
    EXPECT_EQ(out.trace_span, env.trace_span);
    EXPECT_EQ(out.trace_ts, 123'456'789u);
    ASSERT_EQ(body.size(), payload.size());
    EXPECT_EQ(std::memcmp(body.data(), payload.data(), payload.size()), 0);
    EXPECT_TRUE(view.empty());
  }
  // ByteBuffer-cursor overload.
  {
    AmEnvelope out;
    std::span<const std::byte> body;
    ASSERT_TRUE(read_record(buf, out, body));
    EXPECT_EQ(out.trace_span, env.trace_span);
    EXPECT_EQ(out.trace_ts, 123'456'789u);
    ASSERT_EQ(body.size(), payload.size());
  }
}

TEST(ObsWire, SpanIdEncodesOriginPe) {
  const std::uint64_t span = make_trace_span(513, 0xABCDEF);
  EXPECT_EQ(trace_span_origin(span), 513);
  EXPECT_EQ(span & ((1ULL << 48) - 1), 0xABCDEFu);
  // Request ids beyond 48 bits wrap within the span id but keep the origin.
  EXPECT_EQ(trace_span_origin(make_trace_span(2, ~0ULL)), 2);
}

// ---- Telemetry sampler ----

TEST(ObsTelemetry, FormatLineEmitsDeltasAndGauges) {
  obs::MetricsSnapshot prev;
  prev.pe = 1;
  prev.counters = {{"am.sent", 10}, {"am.flushed", 4}};
  obs::MetricsSnapshot cur;
  cur.pe = 1;
  cur.counters = {{"am.sent", 25}, {"am.flushed", 4}};
  cur.gauges = {{"q.depth", {3, 9}}};
  const std::string line =
      obs::TelemetrySampler::format_line(7, 350, cur, &prev);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"telemetry\":\"lamellar\""), std::string::npos);
  EXPECT_NE(line.find("\"tick\":7"), std::string::npos);
  EXPECT_NE(line.find("\"elapsed_ms\":350"), std::string::npos);
  EXPECT_NE(line.find("\"pe\":1"), std::string::npos);
  EXPECT_NE(line.find("\"am.sent\":15"), std::string::npos);  // delta
  // Zero deltas are omitted to keep steady-state lines small.
  EXPECT_EQ(line.find("am.flushed"), std::string::npos);
  EXPECT_NE(line.find("\"q.depth\":[3,9]"), std::string::npos);
  // First tick (no prev): deltas equal the raw values.
  const std::string first =
      obs::TelemetrySampler::format_line(0, 0, cur, nullptr);
  EXPECT_NE(first.find("\"am.sent\":25"), std::string::npos);
}

TEST(ObsTelemetry, SamplerAppendsJsonlAndFinalTick) {
  const std::string path = ::testing::TempDir() + "lamellar_telemetry.jsonl";
  std::remove(path.c_str());
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t.ops");
  {
    obs::TelemetrySampler sampler(5, path, [&reg] {
      std::vector<obs::MetricsSnapshot> v;
      v.push_back(reg.snapshot(0));
      return v;
    });
    sampler.start();
    for (int i = 0; i < 20; ++i) {
      c.inc(10);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sampler.stop();  // emits the final tick
    EXPECT_GE(sampler.ticks(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  std::uint64_t total_delta = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"telemetry\":\"lamellar\""), std::string::npos);
    const auto pos = line.find("\"t.ops\":");
    if (pos != std::string::npos) {
      total_delta += std::strtoull(line.c_str() + pos + 8, nullptr, 10);
    }
    ++lines;
  }
  EXPECT_GE(lines, 1u);
  // Deltas across all ticks telescope to the final counter value.
  EXPECT_EQ(total_delta, c.get());
  std::remove(path.c_str());
}

// ---- Config knobs ----

TEST(ObsConfig, ParseTraceAndTelemetryKnobs) {
  RuntimeConfig cfg;  // defaults: everything off
  EXPECT_EQ(cfg.trace_sample, 0u);
  EXPECT_FALSE(cfg.trace_per_pe);
  EXPECT_EQ(cfg.metrics_interval_ms, 0u);
  EXPECT_TRUE(cfg.metrics_file.empty());
}

TEST(ObsConfig, ParseMetricsMode) {
  EXPECT_EQ(parse_metrics_mode("off"), MetricsMode::kOff);
  EXPECT_EQ(parse_metrics_mode("quiet"), MetricsMode::kQuiet);
  EXPECT_EQ(parse_metrics_mode("summary"), MetricsMode::kSummary);
  EXPECT_EQ(parse_metrics_mode("json"), MetricsMode::kJson);
  EXPECT_THROW(parse_metrics_mode("bogus"), std::invalid_argument);
}

// ---- Through the runtime ----

TEST(ObsWorld, SnapshotConsistencyAcrossPes) {
  constexpr std::size_t kPes = 3;
  constexpr int kEach = 200;
  RuntimeConfig cfg;
  cfg.trace_sample = 3;  // some requests sampled, the rest untraced
  std::vector<obs::MetricsSnapshot> snaps(kPes);
  run_world(
      kPes,
      [&](World& world) {
        std::vector<Future<std::uint64_t>> futs;
        for (int i = 0; i < kEach; ++i) {
          futs.push_back(world.exec_am_pe(
              (world.my_pe() + 1) % kPes,
              PingAm{static_cast<std::uint64_t>(i)}));
        }
        for (auto& f : futs) {
          EXPECT_GT(world.block_on(std::move(f)), 0u);
        }
        world.barrier();
        snaps[world.my_pe()] = world.metrics_snapshot();
        world.barrier();
      },
      cfg);

  std::uint64_t sent = 0, executed = 0, replies_sent = 0, replies_rcvd = 0;
  for (const auto& s : snaps) {
    EXPECT_FALSE(s.empty());
    sent += s.counter("am.sent_remote") + s.counter("am.sent_local");
    executed += s.counter("am.executed");
    replies_sent += s.counter("am.replies_sent");
    replies_rcvd += s.counter("am.replies_received");
  }
  // Every AM sent anywhere was executed somewhere; every reply sent was
  // received (counters from different PEs must agree globally).
  EXPECT_GE(sent, kPes * static_cast<std::uint64_t>(kEach));
  EXPECT_EQ(executed, sent);
  EXPECT_EQ(replies_sent, replies_rcvd);
  EXPECT_GE(replies_rcvd, kPes * static_cast<std::uint64_t>(kEach));
  // Each PE's reply-latency histogram saw its sampled futures complete.
  for (const auto& s : snaps) {
    const auto* h = s.histogram("am.reply_latency_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->count, 0u);
    EXPECT_EQ(h->count, s.counter("trace.spans_closed"));
  }
  // Aggregation produced fabric traffic that the cmd queue accounted for.
  for (const auto& s : snaps) {
    EXPECT_GT(s.counter("cmdq.buffers_sent"), 0u);
    EXPECT_GT(s.counter("cmdq.bytes_sent"), 0u);
    EXPECT_GT(s.counter("fabric.barriers"), 0u);
  }
}

TEST(ObsWorld, MetricsOffYieldsEmptySnapshots) {
  RuntimeConfig cfg;
  cfg.metrics_mode = MetricsMode::kOff;
  run_world(
      2,
      [](World& world) {
        world.block_on(world.exec_am_pe((world.my_pe() + 1) % 2, PingAm{7}));
        world.barrier();
        EXPECT_TRUE(world.metrics_snapshot().empty());
        EXPECT_FALSE(world.metrics().enabled());
      },
      cfg);
}

// ---- Trace ring ----

TEST(ObsTrace, RingWraparoundKeepsNewest) {
  obs::TraceRing ring(8, 0);
  EXPECT_EQ(ring.capacity(), 8u);  // already a power of two
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record({"e", "t", 0, static_cast<sim_nanos>(i), 0, 'i', i});
  }
  EXPECT_EQ(ring.recorded(), 20u);
  auto events = ring.drain_ordered();
  ASSERT_EQ(events.size(), 8u);  // oldest 12 overwritten
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 12 + i);  // newest 8, oldest first
  }
}

TEST(ObsTrace, RingCapacityRoundsUpToPow2) {
  obs::TraceRing ring(10, 1);
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(ObsTrace, CollectorPerThreadRingsAndJson) {
  obs::TraceCollector collector(true, 16);
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&collector, t] {
      for (int i = 0; i < 5; ++i) {
        collector.record({"span", "test", static_cast<pe_id>(t),
                          static_cast<sim_nanos>(i * 100), 50, 'X',
                          static_cast<std::uint64_t>(i)});
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(collector.num_rings(), static_cast<std::size_t>(kThreads));
  auto json = collector.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span\""), std::string::npos);
  // 4 threads x 5 events, each emitted once.
  std::size_t n = 0;
  for (std::size_t pos = 0; (pos = json.find("\"span\"", pos)) !=
                            std::string::npos;
       ++n, ++pos) {
  }
  EXPECT_EQ(n, static_cast<std::size_t>(kThreads) * 5);
}

TEST(ObsTrace, DisabledCollectorRecordsNothing) {
  obs::TraceCollector collector(false);
  collector.record({"e", "t", 0, 0, 0, 'i', 0});
  EXPECT_EQ(collector.num_rings(), 0u);
}

TEST(ObsTrace, WorldRunWritesChromeTraceFile) {
  const std::string path = ::testing::TempDir() + "lamellar_trace_test.json";
  std::remove(path.c_str());
  RuntimeConfig cfg;
  cfg.trace_file = path;
  run_world(
      2,
      [](World& world) {
        world.block_on(world.exec_am_pe((world.my_pe() + 1) % 2, PingAm{1}));
        world.barrier();
      },
      cfg);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("dispatch_buffer"), std::string::npos);
  EXPECT_NE(json.find("\"barrier\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- Causal tracing (ISSUE 6) ----

TEST(ObsTrace, FlowEventsCarryIdAndBindingPoint) {
  obs::TraceCollector collector(true, 16);
  collector.record({"am_send", "am", 0, 100, 0, 's', 42, 0x7001});
  collector.record({"am_recv", "am", 1, 250, 0, 't', 150, 0x7001});
  collector.record({"am_complete", "am", 0, 400, 0, 'f', 90, 0x7001});
  const auto json = collector.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Flow id + enclosing-slice binding, required for Perfetto stitching.
  EXPECT_NE(json.find("\"id\":28673"), std::string::npos);  // 0x7001
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(ObsTrace, PeFilterSelectsOnePe) {
  obs::TraceCollector collector(true, 16);
  collector.record({"on_pe0", "t", 0, 10, 0, 'i', 0});
  collector.record({"on_pe1", "t", 1, 20, 0, 'i', 0});
  const auto only1 = collector.to_chrome_json(1);
  EXPECT_EQ(only1.find("on_pe0"), std::string::npos);
  EXPECT_NE(only1.find("on_pe1"), std::string::npos);
  const auto all = collector.to_chrome_json();
  EXPECT_NE(all.find("on_pe0"), std::string::npos);
  EXPECT_NE(all.find("on_pe1"), std::string::npos);
}

TEST(ObsWorld, SampledSpansBalanceAndStageHistogramsFill) {
  constexpr std::size_t kPes = 3;
  constexpr int kEach = 64;
  RuntimeConfig cfg;
  cfg.trace_sample = 1;  // trace every replied-to request
  for (const bool virtual_time : {true, false}) {
    SCOPED_TRACE(virtual_time ? "virtual time" : "wall clock");
    std::vector<obs::MetricsSnapshot> snaps(kPes);
    run_world(
        kPes,
        [&](World& world) {
          std::vector<Future<std::uint64_t>> futs;
          for (int i = 0; i < kEach; ++i) {
            futs.push_back(world.exec_am_pe(
                (world.my_pe() + 1) % kPes,
                PingAm{static_cast<std::uint64_t>(i)}));
          }
          for (auto& f : futs) world.block_on(std::move(f));
          world.barrier();
          snaps[world.my_pe()] = world.metrics_snapshot();
          world.barrier();
        },
        cfg, paper_perf_params(), PeMapping{}, virtual_time);

    std::uint64_t opened = 0, closed = 0;
    for (const auto& s : snaps) {
      opened += s.counter("trace.spans_opened");
      closed += s.counter("trace.spans_closed");
      // A span opens and closes on its origin PE, so they also balance
      // per PE at quiescence.
      EXPECT_EQ(s.counter("trace.spans_opened"),
                s.counter("trace.spans_closed"));
    }
    EXPECT_EQ(opened, closed);
    EXPECT_GE(opened, kPes * static_cast<std::uint64_t>(kEach));

    // Every stage histogram saw traffic, and origin-side stages saw exactly
    // one sample per span.
    for (const auto& s : snaps) {
      const std::uint64_t pe_spans = s.counter("trace.spans_opened");
      const auto* inject = s.histogram("am.stage_inject_flush_ns");
      const auto* flight = s.histogram("am.stage_flight_ns");
      const auto* exec = s.histogram("am.stage_exec_ns");
      const auto* reply = s.histogram("am.stage_reply_complete_ns");
      const auto* latency = s.histogram("am.reply_latency_ns");
      ASSERT_NE(inject, nullptr);
      ASSERT_NE(flight, nullptr);
      ASSERT_NE(exec, nullptr);
      ASSERT_NE(reply, nullptr);
      ASSERT_NE(latency, nullptr);
      EXPECT_EQ(inject->count, pe_spans);
      EXPECT_EQ(reply->count, pe_spans);
      EXPECT_EQ(latency->count, s.counter("trace.spans_closed"));
      // Flight/exec are recorded on the *executing* PE; with a ring
      // topology each PE executes its predecessor's spans.
      EXPECT_GT(flight->count, 0u);
      EXPECT_GT(exec->count, 0u);
      // Percentiles are well-formed on real data.
      const auto p = exec->percentiles();
      EXPECT_LE(p.p50, p.p99);
      EXPECT_LE(p.p99, exec->max);
      if (!virtual_time) {
        // Real time passes in every stage but exec, which may take less
        // than a clock tick.
        EXPECT_GT(inject->percentiles().p50, 0u);
        EXPECT_GT(flight->percentiles().p50, 0u);
        EXPECT_GT(reply->percentiles().p50, 0u);
        EXPECT_GT(latency->percentiles().p50, 0u);
      }
    }
  }
}

TEST(ObsWorld, UnsampledRunOpensNoSpans) {
  RuntimeConfig cfg;  // trace_sample defaults to 0 (off)
  run_world(
      2,
      [](World& world) {
        world.block_on(world.exec_am_pe((world.my_pe() + 1) % 2, PingAm{5}));
        world.barrier();
        EXPECT_EQ(world.metrics_snapshot().counter("trace.spans_opened"), 0u);
      },
      cfg);
}

TEST(ObsWorld, PerPeTraceExportWritesOneFilePerPe) {
  const std::string base = ::testing::TempDir() + "lamellar_pp_trace.json";
  const std::string pe0 = ::testing::TempDir() + "lamellar_pp_trace.pe0.json";
  const std::string pe1 = ::testing::TempDir() + "lamellar_pp_trace.pe1.json";
  for (const auto& p : {base, pe0, pe1}) std::remove(p.c_str());
  RuntimeConfig cfg;
  cfg.trace_file = base;
  cfg.trace_per_pe = true;
  cfg.trace_sample = 1;
  run_world(
      2,
      [](World& world) {
        world.block_on(world.exec_am_pe((world.my_pe() + 1) % 2, PingAm{9}));
        world.barrier();
      },
      cfg);
  // The base path is replaced by per-PE siblings.
  EXPECT_FALSE(std::ifstream(base).good());
  for (const auto& p : {pe0, pe1}) {
    std::ifstream in(p);
    ASSERT_TRUE(in.good()) << p;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  }
  // The sampled flow chain is present across the pair of files.
  std::stringstream both;
  for (const auto& p : {pe0, pe1}) {
    std::ifstream in(p);
    both << in.rdbuf();
  }
  const std::string merged = both.str();
  EXPECT_NE(merged.find("\"am_send\""), std::string::npos);
  EXPECT_NE(merged.find("\"am_recv\""), std::string::npos);
  EXPECT_NE(merged.find("\"am_complete\""), std::string::npos);
  EXPECT_NE(merged.find("\"bp\":\"e\""), std::string::npos);
  for (const auto& p : {pe0, pe1}) std::remove(p.c_str());
}

}  // namespace
