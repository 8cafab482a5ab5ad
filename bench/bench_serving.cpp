// Sustained-traffic serving harness (ISSUE 10): a sharded histogram/KV
// service driven by an open-loop Poisson request stream at configurable
// offered load, reporting sustained throughput plus p50/p99/p999 request
// latency per (shape, config) row.
//
// Open-loop means arrivals are scheduled by the clock, not by completions:
// latency is measured from each request's *scheduled arrival* (so a server
// that falls behind accrues queueing backlog in its tail, exactly like a
// production load generator) and, separately, from its issue time (service
// latency).
//
// Rows sweep three static aggregation thresholds (4K, 100K, 1M) per shape.
// Runs in real time (virtual_time=false): the paper's virtual-time model
// cannot express wall-clock arrival pacing.  Each PE's main thread sleeps
// until its next arrival (clock_nanosleep, 1 us timer slack) instead of
// spinning, so the PEs' workers, not the pacers, hold the cores; every JSON
// row records the host's core count.
//
// Env knobs: LAMELLAR_SERVE_PES (default 4), LAMELLAR_SERVE_SECONDS
// (offered-load duration per row, default 1.0), LAMELLAR_SERVE_SHAPES
// (substring filter over shape names).
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "lamellar.hpp"

using namespace lamellar;

namespace {

std::uint64_t real_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sleeps until `deadline_ns` on CLOCK_MONOTONIC, the clock behind
// std::chrono::steady_clock and so behind real_ns().
void sleep_until_ns(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

constexpr std::size_t kMaxPes = 64;
constexpr std::size_t kTableSlots = 1 << 14;  // per-PE shard slots

// Cross-PE aggregation state for one row (PEs are threads in one process;
// bench_util pins the shmem backend).  Reset by PE 0 before each row.
struct Shard {
  std::vector<std::atomic<std::uint64_t>> slots;
  Shard() : slots(kTableSlots) {}
};
Shard* g_shards[kMaxPes];
std::uint64_t g_sent_sum[kMaxPes];
std::uint64_t g_completed[kMaxPes];
std::uint64_t g_span_ns[kMaxPes];
std::vector<std::uint64_t> g_arrival_lat[kMaxPes];
std::vector<std::uint64_t> g_service_lat[kMaxPes];

struct ServeAm {
  std::uint64_t slot = 0;
  std::uint64_t val = 0;
  std::vector<std::uint8_t> pad;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(slot, val, pad);
  }
  std::uint64_t exec(AmContext& ctx) {
    Shard* shard = g_shards[ctx.current_pe()];
    return shard->slots[slot % kTableSlots].fetch_add(
               val, std::memory_order_relaxed) +
           val;
  }
};

struct Shape {
  const char* name;
  double load_factor;    // offered rate as a fraction of calibrated capacity
  double min_rps;        // floor on the offered rate
  std::size_t pad_bytes; // request padding (record size knob)
  double duration_scale; // fraction of LAMELLAR_SERVE_SECONDS
};

struct BenchConfig {
  const char* name;
  std::size_t agg_threshold;
};

struct Row {
  std::string shape;
  std::string config;
  double offered_rps = 0;
  double achieved_rps = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  // Microseconds; arrival_* measured from scheduled arrival (queueing
  // backlog included), service_* from issue time.
  double arrival_p50 = 0, arrival_p99 = 0, arrival_p999 = 0;
  double service_p50 = 0, service_p99 = 0, service_p999 = 0;
  bool verified = false;
};

double pct(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]) / 1000.0;  // ns -> us
}

/// One serving run: every PE is both client (open-loop Poisson generator)
/// and server (shard owner).  Returns the aggregated row.
Row run_row(const char* shape, const char* config, const RuntimeConfig& cfg,
            std::size_t npes, double offered_rps, std::size_t pad_bytes,
            double duration_s) {
  const auto n_per_pe = static_cast<std::size_t>(
      std::max(1.0, offered_rps * duration_s / static_cast<double>(npes)));
  for (std::size_t pe = 0; pe < npes; ++pe) {
    g_sent_sum[pe] = g_completed[pe] = g_span_ns[pe] = 0;
    g_arrival_lat[pe].assign(n_per_pe, 0);
    g_service_lat[pe].assign(n_per_pe, 0);
  }
  Row row;
  row.shape = shape;
  row.config = config;
  row.offered_rps = offered_rps;
  row.requests = n_per_pe * npes;

  run_world(
      npes,
      [&](World& world) {
        const pe_id me = world.my_pe();
        ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wake-up slack
        Shard shard;
        g_shards[me] = &shard;
        world.barrier();

        Xoshiro256 rng = pe_rng(world.config().seed + 7, me);
        const double rate_pe =
            offered_rps / static_cast<double>(world.num_pes());
        std::atomic<std::uint64_t>* completed =
            new std::atomic<std::uint64_t>(0);
        std::uint64_t* arrival = g_arrival_lat[me].data();
        std::uint64_t* service = g_service_lat[me].data();
        std::uint64_t sent_sum = 0;

        const std::uint64_t t0 = real_ns();
        double next_arrival = 0;  // ns offset from t0
        for (std::size_t i = 0; i < n_per_pe; ++i) {
          // Pace to the schedule, asleep while early.  When the system
          // has fallen behind, next_arrival is already in the past and the
          // request is issued immediately — the open-loop backlog then
          // shows up in arrival latency.
          const auto sched = static_cast<std::uint64_t>(next_arrival);
          if (real_ns() - t0 < sched) sleep_until_ns(t0 + sched);
          const std::uint64_t val = 1 + rng.uniform(16);
          sent_sum += val;
          ServeAm am;
          am.slot = rng.next();
          am.val = val;
          am.pad.assign(pad_bytes, static_cast<std::uint8_t>(i));
          const auto dst = static_cast<pe_id>(rng.uniform(world.num_pes()));
          const std::uint64_t issued = real_ns() - t0;
          world.engine().send_cb(
              dst, std::move(am),
              [=](std::uint64_t) {
                const std::uint64_t done = real_ns() - t0;
                arrival[i] = done >= sched ? done - sched : 0;
                service[i] = done >= issued ? done - issued : 0;
                completed->fetch_add(1, std::memory_order_relaxed);
              });
          // Exponential inter-arrival gap (Poisson stream).
          next_arrival +=
              -std::log1p(-rng.uniform_double()) / rate_pe * 1e9;
        }
        world.wait_all();
        g_span_ns[me] = real_ns() - t0;
        g_completed[me] = completed->load(std::memory_order_relaxed);
        g_sent_sum[me] = sent_sum;
        world.barrier();
        delete completed;

        // Conservation check: every update landed exactly once.
        std::uint64_t shard_sum = 0;
        for (const auto& s : shard.slots) {
          shard_sum += s.load(std::memory_order_relaxed);
        }
        static std::atomic<std::uint64_t> g_shard_total{0};
        if (me == 0) g_shard_total.store(0, std::memory_order_relaxed);
        world.barrier();
        g_shard_total.fetch_add(shard_sum, std::memory_order_relaxed);
        world.barrier();
        if (me == 0) {
          std::uint64_t want = 0;
          for (std::size_t pe = 0; pe < world.num_pes(); ++pe) {
            want += g_sent_sum[pe];
          }
          row.verified =
              g_shard_total.load(std::memory_order_relaxed) == want;
        }
        world.barrier();
        g_shards[me] = nullptr;
      },
      cfg, paper_perf_params(), PeMapping{1}, /*virtual_time=*/false);

  // Aggregate (outside the world: all PE threads have exited the body).
  std::vector<std::uint64_t> all_arrival, all_service;
  std::uint64_t completed = 0, span_max = 0;
  for (std::size_t pe = 0; pe < npes; ++pe) {
    completed += g_completed[pe];
    span_max = std::max(span_max, g_span_ns[pe]);
    all_arrival.insert(all_arrival.end(), g_arrival_lat[pe].begin(),
                       g_arrival_lat[pe].end());
    all_service.insert(all_service.end(), g_service_lat[pe].begin(),
                       g_service_lat[pe].end());
  }
  row.completed = completed;
  row.achieved_rps = span_max == 0 ? 0
                                   : static_cast<double>(completed) /
                                         (static_cast<double>(span_max) / 1e9);
  std::sort(all_arrival.begin(), all_arrival.end());
  std::sort(all_service.begin(), all_service.end());
  row.arrival_p50 = pct(all_arrival, 0.50);
  row.arrival_p99 = pct(all_arrival, 0.99);
  row.arrival_p999 = pct(all_arrival, 0.999);
  row.service_p50 = pct(all_service, 0.50);
  row.service_p99 = pct(all_service, 0.99);
  row.service_p999 = pct(all_service, 0.999);
  return row;
}

bool shape_selected(const char* name) {
  const char* want = std::getenv("LAMELLAR_SERVE_SHAPES");
  if (want == nullptr || *want == '\0') return true;
  return std::strstr(want, name) != nullptr;
}

void print_row(const Row& r) {
  std::printf("%-8s %-12s %10.0f %10.0f %8zu %9.0f %9.0f %10.0f %9.0f %s\n",
              r.shape.c_str(), r.config.c_str(), r.offered_rps,
              r.achieved_rps, static_cast<std::size_t>(r.completed),
              r.arrival_p50, r.arrival_p99, r.arrival_p999, r.service_p99,
              r.verified ? "yes" : "NO");
  std::fflush(stdout);
}

void print_json(const Row& r, std::size_t npes) {
  std::printf(
      "{\"bench\":\"serving\",\"shape\":\"%s\",\"config\":\"%s\","
      "\"pes\":%zu,\"cores\":%u,\"offered_rps\":%.0f,\"achieved_rps\":%.0f,"
      "\"requests\":%zu,\"completed\":%zu,"
      "\"arrival_us\":{\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f},"
      "\"service_us\":{\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f},"
      "\"verified\":%s}\n",
      r.shape.c_str(), r.config.c_str(), npes,
      std::thread::hardware_concurrency(), r.offered_rps,
      r.achieved_rps, static_cast<std::size_t>(r.requests),
      static_cast<std::size_t>(r.completed), r.arrival_p50, r.arrival_p99,
      r.arrival_p999, r.service_p50, r.service_p99, r.service_p999,
      r.verified ? "true" : "false");
  std::fflush(stdout);
}

}  // namespace

LAMELLAR_REGISTER_AM(ServeAm);

int main() {
  const RuntimeConfig base = bench::bench_config();
  const std::size_t npes =
      std::min<std::size_t>(kMaxPes, env_size("LAMELLAR_SERVE_PES", 4));
  const double duration =
      static_cast<double>(env_u64("LAMELLAR_SERVE_SECONDS", 1));

  // Calibrate capacity with a short closed-loop blast at the default static
  // threshold, so shape rates track the host instead of hard-coding a
  // single machine's numbers.  The same absolute rates are then reused for
  // every config of a shape — a fair A/B.
  RuntimeConfig cal_cfg = base;
  cal_cfg.agg_threshold_bytes = 100 * 1024;
  std::printf("# serving: calibrating capacity (%zu PEs)...\n", npes);
  Row cal = run_row("cal", "static-100k", cal_cfg, npes,
                    /*offered_rps=*/400'000.0, /*pad_bytes=*/48,
                    /*duration_s=*/0.5);
  const double capacity = std::max(5'000.0, cal.achieved_rps);
  std::printf("# serving: calibrated capacity ~%.0f req/s\n", capacity);

  const Shape shapes[] = {
      // Moderate sustained load: headroom everywhere — the parity shape.
      {"steady", 0.55, 20'000.0, 48, 1.0},
      // Near saturation: workers rarely idle, so the idle-flush rescue
      // stops papering over oversized static buffers — the latency shape.
      {"busy", 0.90, 30'000.0, 48, 1.0},
      // Low-rate trickle: idle flushes carry the latency story.
      {"trickle", 0.04, 2'000.0, 16, 1.0},
      // 2x saturation: the graceful-degradation row.
      {"burst2x", 2.0, 40'000.0, 48, 0.5},
  };
  const BenchConfig configs[] = {
      {"static-4k", 4 * 1024},
      {"static-100k", 100 * 1024},
      {"static-1m", 1024 * 1024},
  };

  std::printf("\n%-8s %-12s %10s %10s %8s %9s %9s %10s %9s %s\n", "shape",
              "config", "offered/s", "achieved/s", "done", "arr_p50us",
              "arr_p99us", "arr_p999us", "svc_p99us", "ok");
  std::vector<Row> rows;
  const bool json = base.metrics_mode == MetricsMode::kJson;
  for (const Shape& shape : shapes) {
    if (!shape_selected(shape.name)) continue;
    const double rate =
        std::max(shape.min_rps, capacity * shape.load_factor);
    for (const BenchConfig& bc : configs) {
      RuntimeConfig cfg = base;
      cfg.agg_threshold_bytes = bc.agg_threshold;
      Row row = run_row(shape.name, bc.name, cfg, npes, rate,
                        shape.pad_bytes, duration * shape.duration_scale);
      print_row(row);
      if (json) print_json(row, npes);
      rows.push_back(std::move(row));
    }
  }

  for (const Row& r : rows) {
    if (!r.verified || r.completed != r.requests) {
      std::fprintf(stderr, "serving: row %s/%s failed verification\n",
                   r.shape.c_str(), r.config.c_str());
      return 1;
    }
  }
  return 0;
}
