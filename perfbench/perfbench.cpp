// Closed-loop wall-clock workloads over the lamellar public API.
//
// One invocation runs one workload on a 2-PE world (one worker thread per
// PE, compiled-default RuntimeConfig, virtual time off) several times and
// prints JSON records, one per line, on stdout: per PE and world a "setup",
// a "window" per measured window and a "verify".  perfbench/run.py turns
// them into the benchmark's metrics.  Under the mmap backend each PE is a
// forked process whose writes die with it, so every result leaves a PE as a
// line on its own stdout, which run_world relays to the parent's.
//
//   perfbench --workload histo|gather|am|histo_mp --seed N --seconds S
//             [--trace 0|1] [--span-dir DIR] [--corrupt]
//
// With --trace 1 each world's measured time is split into an untraced and a
// traced window; the traced one records a span around every call the
// benchmark makes into the runtime and writes them to
// DIR/spans.w<world>.pe<N>.csv when the world ends.
// --corrupt damages one result after the run so tests can check that the
// verification counts it as failed.
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "lamellar.hpp"

using namespace lamellar;

namespace {

constexpr std::size_t kPes = 2;
constexpr std::size_t kThreadsPerPe = 1;
constexpr std::size_t kSlotsPerPe = 1'000;   // paper Fig. 3 table per PE
constexpr std::size_t kArrayBatch = 100'000; // indices per batch_add/load
constexpr std::size_t kAmWindow = 10'000;    // AMs per send window
// Batches of inputs generated at set-up and cycled by the closed loop, so
// the input size does not grow with run length.
constexpr std::size_t kInputBatches = 16;
// Warm-up before each measured window: about 50 ms of batches.
constexpr std::size_t kArrayWarmup = 20;
constexpr std::size_t kAmWarmup = 4;
// Worlds per run, each brought up, measured for 1/kWorlds of the run and
// torn down.  How well the two PEs' closed loops interleave is settled when a
// world starts and holds until it ends, so pooling several worlds is what
// makes one run's rates repeatable; setup_s is the median bring-up.
constexpr int kWorlds = 10;

enum class Workload { kHisto, kGather, kAm, kHistoMp };

struct Options {
  Workload workload = Workload::kHisto;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool corrupt = false;
  std::string span_dir;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- output ----------------------------------------------------------------

/// One JSON object built field by field; emitted as a single stdout line so
/// PE threads sharing the process never interleave.
class Line {
 public:
  Line(const char* kind, pe_id pe) {
    s_ = "{\"kind\":\"";
    s_ += kind;
    s_ += "\",\"pe\":" + std::to_string(pe);
  }
  Line& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Line& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Line& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  Line& list(const char* key, const std::vector<std::uint64_t>& vs) {
    std::string l = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) l += ',';
      l += std::to_string(vs[i]);
    }
    return raw(key, l + "]");
  }
  Line& counters(const char* key, const obs::MetricsSnapshot& snap) {
    std::string o = "{";
    for (const auto& [name, v] : snap.counters) {
      if (o.size() > 1) o += ',';
      o += "\"" + name + "\":" + std::to_string(v);
    }
    return raw(key, o + "}");
  }
  void emit() {
    static std::mutex mu;
    s_ += "}\n";
    std::lock_guard lock(mu);
    std::fwrite(s_.data(), 1, s_.size(), stdout);
    std::fflush(stdout);
  }

 private:
  Line& raw(const char* key, const std::string& v) {
    s_ += ",\"";
    s_ += key;
    s_ += "\":" + v;
    return *this;
  }
  std::string s_;
};

// ---- spans ----------------------------------------------------------------

/// In-memory span log of one PE: name, parent span, batch id, start, end.
/// Inert (no clock reads) unless tracing; written out when the world ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t batch;
    std::uint64_t start;
    std::uint64_t end;
  };

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) {
    on_ = on;
    if (on) spans_.reserve(1 << 16);
  }

  /// Opens a span now; ids start at 1 so 0 can mean "no parent".
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint64_t batch) {
    if (!on_) return 0;
    spans_.push_back({name, parent, batch, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) { end_at(id, now_ns()); }
  void end_at(std::uint32_t id, std::uint64_t t) {
    if (id != 0) spans_[id - 1].end = t;
  }

  void write(const std::string& path, pe_id pe) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write span file " + path);
    f << "id,parent,name,pe,batch,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << i + 1 << ',' << s.parent << ',' << s.name << ',' << pe << ','
        << s.batch << ',' << s.start << ',' << s.end << '\n';
    }
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

// ---- the `am` workload's AM -------------------------------------------------

/// Per-PE update table owned by the benchmark (not by the runtime): the
/// target of the `am` workload's one-update AMs.
std::array<std::array<std::atomic<std::uint64_t>, kSlotsPerPe>, kPes>
    g_am_table;

struct UpdateAm {
  std::uint32_t slot = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(slot);
  }
  void exec(AmContext& ctx) {
    g_am_table[ctx.current_pe()][slot].fetch_add(1, std::memory_order_relaxed);
  }
};

}  // namespace

LAMELLAR_REGISTER_AM(UpdateAm);

namespace {

// ---- per-PE run state -------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;   // element ops issued, warm-up included
  std::uint64_t unfinished = 0;  // ops of batches cut short by an error
  std::uint64_t mismatches = 0;  // gather: values not equal to their index
  std::string error;
};

/// What a workload does per batch.  `issue_and_wait` returns the time its
/// future (or wait_all) returned; work after that (checking values) is not
/// part of the batch latency.
struct Kernel {
  std::size_t ops_per_batch = 0;
  std::size_t warmup_batches = 0;
  std::function<std::uint64_t(std::uint64_t batch, SpanLog& spans,
                              std::uint32_t parent)>
      issue_and_wait;
};

/// One measured window: opening barrier, closed-loop batches until the
/// deadline, closing barrier.  Counter deltas bracket the two barriers.
void run_window(World& world, const Kernel& k, double seconds, SpanLog& spans,
                Tally& tally, std::uint64_t& next_batch, int rep,
                std::uint64_t* open_ns = nullptr) {
  const obs::MetricsSnapshot before = world.metrics_snapshot();
  const std::uint32_t wspan = spans.begin("window", 0, 0);
  const std::uint64_t t_b0 = now_ns();
  const std::uint32_t b0 = spans.begin("world.barrier", wspan, 0);
  world.barrier();
  const std::uint64_t t_open = now_ns();
  spans.end_at(b0, t_open);
  if (open_ns != nullptr) *open_ns = t_open;

  const auto deadline =
      t_open + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::uint64_t> lat;
  lat.reserve(1 << 16);
  std::uint64_t batches = 0;
  while (tally.error.empty() && now_ns() < deadline) {
    const std::uint64_t b = next_batch++;
    const std::uint32_t bspan = spans.begin("batch", wspan, b);
    const std::uint64_t t0 = now_ns();
    tally.attempted += k.ops_per_batch;
    try {
      const std::uint64_t t1 = k.issue_and_wait(b, spans, bspan);
      spans.end_at(bspan, t1);
      lat.push_back(t1 - t0);
      ++batches;
    } catch (const std::exception& e) {
      tally.error = e.what();
      tally.unfinished += k.ops_per_batch;
    }
  }

  const std::uint64_t t_c0 = now_ns();
  const std::uint32_t b1 = spans.begin("world.barrier", wspan, 0);
  world.barrier();
  const std::uint64_t t_close = now_ns();
  spans.end_at(b1, t_close);
  spans.end_at(wspan, t_close);
  const obs::MetricsSnapshot after = world.metrics_snapshot();

  std::int64_t depth_max = 0;
  for (const auto& [name, g] : after.gauges) {
    if (name == "sched.queue_depth") depth_max = g.second;
  }
  Line("window", world.my_pe())
      .num("rep", static_cast<std::uint64_t>(rep))
      .flag("traced", spans.on())
      .num("ops", batches * k.ops_per_batch)
      .num("batches", batches)
      .num("window_ns", t_close - t_open)
      .num("open_barrier_ns", t_open - t_b0)
      .num("close_barrier_ns", t_close - t_c0)
      .num("queue_depth_max", static_cast<std::uint64_t>(depth_max))
      .counters("counters", obs::snapshot_delta(before, after))
      .list("lat_ns", lat)
      .emit();
}

/// Inputs for one PE: kInputBatches batches drawn from pe_rng(seed, pe).
std::vector<std::vector<global_index>> make_indices(std::uint64_t seed,
                                                    pe_id pe,
                                                    std::size_t batch,
                                                    std::uint64_t range) {
  auto rng = pe_rng(seed, pe);
  std::vector<std::vector<global_index>> out(kInputBatches);
  for (auto& b : out) {
    b.resize(batch);
    for (auto& i : b) i = rng.uniform(range);
  }
  return out;
}

/// The body of world number `rep`: set-up (arrays, inputs, warm-up), the
/// measured window(s), then the verification.  `t_call` is the time
/// run_world was called.
void pe_body(World& world, const Options& opt, std::uint64_t t_call,
             int rep) {
  const std::uint64_t t_enter = now_ns();
  const pe_id me = world.my_pe();
  const std::uint64_t global_len = kSlotsPerPe * world.num_pes();
  Tally tally;
  SpanLog spans;

  AtomicArray<std::uint64_t> histo;
  ReadOnlyArray<std::uint64_t> table;
  std::uint64_t t_arrays = t_enter;
  Kernel k;
  std::vector<std::vector<global_index>> idx;
  std::vector<std::vector<std::uint32_t>> slots;
  std::atomic<std::uint64_t> completions{0};

  switch (opt.workload) {
    case Workload::kHisto:
    case Workload::kHistoMp: {
      histo = AtomicArray<std::uint64_t>::create(world, global_len,
                                                 Distribution::kBlock);
      histo.fill(0);
      t_arrays = now_ns();
      idx = make_indices(opt.seed, me, kArrayBatch, global_len);
      k.ops_per_batch = kArrayBatch;
      k.warmup_batches = kArrayWarmup;
      k.issue_and_wait = [&](std::uint64_t b, SpanLog& sp,
                             std::uint32_t parent) {
        const auto& in = idx[b % kInputBatches];
        const std::uint32_t s0 = sp.begin("array.issue", parent, b);
        auto fut = histo.batch_add(in, 1);
        sp.end(s0);
        const std::uint32_t s1 = sp.begin("array.wait", parent, b);
        world.block_on(std::move(fut));
        const std::uint64_t t = now_ns();
        sp.end_at(s1, t);
        return t;
      };
      break;
    }
    case Workload::kGather: {
      auto tmp = UnsafeArray<std::uint64_t>::create(world, global_len,
                                                    Distribution::kBlock);
      auto local = tmp.unsafe_local_slice();
      for (std::size_t i = 0; i < local.size(); ++i) {
        local[i] = me * kSlotsPerPe + i;  // identity: table[i] = i
      }
      world.barrier();
      table = std::move(tmp).into_read_only();
      t_arrays = now_ns();
      idx = make_indices(opt.seed, me, kArrayBatch, global_len);
      k.ops_per_batch = kArrayBatch;
      k.warmup_batches = kArrayWarmup;
      k.issue_and_wait = [&](std::uint64_t b, SpanLog& sp,
                             std::uint32_t parent) {
        const auto& in = idx[b % kInputBatches];
        const std::uint32_t s0 = sp.begin("array.issue", parent, b);
        auto fut = table.batch_load(in);
        sp.end(s0);
        const std::uint32_t s1 = sp.begin("array.wait", parent, b);
        std::vector<std::uint64_t> got = world.block_on(std::move(fut));
        const std::uint64_t t = now_ns();
        sp.end_at(s1, t);
        if (got.size() != in.size()) {
          tally.mismatches += in.size();
          return t;
        }
        for (std::size_t i = 0; i < in.size(); ++i) {
          tally.mismatches += got[i] != in[i] ? 1 : 0;
        }
        return t;
      };
      break;
    }
    case Workload::kAm: {
      // Cleared before any PE of this world sends: the barrier keeps the
      // peer's first updates from landing ahead of the clear.
      for (auto& c : g_am_table[me]) c.store(0, std::memory_order_relaxed);
      world.barrier();
      auto rng = pe_rng(opt.seed, me);
      slots.resize(kInputBatches);
      for (auto& w : slots) {
        w.resize(kAmWindow);
        for (auto& s : w) {
          s = static_cast<std::uint32_t>(rng.uniform(kSlotsPerPe));
        }
      }
      const pe_id other = (me + 1) % world.num_pes();
      k.ops_per_batch = kAmWindow;
      k.warmup_batches = kAmWarmup;
      k.issue_and_wait = [&, other](std::uint64_t b, SpanLog& sp,
                                    std::uint32_t parent) {
        const auto& in = slots[b % kInputBatches];
        AmEngine& engine = world.engine();
        const std::uint32_t s0 = sp.begin("am.issue", parent, b);
        for (std::uint32_t s : in) {
          engine.send_cb(other, UpdateAm{s}, [&completions](Unit) {
            completions.fetch_add(1, std::memory_order_relaxed);
          });
        }
        sp.end(s0);
        const std::uint32_t s1 = sp.begin("am.flush", parent, b);
        engine.flush();
        sp.end(s1);
        const std::uint32_t s2 = sp.begin("am.wait", parent, b);
        world.wait_all();
        const std::uint64_t t = now_ns();
        sp.end_at(s2, t);
        return t;
      };
      break;
    }
  }

  std::uint64_t next_batch = 0;
  for (std::size_t w = 0; w < k.warmup_batches && tally.error.empty(); ++w) {
    tally.attempted += k.ops_per_batch;
    try {
      k.issue_and_wait(next_batch++, spans, 0);
    } catch (const std::exception& e) {
      tally.error = e.what();
      tally.unfinished += k.ops_per_batch;
    }
  }

  // When tracing, an untraced window gives the reference rate for the
  // traced one that follows.
  const double window_s = opt.seconds / kWorlds / (opt.trace ? 2 : 1);
  std::uint64_t t_ready = 0;
  run_window(world, k, window_s, spans, tally, next_batch, rep, &t_ready);
  if (opt.trace && tally.error.empty()) {
    spans.set_on(true);
    run_window(world, k, window_s, spans, tally, next_batch, rep);
    spans.set_on(false);
  }
  Line("setup", me)
      .num("rep", static_cast<std::uint64_t>(rep))
      .num("setup_ns", t_ready - t_call)
      .num("world_setup_ns", t_enter - t_call)
      .num("array_setup_ns", t_arrays - t_enter)
      .emit();

  // Every PE passed its last wait and the closing barrier, so all updates
  // have landed: each PE checks the slots it owns.  The wait_all only
  // matters after an error, when callbacks that count into this frame may
  // still be pending.
  world.wait_all();
  if (opt.corrupt && me == 0 && rep == kWorlds - 1) {
    switch (opt.workload) {
      case Workload::kHisto:
      case Workload::kHistoMp:
        world.block_on(histo.sub(0, 1));
        break;
      case Workload::kGather:
        ++tally.mismatches;  // as if one gathered value had been wrong
        break;
      case Workload::kAm:
        g_am_table[me][0].fetch_sub(1, std::memory_order_relaxed);
        break;
    }
  }
  std::uint64_t local_total = 0;
  if (histo.valid()) {
    for (std::size_t i = 0; i < histo.local_len(); ++i) {
      local_total += histo.load_local(i);
    }
  } else if (opt.workload == Workload::kAm) {
    for (const auto& c : g_am_table[me]) {
      local_total += c.load(std::memory_order_relaxed);
    }
  }
  if (opt.trace && !opt.span_dir.empty()) {
    spans.write(opt.span_dir + "/spans.w" + std::to_string(rep) + ".pe" +
                    std::to_string(me) + ".csv",
                me);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Line("verify", me)
      .num("rep", static_cast<std::uint64_t>(rep))
      .num("attempted", tally.attempted)
      .num("unfinished", tally.unfinished)
      .num("mismatches", tally.mismatches)
      .num("local_total", local_total)
      .num("completions", completions.load(std::memory_order_relaxed))
      .num("maxrss_kb", static_cast<std::uint64_t>(ru.ru_maxrss))
      .str("error", tally.error)
      .emit();
  world.barrier();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "histo|gather|am|histo_mp --seed N --seconds S [--trace 0|1] "
               "[--span-dir DIR] [--corrupt]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.name = value();
        have_workload = true;
        if (opt.name == "histo") {
          opt.workload = Workload::kHisto;
        } else if (opt.name == "gather") {
          opt.workload = Workload::kGather;
        } else if (opt.name == "am") {
          opt.workload = Workload::kAm;
        } else if (opt.name == "histo_mp") {
          opt.workload = Workload::kHistoMp;
        } else {
          usage("unknown workload " + opt.name);
        }
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--span-dir") {
        opt.span_dir = value();
      } else if (a == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(opt.seconds > 0) || opt.seconds > 600) {
    usage("--seconds must be in (0, 600]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : 0;
  // Each PE runs its main thread plus its workers; more runnable threads
  // than cores turns every latency into a measure of OS time slicing.
  if (kPes * (1 + kThreadsPerPe) > static_cast<std::size_t>(nproc)) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: %zu PEs x (1 + %zu threads) "
                 "exceeds the %d usable cores\n",
                 kPes, kThreadsPerPe, nproc);
    return 2;
  }

  // Compiled defaults only: LAMELLAR_* environment variables are ignored.
  RuntimeConfig cfg{};
  cfg.threads_per_pe = kThreadsPerPe;
  if (opt.workload == Workload::kHistoMp) cfg.backend = BackendKind::kMmap;

  std::printf(
      "{\"kind\":\"config\",\"workload\":\"%s\",\"pes\":%zu,"
      "\"threads_per_pe\":%zu,\"nproc\":%d,\"backend\":\"%s\","
      "\"array_batch\":%zu,\"am_window\":%zu,\"slots_per_pe\":%zu,"
      "\"warmup_batches\":%zu,\"worlds\":%d,\"seed\":%llu,"
      "\"build_type\":\"%s\",\"virtual_time\":false}\n",
      opt.name.c_str(), kPes, kThreadsPerPe, nproc,
      cfg.backend == BackendKind::kMmap ? "mmap" : "shmem", kArrayBatch,
      kAmWindow, kSlotsPerPe,
      opt.workload == Workload::kAm ? kAmWarmup : kArrayWarmup, kWorlds,
      static_cast<unsigned long long>(opt.seed), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  try {
    for (int rep = 0; rep < kWorlds; ++rep) {
      const std::uint64_t t_call = now_ns();
      run_world(
          kPes, [&](World& world) { pe_body(world, opt, t_call, rep); }, cfg,
          paper_perf_params(), PeMapping{}, /*virtual_time=*/false);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: runtime error: %s\n", e.what());
    return 1;
  }
  return 0;
}
