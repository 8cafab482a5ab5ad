#include "common/config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

extern char** environ;

namespace lamellar {

namespace {

// Every LAMELLAR_-prefixed name any binary in this repo reads: runtime knobs
// (README "Environment variables" table), bench/test sweep parameters, and
// CI switches.  unknown_lamellar_env_vars() flags anything outside this set
// so a typo'd knob warns instead of silently reverting to the default.
constexpr const char* kKnownEnvVars[] = {
    // Runtime knobs (RuntimeConfig::from_env).
    "LAMELLAR_AGG_THRESHOLD",
    "LAMELLAR_BACKEND",
    "LAMELLAR_BATCH_OP_LIMIT",
    "LAMELLAR_METRICS",
    "LAMELLAR_METRICS_FILE",
    "LAMELLAR_METRICS_INTERVAL_MS",
    "LAMELLAR_MP_BARRIER_TIMEOUT_MS",
    "LAMELLAR_MP_RING",
    "LAMELLAR_MP_TIMEOUT_MS",
    "LAMELLAR_ONESIDED_HEAP",
    "LAMELLAR_PARK_US",
    "LAMELLAR_ROUTE",
    "LAMELLAR_SEED",
    "LAMELLAR_SYM_HEAP",
    "LAMELLAR_THREADS",
    "LAMELLAR_TRACE_CAPACITY",
    "LAMELLAR_TRACE_FILE",
    "LAMELLAR_TRACE_SAMPLE",
    // Bench / example / test parameters.
    "LAMELLAR_FIG2_FULL",
    "LAMELLAR_FIG3_UPDATES",
    "LAMELLAR_FIG4_REQUESTS",
    "LAMELLAR_FIG5_PERM",
    "LAMELLAR_FIG_IMPL",
    "LAMELLAR_FUSION_ITERS",
    "LAMELLAR_FUSION_OPS",
    "LAMELLAR_SANITIZE",
    "LAMELLAR_SCALE_AGG",
    "LAMELLAR_SCALE_KERNELS",
    "LAMELLAR_SCALE_OPS",
    "LAMELLAR_SCALE_PARK_US",
    "LAMELLAR_SCALE_PES",
    "LAMELLAR_SCALE_ROUTES",
    "LAMELLAR_SERVE_PES",
    "LAMELLAR_SERVE_SECONDS",
    "LAMELLAR_SERVE_SHAPES",
    "LAMELLAR_TEST_FIG3_UPDATES",
    "LAMELLAR_TEST_SIZE",
};

// Parse a size with optional K/M/G suffix (binary multiples).
std::size_t parse_size(const std::string& s) {
  std::size_t pos = 0;
  unsigned long long v = std::stoull(s, &pos);
  std::size_t mult = 1;
  if (pos < s.size()) {
    switch (s[pos]) {
      case 'k':
      case 'K':
        mult = 1024;
        break;
      case 'm':
      case 'M':
        mult = 1024 * 1024;
        break;
      case 'g':
      case 'G':
        mult = 1024ULL * 1024 * 1024;
        break;
      default:
        throw std::invalid_argument("bad size suffix: " + s);
    }
  }
  return static_cast<std::size_t>(v) * mult;
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_size(v);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::stoull(v);
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

MetricsMode parse_metrics_mode(const std::string& s) {
  if (s == "quiet") return MetricsMode::kQuiet;
  if (s == "summary") return MetricsMode::kSummary;
  if (s == "json") return MetricsMode::kJson;
  throw std::invalid_argument(
      "LAMELLAR_METRICS must be quiet|summary|json, got: " + s);
}

RouteMode parse_route_mode(const std::string& s) {
  if (s == "direct") return RouteMode::kDirect;
  if (s == "2hop") return RouteMode::k2Hop;
  throw std::invalid_argument("LAMELLAR_ROUTE must be direct|2hop, got: " + s);
}

BackendKind parse_backend_kind(const std::string& s) {
  if (s == "shmem") return BackendKind::kShmem;
  if (s == "mmap") return BackendKind::kMmap;
  throw std::invalid_argument("LAMELLAR_BACKEND must be shmem|mmap, got: " +
                              s);
}

std::vector<std::string> unknown_lamellar_env_vars() {
  std::vector<std::string> unknown;
  if (environ == nullptr) return unknown;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "LAMELLAR_", 9) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    std::string name = eq != nullptr ? std::string(entry, eq) : entry;
    bool known = false;
    for (const char* k : kKnownEnvVars) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (!known) unknown.push_back(std::move(name));
  }
  std::sort(unknown.begin(), unknown.end());
  unknown.erase(std::unique(unknown.begin(), unknown.end()), unknown.end());
  return unknown;
}

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig cfg;
  cfg.threads_per_pe = env_size("LAMELLAR_THREADS", cfg.threads_per_pe);
  cfg.agg_threshold_bytes =
      env_size("LAMELLAR_AGG_THRESHOLD", cfg.agg_threshold_bytes);
  cfg.batch_op_limit = env_size("LAMELLAR_BATCH_OP_LIMIT", cfg.batch_op_limit);
  cfg.symmetric_heap_bytes =
      env_size("LAMELLAR_SYM_HEAP", cfg.symmetric_heap_bytes);
  cfg.onesided_heap_bytes =
      env_size("LAMELLAR_ONESIDED_HEAP", cfg.onesided_heap_bytes);
  cfg.seed = env_u64("LAMELLAR_SEED", cfg.seed);
  cfg.metrics_mode = parse_metrics_mode(env_str("LAMELLAR_METRICS", "quiet"));
  cfg.trace_file = env_str("LAMELLAR_TRACE_FILE", cfg.trace_file);
  cfg.trace_ring_capacity =
      env_size("LAMELLAR_TRACE_CAPACITY", cfg.trace_ring_capacity);
  cfg.trace_sample = env_u64("LAMELLAR_TRACE_SAMPLE", cfg.trace_sample);
  cfg.metrics_interval_ms =
      env_u64("LAMELLAR_METRICS_INTERVAL_MS", cfg.metrics_interval_ms);
  cfg.metrics_file = env_str("LAMELLAR_METRICS_FILE", cfg.metrics_file);
  cfg.route = parse_route_mode(env_str("LAMELLAR_ROUTE", "direct"));
  cfg.park_timeout_us = env_u64("LAMELLAR_PARK_US", cfg.park_timeout_us);
  cfg.backend = parse_backend_kind(env_str("LAMELLAR_BACKEND", "shmem"));
  cfg.mp_ring_bytes = env_size("LAMELLAR_MP_RING", cfg.mp_ring_bytes);
  cfg.mp_barrier_timeout_ms =
      env_u64("LAMELLAR_MP_BARRIER_TIMEOUT_MS", cfg.mp_barrier_timeout_ms);
  cfg.mp_wait_timeout_ms =
      env_u64("LAMELLAR_MP_TIMEOUT_MS", cfg.mp_wait_timeout_ms);

  // Typo detection: warn once per process about LAMELLAR_ vars nothing
  // reads, rather than silently falling back to defaults.
  static std::once_flag warn_once;
  std::call_once(warn_once, [] {
    for (const auto& name : unknown_lamellar_env_vars()) {
      std::fprintf(stderr,
                   "lamellar: warning: unknown environment variable %s "
                   "(see README \"Environment variables\"); ignored\n",
                   name.c_str());
    }
  });
  return cfg;
}

}  // namespace lamellar
