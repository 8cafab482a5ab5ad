// Fork-based multi-process test fixture for the process-separated backend.
//
// run_world(LAMELLAR_BACKEND=mmap) already forks one OS process per PE,
// joins with crash detection, and rethrows the first failure with the
// casualty's stderr — this header adapts that machinery to gtest:
//
//   MP_TEST(Suite, Name, n_pes) { /* SPMD body, `world` in scope */ }
//
// gtest's EXPECT/ASSERT macros record failures in process-local state, so a
// failed expectation inside a forked child would be INVISIBLE to the parent
// test binary.  Child bodies therefore use MP_CHECK / MP_CHECK_EQ, which
// throw on violation: the harness turns that into a nonzero child exit plus
// the message on the child's captured stderr, and the parent surfaces it as
// the test failure.
//
// The fixture's teardown scans /dev/shm for segments created by this
// process and fails the test if any leaked — every run, including the
// crash-injection ones, must unlink its segment.
#pragma once

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/world/world.hpp"
#include "lamellae/mmap_lamellae.hpp"

namespace lamellar::mptest {

/// Config for multi-process tests: mmap backend with heaps shrunk so an
/// 8-process world costs ~100 MB of /dev/shm instead of ~800 MB, and
/// timeouts short enough that a genuine hang fails fast in CI.
inline RuntimeConfig small_config() {
  RuntimeConfig cfg = RuntimeConfig::from_env();
  cfg.backend = BackendKind::kMmap;
  cfg.symmetric_heap_bytes = std::size_t{8} << 20;
  cfg.onesided_heap_bytes = std::size_t{4} << 20;
  cfg.agg_threshold_bytes = 64 * 1024;
  cfg.mp_ring_bytes = std::size_t{256} << 10;
  cfg.mp_barrier_timeout_ms = 8'000;
  cfg.mp_wait_timeout_ms = 90'000;
  return cfg;
}

/// Run `body` SPMD over `n_pes` forked processes; report the first failing
/// PE's outcome (exit/signal + stderr) as a gtest failure in the parent.
inline void run_mp(std::size_t n_pes,
                   const std::function<void(World&)>& body,
                   RuntimeConfig cfg = small_config()) {
  cfg.backend = BackendKind::kMmap;
  try {
    run_world(n_pes, body, cfg);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
}

/// Leak-checking fixture: no /dev/shm segment created by this (parent)
/// process may survive a test, crash-injection included.
class MpTest : public ::testing::Test {
 protected:
  void TearDown() override {
    const auto leaked = MmapSegment::segments_of(getpid());
    for (const auto& name : leaked) {
      ADD_FAILURE() << "leaked /dev/shm segment: " << name;
      ::shm_unlink(name.c_str());  // don't poison the next test in this binary
    }
  }
};

}  // namespace lamellar::mptest

/// Child-side checks: throw (→ child exits 1 with the message on stderr)
/// instead of recording into gtest state the parent never sees.
#define MP_CHECK(cond)                                                   \
  do {                                                                   \
    if (!(cond)) {                                                       \
      throw std::runtime_error(std::string("MP_CHECK failed at ") +      \
                               __FILE__ + ":" + std::to_string(__LINE__) \
                               + ": " #cond);                            \
    }                                                                    \
  } while (0)

#define MP_CHECK_EQ(a, b)                                                  \
  do {                                                                     \
    const auto mp_va = (a);                                                \
    const auto mp_vb = (b);                                                \
    if (!(mp_va == mp_vb)) {                                               \
      std::ostringstream mp_os;                                            \
      mp_os << "MP_CHECK_EQ failed at " << __FILE__ << ":" << __LINE__    \
            << ": " #a " (" << mp_va << ") != " #b " (" << mp_vb << ")";  \
      throw std::runtime_error(mp_os.str());                               \
    }                                                                      \
  } while (0)

/// Declare a gtest case whose body runs SPMD on `n_pes` forked processes.
/// The body receives `lamellar::World& world`; use MP_CHECK inside.  An
/// optional fourth argument is the RuntimeConfig (default small_config()).
#define MP_TEST(suite, name, n_pes, ...)                                \
  struct MpBody_##suite##_##name {                                      \
    static void run(lamellar::World& world);                            \
  };                                                                    \
  TEST_F(suite, name) {                                                 \
    lamellar::mptest::run_mp((n_pes), &MpBody_##suite##_##name::run     \
                                 __VA_OPT__(, ) __VA_ARGS__);           \
  }                                                                     \
  void MpBody_##suite##_##name::run(lamellar::World& world)
