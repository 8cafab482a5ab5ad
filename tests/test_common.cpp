// Unit tests for the common substrate: byte buffers, serialization, RNG,
// configuration parsing, move-only functions, queues.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace {

using namespace lamellar;

TEST(Bytes, WriteReadRoundTrip) {
  ByteBuffer buf;
  buf.write_pod<std::uint32_t>(0xdeadbeef);
  buf.write_pod<double>(3.25);
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf.read_pod<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(buf.read_pod<double>(), 3.25);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(Bytes, ReadPastEndThrows) {
  ByteBuffer buf;
  buf.write_pod<std::uint8_t>(1);
  buf.read_pod<std::uint8_t>();
  EXPECT_THROW(buf.read_pod<std::uint8_t>(), DeserializeError);
}

TEST(Bytes, SeekAndViews) {
  ByteBuffer buf;
  for (std::uint8_t i = 0; i < 10; ++i) buf.write_pod(i);
  auto v = buf.read_view(4);
  EXPECT_EQ(static_cast<std::uint8_t>(v[3]), 3);
  buf.seek(8);
  EXPECT_EQ(buf.read_pod<std::uint8_t>(), 8);
  EXPECT_THROW(buf.seek(11), DeserializeError);
}

struct Inner {
  std::uint32_t a = 0;
  std::string s;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(a, s);
  }
  bool operator==(const Inner&) const = default;
};

struct Outer {
  Inner inner;
  std::vector<std::uint64_t> nums;
  std::vector<Inner> inners;
  std::optional<double> opt;
  std::pair<int, int> pr{0, 0};
  template <class Ar>
  void serialize(Ar& ar) {
    ar(inner, nums, inners, opt, pr);
  }
  bool operator==(const Outer&) const = default;
};

TEST(Serialize, NestedStructures) {
  Outer o;
  o.inner = {42, "hello"};
  o.nums = {1, 2, 3, 1ULL << 60};
  o.inners = {{1, "a"}, {2, "bb"}};
  o.opt = 2.5;
  o.pr = {-3, 9};
  auto buf = serialize_to_buffer(o);
  auto back = deserialize_from_buffer<Outer>(buf);
  EXPECT_EQ(back, o);
}

TEST(Serialize, EmptyContainersAndNullopt) {
  Outer o;
  auto buf = serialize_to_buffer(o);
  auto back = deserialize_from_buffer<Outer>(buf);
  EXPECT_EQ(back, o);
}

TEST(Serialize, EnumsAndTuples) {
  enum class Color : std::uint8_t { kRed = 1, kBlue = 7 };
  std::tuple<Color, std::uint16_t, std::string> t{Color::kBlue, 512, "x"};
  auto buf = serialize_to_buffer(t);
  auto back =
      deserialize_from_buffer<std::tuple<Color, std::uint16_t, std::string>>(
          buf);
  EXPECT_EQ(back, t);
}

TEST(Serialize, TrivialVectorFastPath) {
  std::vector<std::uint32_t> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 3;
  auto buf = serialize_to_buffer(v);
  EXPECT_EQ(buf.size(), 8 + 4000u);
  auto back = deserialize_from_buffer<std::vector<std::uint32_t>>(buf);
  EXPECT_EQ(back, v);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(13);
    ASSERT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u);  // all buckets hit
}

TEST(Rng, UniformIsRoughlyUniform) {
  Xoshiro256 rng(99);
  std::map<std::uint64_t, int> counts;
  const int kTrials = 64000;
  for (int i = 0; i < kTrials; ++i) counts[rng.uniform(8)]++;
  for (auto& [k, c] : counts) {
    EXPECT_NEAR(c, kTrials / 8, kTrials / 80);  // within 10%
  }
}

TEST(Rng, PerPeStreamsDiffer) {
  auto r0 = pe_rng(42, 0);
  auto r1 = pe_rng(42, 1);
  EXPECT_NE(r0.next(), r1.next());
}

TEST(Config, EnvParsing) {
  setenv("LAMELLAR_TEST_SIZE", "4K", 1);
  EXPECT_EQ(env_size("LAMELLAR_TEST_SIZE", 0), 4096u);
  setenv("LAMELLAR_TEST_SIZE", "2M", 1);
  EXPECT_EQ(env_size("LAMELLAR_TEST_SIZE", 0), 2u * 1024 * 1024);
  setenv("LAMELLAR_TEST_SIZE", "1G", 1);
  EXPECT_EQ(env_size("LAMELLAR_TEST_SIZE", 0), 1024u * 1024 * 1024);
  setenv("LAMELLAR_TEST_SIZE", "123", 1);
  EXPECT_EQ(env_size("LAMELLAR_TEST_SIZE", 0), 123u);
  unsetenv("LAMELLAR_TEST_SIZE");
  EXPECT_EQ(env_size("LAMELLAR_TEST_SIZE", 77), 77u);
}

TEST(Config, Defaults) {
  const RuntimeConfig cfg;
  EXPECT_EQ(cfg.agg_threshold_bytes, 100u * 1024);  // paper default
  EXPECT_EQ(cfg.batch_op_limit, 10'000u);           // paper experiments
}

TEST(Config, UnknownEnvVarsFlagged) {
  ::setenv("LAMELLAR_DEFINITELY_NOT_A_KNOB", "1", 1);
  ::setenv("LAMELLAR_AGG_THRESHOLD", "4K", 1);  // known: must not be flagged
  // The adaptive controller's knob is gone (DESIGN.md §14); a run that
  // still sets it gets the startup warning instead of silent defaults.
  ::setenv("LAMELLAR_ADAPT", "agg", 1);
  // So is the virtual-time knob: only run_world's virtual_time argument
  // selects virtual time.
  ::setenv("LAMELLAR_VIRTUAL_TIME", "0", 1);
  // And the reserved-region size: the region is one fixed page.
  ::setenv("LAMELLAR_INTERNAL_HEAP", "64K", 1);
  // And the 2-hop relay cutoff: it is always agg_threshold / 8.
  ::setenv("LAMELLAR_ROUTE_CUTOFF", "1", 1);
  // And the per-PE trace split: in-process runs write one combined file.
  ::setenv("LAMELLAR_TRACE_PER_PE", "1", 1);
  auto unknown = unknown_lamellar_env_vars();
  bool saw_bogus = false;
  bool saw_adapt = false;
  bool saw_virtual_time = false;
  bool saw_internal_heap = false;
  bool saw_route_cutoff = false;
  bool saw_trace_per_pe = false;
  for (const auto& name : unknown) {
    EXPECT_NE(name, "LAMELLAR_AGG_THRESHOLD");
    if (name == "LAMELLAR_DEFINITELY_NOT_A_KNOB") saw_bogus = true;
    if (name == "LAMELLAR_ADAPT") saw_adapt = true;
    if (name == "LAMELLAR_VIRTUAL_TIME") saw_virtual_time = true;
    if (name == "LAMELLAR_INTERNAL_HEAP") saw_internal_heap = true;
    if (name == "LAMELLAR_ROUTE_CUTOFF") saw_route_cutoff = true;
    if (name == "LAMELLAR_TRACE_PER_PE") saw_trace_per_pe = true;
  }
  EXPECT_TRUE(saw_bogus);
  EXPECT_TRUE(saw_adapt);
  EXPECT_TRUE(saw_virtual_time);
  EXPECT_TRUE(saw_internal_heap);
  EXPECT_TRUE(saw_route_cutoff);
  EXPECT_TRUE(saw_trace_per_pe);
  ::unsetenv("LAMELLAR_DEFINITELY_NOT_A_KNOB");
  ::unsetenv("LAMELLAR_AGG_THRESHOLD");
  ::unsetenv("LAMELLAR_ADAPT");
  ::unsetenv("LAMELLAR_VIRTUAL_TIME");
  ::unsetenv("LAMELLAR_INTERNAL_HEAP");
  ::unsetenv("LAMELLAR_ROUTE_CUTOFF");
  ::unsetenv("LAMELLAR_TRACE_PER_PE");
}

TEST(UniqueFunction, MoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  UniqueFunction<int()> f([p = std::move(p)] { return *p + 1; });
  EXPECT_EQ(f(), 42);
}

TEST(UniqueFunction, LargeCaptureHeapPath) {
  std::array<char, 200> big{};
  big[0] = 'x';
  UniqueFunction<char()> f([big] { return big[0]; });
  UniqueFunction<char()> g(std::move(f));
  EXPECT_EQ(g(), 'x');
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
}

TEST(UniqueFunction, Reassignment) {
  UniqueFunction<int()> f([] { return 1; });
  f = [] { return 2; };
  EXPECT_EQ(f(), 2);
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(MpmcQueue, FifoOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, DrainInto) {
  MpmcQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.drain_into(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(q.empty());
}

TEST(Types, Helpers) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

}  // namespace
