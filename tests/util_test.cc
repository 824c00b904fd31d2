// Unit tests for the util substrate: buffers, RNG, data generation,
// prefix sums, CPU introspection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/cpu_info.h"
#include "util/data_gen.h"
#include "util/prefix_sum.h"
#include "util/rng.h"

namespace simddb {
namespace {

TEST(Bits, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(4), 2u);
  EXPECT_EQ(Log2Floor(uint64_t{1} << 40), 40u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(1), 0u);
  EXPECT_EQ(Log2Ceil(2), 1u);
  EXPECT_EQ(Log2Ceil(3), 2u);
  EXPECT_EQ(Log2Ceil(4), 2u);
  EXPECT_EQ(Log2Ceil(5), 3u);
}

TEST(Bits, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(65));
}

TEST(Bits, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(4), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(Bits, RoundUp) {
  EXPECT_EQ(RoundUp(0, 16), 0u);
  EXPECT_EQ(RoundUp(1, 16), 16u);
  EXPECT_EQ(RoundUp(16, 16), 16u);
  EXPECT_EQ(RoundUp(17, 16), 32u);
}

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<uint32_t> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
  buf.Clear();
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0u);
}

TEST(AlignedBuffer, MoveSemantics) {
  AlignedBuffer<uint32_t> a(16);
  a[0] = 42;
  AlignedBuffer<uint32_t> b(std::move(a));
  EXPECT_EQ(b[0], 42u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  AlignedBuffer<uint32_t> c;
  c = std::move(b);
  EXPECT_EQ(c[0], 42u);
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer<uint32_t> buf;
  EXPECT_TRUE(buf.empty());
  buf.Clear();  // no-op, must not crash
  buf.Reset(0);
  EXPECT_TRUE(buf.empty());
}

TEST(Pcg32, DeterministicPerSeed) {
  Pcg32 a(7), b(7), c(8);
  uint32_t va = a.Next(), vb = b.Next(), vc = c.Next();
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(Pcg32, BoundedStaysInRange) {
  Pcg32 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32, RoughlyUniform) {
  Pcg32 rng(11);
  int counts[8] = {0};
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 8 - kDraws / 40);
    EXPECT_LT(c, kDraws / 8 + kDraws / 40);
  }
}

TEST(DataGen, UniformRespectsBounds) {
  std::vector<uint32_t> v(4096);
  FillUniform(v.data(), v.size(), 1, 100, 200);
  for (uint32_t x : v) {
    EXPECT_GE(x, 100u);
    EXPECT_LE(x, 200u);
  }
}

TEST(DataGen, UniqueShuffledIsAPermutation) {
  std::vector<uint32_t> v(1000);
  FillUniqueShuffled(v.data(), v.size(), 5, 1);
  std::vector<uint32_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i + 1);
  }
  // And actually shuffled: not identical to sorted order.
  EXPECT_NE(v, sorted);
}

TEST(DataGen, RepeatsHaveRequestedCardinality) {
  std::vector<uint32_t> v(10000);
  FillWithRepeats(v.data(), v.size(), 250, 9, 1);
  std::set<uint32_t> uniq(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), 250u);
  EXPECT_EQ(*uniq.begin(), 1u);
  EXPECT_EQ(*uniq.rbegin(), 250u);
}

TEST(DataGen, SplittersAreSortedAndCounted) {
  auto s = MakeSplitters(64, 1u << 30);
  EXPECT_EQ(s.size(), 63u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(DataGen, ProbeKeysHitRate) {
  std::vector<uint32_t> build(1u << 12);
  FillUniqueShuffled(build.data(), build.size(), 2, 1);
  std::vector<uint32_t> probes(1u << 16);
  FillProbeKeys(probes.data(), probes.size(), build.data(), build.size(), 0.5,
                3);
  std::set<uint32_t> bset(build.begin(), build.end());
  size_t hits = 0;
  for (uint32_t p : probes) hits += bset.count(p);
  double rate = static_cast<double>(hits) / probes.size();
  EXPECT_NEAR(rate, 0.5, 0.02);
}

TEST(DataGen, ZipfIsSkewed) {
  std::vector<uint32_t> v(100000);
  FillZipf(v.data(), v.size(), 1000, 0.9, 17, 1);
  size_t top = static_cast<size_t>(std::count(v.begin(), v.end(), 1u));
  // Key 1 should appear far more often than 1/1000 of the time.
  EXPECT_GT(top, v.size() / 200);
  for (uint32_t x : v) {
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 1000u);
  }
}

TEST(PrefixSum, Exclusive64) {
  uint64_t h[5] = {3, 0, 2, 7, 1};
  uint64_t total = ExclusivePrefixSum(h, 5);
  EXPECT_EQ(total, 13u);
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_EQ(h[2], 3u);
  EXPECT_EQ(h[3], 5u);
  EXPECT_EQ(h[4], 12u);
}

TEST(PrefixSum, InterleavedAcrossThreads) {
  // 2 threads × 3 partitions.
  uint64_t h[6] = {/*t0*/ 1, 2, 3, /*t1*/ 4, 5, 6};
  uint64_t total = InterleavedPrefixSum(h, 2, 3);
  EXPECT_EQ(total, 21u);
  // Partition 0: t0 at 0, t1 at 1. Partition 1 starts at 5: t0 at 5, t1 at 7.
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[3], 1u);
  EXPECT_EQ(h[1], 5u);
  EXPECT_EQ(h[4], 7u);
  EXPECT_EQ(h[2], 12u);
  EXPECT_EQ(h[5], 15u);
}

TEST(CpuInfoTest, SaneValues) {
  const CpuInfo& info = GetCpuInfo();
  EXPECT_GE(info.logical_cores, 1);
  EXPECT_GT(info.l1d_bytes, 0u);
  EXPECT_GT(info.l2_bytes, 0u);
}

}  // namespace
}  // namespace simddb
