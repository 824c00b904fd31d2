// Range-partitioned sort tests: sortedness, permutation integrity, and
// agreement with std::sort across ISAs, fanouts, and skewed inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/isa.h"
#include "sort/range_sort.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

class RangeSortTest
    : public ::testing::TestWithParam<std::tuple<Isa, uint32_t, size_t>> {};

TEST_P(RangeSortTest, SortsCorrectly) {
  auto [isa, fanout, n] = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  RangeSortConfig cfg;
  cfg.isa = isa;
  cfg.fanout = fanout;
  AlignedBuffer<uint32_t> keys(n + 16), pays(n + 16);
  AlignedBuffer<uint32_t> sk(n + 16), sp(n + 16);
  FillUniform(keys.data(), n, 7, 0, 0xFFFFFFFFu);
  FillSequential(pays.data(), n, 0);
  std::vector<uint32_t> orig(keys.data(), keys.data() + n);
  std::vector<uint32_t> want = orig;
  std::sort(want.begin(), want.end());

  RangeSortPairs(keys.data(), pays.data(), sk.data(), sp.data(), n, cfg);

  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], want[i]) << "@" << i;
    ASSERT_LT(pays[i], n);
    ASSERT_FALSE(seen[pays[i]]);
    seen[pays[i]] = true;
    ASSERT_EQ(keys[i], orig[pays[i]]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeSortTest,
    ::testing::Combine(::testing::Values(Isa::kScalar, Isa::kAvx512),
                       ::testing::Values<uint32_t>(2, 17, 289),
                       ::testing::Values<size_t>(3, 1000, 120'001)),
    [](const auto& info) {
      return std::string(IsaName(std::get<0>(info.param))) + "_f" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RangeSort, SkewedInputStillSorts) {
  // Zipf keys give wildly unbalanced range partitions; the sampled
  // splitters adapt and correctness must hold either way.
  const size_t n = 80'000;
  RangeSortConfig cfg;
  cfg.isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  AlignedBuffer<uint32_t> keys(n + 16), pays(n + 16), sk(n + 16), sp(n + 16);
  FillZipf(keys.data(), n, 5000, 0.9, 3);
  FillSequential(pays.data(), n, 0);
  std::vector<uint32_t> want(keys.data(), keys.data() + n);
  std::sort(want.begin(), want.end());
  RangeSortPairs(keys.data(), pays.data(), sk.data(), sp.data(), n, cfg);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(keys[i], want[i]) << i;
}

TEST(RangeSort, AllEqualKeys) {
  const size_t n = 5000;
  RangeSortConfig cfg;
  cfg.isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  AlignedBuffer<uint32_t> keys(n + 16), pays(n + 16), sk(n + 16), sp(n + 16);
  for (size_t i = 0; i < n; ++i) keys[i] = 99;
  FillSequential(pays.data(), n, 0);
  RangeSortPairs(keys.data(), pays.data(), sk.data(), sp.data(), n, cfg);
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], 99u);
    ASSERT_FALSE(seen[pays[i]]);
    seen[pays[i]] = true;
  }
}

}  // namespace
}  // namespace simddb
