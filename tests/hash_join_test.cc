// Hash join tests (§9): all three variants on every ISA, single- and
// multi-threaded, must produce exactly the reference join result, also
// when either side holds the reserved key kEmptyKey.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "join/hash_join.h"
#include "partition/histogram.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

enum class Variant { kNoPartition, kMinPartition, kMaxPartition };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kNoPartition: return "nopart";
    case Variant::kMinPartition: return "minpart";
    case Variant::kMaxPartition: return "maxpart";
  }
  return "?";
}

struct JoinRow {
  uint32_t key, rpay, spay;
  bool operator==(const JoinRow&) const = default;
  bool operator<(const JoinRow& o) const {
    return std::tie(key, rpay, spay) < std::tie(o.key, o.rpay, o.spay);
  }
};

class HashJoinTest
    : public ::testing::TestWithParam<
          std::tuple<Variant, Isa, int, double>> {};

TEST_P(HashJoinTest, MatchesReferenceJoin) {
  auto [variant, isa, threads, hit_rate] = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();

  const size_t r_n = 20'000;
  const size_t s_n = 100'000;
  std::vector<uint32_t> r_keys(r_n), r_pays(r_n), s_keys(s_n), s_pays(s_n);
  FillUniqueShuffled(r_keys.data(), r_n, 3, 1);  // FK join: unique R keys
  FillSequential(r_pays.data(), r_n, 1'000'000);
  FillProbeKeys(s_keys.data(), s_n, r_keys.data(), r_n, hit_rate, 5);
  FillSequential(s_pays.data(), s_n, 2'000'000);

  // The second S is the same draw with every 7th key set to the reserved
  // kEmptyKey, the tables' empty marker, and the second R the same keys
  // with every 11th one reserved: reserved keys join nothing, on either
  // side.
  std::vector<uint32_t> s_keys_reserved(s_keys);
  for (size_t i = 0; i < s_n; i += 7) s_keys_reserved[i] = kEmptyKey;
  std::vector<uint32_t> r_keys_reserved(r_keys);
  for (size_t i = 0; i < r_n; i += 11) r_keys_reserved[i] = kEmptyKey;

  JoinConfig cfg;
  cfg.isa = isa;
  cfg.threads = threads;
  struct Sides {
    const std::vector<uint32_t>* r_keys;
    const std::vector<uint32_t>* s_keys;
    const char* label;
  };
  const Sides sides[] = {{&r_keys, &s_keys, "R, S"},
                         {&r_keys, &s_keys_reserved, "R, reserved S"},
                         {&r_keys_reserved, &s_keys, "reserved R, S"},
                         {&r_keys_reserved, &s_keys_reserved,
                          "reserved R, reserved S"}};
  for (const Sides& side : sides) {
    const std::vector<uint32_t>& rk = *side.r_keys;
    const std::vector<uint32_t>& sk = *side.s_keys;
    std::unordered_map<uint32_t, uint32_t> map;
    for (size_t i = 0; i < r_n; ++i) {
      if (rk[i] != kEmptyKey) map[rk[i]] = r_pays[i];
    }
    std::vector<JoinRow> want;
    for (size_t i = 0; i < s_n; ++i) {
      auto it = map.find(sk[i]);
      if (it != map.end()) want.push_back({sk[i], it->second, s_pays[i]});
    }
    std::sort(want.begin(), want.end());

    JoinRelation r{rk.data(), r_pays.data(), r_n};
    JoinRelation s{sk.data(), s_pays.data(), s_n};
    AlignedBuffer<uint32_t> ok(s_n + 16), orp(s_n + 16), osp(s_n + 16);
    JoinTimings t;
    size_t got = 0;
    switch (variant) {
      case Variant::kNoPartition:
        got = HashJoinNoPartition(r, s, cfg, ok.data(), orp.data(),
                                  osp.data(), &t);
        break;
      case Variant::kMinPartition:
        got = HashJoinMinPartition(r, s, cfg, ok.data(), orp.data(),
                                   osp.data(), &t);
        break;
      case Variant::kMaxPartition:
        got = HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(),
                                   osp.data(), &t);
        break;
    }
    ASSERT_EQ(got, want.size()) << side.label;
    std::vector<JoinRow> rows(got);
    for (size_t i = 0; i < got; ++i) rows[i] = {ok[i], orp[i], osp[i]};
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, want) << side.label;
    EXPECT_GE(t.Total(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashJoinTest,
    ::testing::Combine(::testing::Values(Variant::kNoPartition,
                                         Variant::kMinPartition,
                                         Variant::kMaxPartition),
                       ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                         Isa::kAvx512),
                       ::testing::Values(1, 4),
                       ::testing::Values(1.0, 0.4)),
    [](const auto& info) {
      return std::string(VariantName(std::get<0>(info.param))) + "_" +
             IsaName(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param)) + "_hit" +
             std::to_string(static_cast<int>(std::get<3>(info.param) * 100));
    });

TEST(HashJoin, EmptyRelations) {
  JoinConfig cfg;
  AlignedBuffer<uint32_t> ok(16), orp(16), osp(16);
  std::vector<uint32_t> keys = {1, 2, 3}, pays = {4, 5, 6};
  JoinRelation empty{keys.data(), pays.data(), 0};
  JoinRelation some{keys.data(), pays.data(), 3};
  EXPECT_EQ(HashJoinNoPartition(empty, some, cfg, ok.data(), orp.data(),
                                osp.data()),
            0u);
  EXPECT_EQ(HashJoinNoPartition(some, empty, cfg, ok.data(), orp.data(),
                                osp.data()),
            0u);
  EXPECT_EQ(HashJoinMaxPartition(empty, some, cfg, ok.data(), orp.data(),
                                 osp.data()),
            0u);
}

TEST(HashJoin, TinyRelationsAllVariants) {
  std::vector<uint32_t> r_keys = {7, 3, 9}, r_pays = {70, 30, 90};
  std::vector<uint32_t> s_keys = {3, 3, 9, 1}, s_pays = {1, 2, 3, 4};
  JoinRelation r{r_keys.data(), r_pays.data(), 3};
  JoinRelation s{s_keys.data(), s_pays.data(), 4};
  JoinConfig cfg;
  cfg.isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  AlignedBuffer<uint32_t> ok(32), orp(32), osp(32);
  for (int v = 0; v < 3; ++v) {
    size_t got = v == 0   ? HashJoinNoPartition(r, s, cfg, ok.data(),
                                                orp.data(), osp.data())
                 : v == 1 ? HashJoinMinPartition(r, s, cfg, ok.data(),
                                                 orp.data(), osp.data())
                          : HashJoinMaxPartition(r, s, cfg, ok.data(),
                                                 orp.data(), osp.data());
    ASSERT_EQ(got, 3u) << "variant " << v;
    std::vector<JoinRow> rows(got);
    for (size_t i = 0; i < got; ++i) rows[i] = {ok[i], orp[i], osp[i]};
    std::sort(rows.begin(), rows.end());
    std::vector<JoinRow> want = {{3, 30, 1}, {3, 30, 2}, {9, 90, 3}};
    EXPECT_EQ(rows, want) << "variant " << v;
  }
}

TEST(HashJoin, MaxPartitionTwoPassScalarPath) {
  // Regression: the scalar histogram must honour the generalized hash-radix
  // partition function (total/shift fields) used by two-pass partitioning;
  // it once fell back to plain multiplicative hashing, desynchronizing
  // histogram and shuffle and corrupting the partition bounds.
  const size_t n = 1u << 19;
  std::vector<uint32_t> r_keys(n), r_pays(n), s_keys(n), s_pays(n);
  FillUniqueShuffled(r_keys.data(), n, 21, 1);
  FillSequential(r_pays.data(), n, 0);
  FillProbeKeys(s_keys.data(), n, r_keys.data(), n, 1.0, 23);
  FillSequential(s_pays.data(), n, 0);
  JoinConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.threads = 1;
  cfg.target_part_tuples = 256;  // n/256 = 2048 parts -> 11 bits -> 2 passes
  JoinRelation r{r_keys.data(), r_pays.data(), n};
  JoinRelation s{s_keys.data(), s_pays.data(), n};
  AlignedBuffer<uint32_t> ok(n + 16), orp(n + 16), osp(n + 16);
  size_t got =
      HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(), osp.data());
  ASSERT_EQ(got, n);  // hit rate 1.0 and unique R keys: every probe matches
  std::unordered_map<uint32_t, uint32_t> map;
  for (size_t i = 0; i < n; ++i) map[r_keys[i]] = r_pays[i];
  for (size_t i = 0; i < got; ++i) {
    auto it = map.find(ok[i]);
    ASSERT_NE(it, map.end());
    ASSERT_EQ(orp[i], it->second);
  }
}

TEST(Histogram, ScalarHonoursHashRadixForm) {
  // Companion regression at the histogram level.
  const size_t n = 40000;
  std::vector<uint32_t> keys(n);
  FillUniform(keys.data(), n, 3, 0, 0xFFFFFFFFu);
  PartitionFn fn = PartitionFn::HashRadix(4, 6, 1u << 10);
  std::vector<uint32_t> hist(fn.fanout);
  HistogramScalar(fn, keys.data(), n, hist.data());
  std::vector<uint32_t> want(fn.fanout, 0);
  for (uint32_t k : keys) ++want[fn(k)];
  EXPECT_EQ(hist, want);
}

TEST(HashJoin, MaxPartitionTwoPassPath) {
  // Force the two-pass partitioning path (total_bits > 8) with a small
  // per-part target.
  const size_t r_n = 200'000;
  const size_t s_n = 200'000;
  std::vector<uint32_t> r_keys(r_n), r_pays(r_n), s_keys(s_n), s_pays(s_n);
  FillUniqueShuffled(r_keys.data(), r_n, 11, 1);
  FillSequential(r_pays.data(), r_n, 0);
  FillProbeKeys(s_keys.data(), s_n, r_keys.data(), r_n, 0.9, 13);
  FillSequential(s_pays.data(), s_n, 0);
  JoinConfig cfg;
  cfg.isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  cfg.threads = 3;
  cfg.target_part_tuples = 128;  // ~2048 parts -> 11 bits -> two passes
  JoinRelation r{r_keys.data(), r_pays.data(), r_n};
  JoinRelation s{s_keys.data(), s_pays.data(), s_n};
  AlignedBuffer<uint32_t> ok(s_n + 16), orp(s_n + 16), osp(s_n + 16);
  size_t got =
      HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(), osp.data());
  // Verify counts and spot-check correctness against a map.
  std::unordered_map<uint32_t, uint32_t> map;
  for (size_t i = 0; i < r_n; ++i) map[r_keys[i]] = r_pays[i];
  size_t want = 0;
  for (size_t i = 0; i < s_n; ++i) want += map.count(s_keys[i]);
  ASSERT_EQ(got, want);
  for (size_t i = 0; i < got; ++i) {
    auto it = map.find(ok[i]);
    ASSERT_NE(it, map.end());
    ASSERT_EQ(orp[i], it->second);
  }
}

}  // namespace
}  // namespace simddb
