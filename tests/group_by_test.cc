// Group-by aggregation tests: vectorized accumulation must match a
// std::map-based reference exactly (COUNT, SUM, MIN, MAX) across group
// cardinalities, including heavy per-vector key repetition (the conflict-
// retry path) and incremental accumulation across batches. The
// direct-indexed group-by and the executor's GroupByState are held to the
// same reference, in ascending key order: the state's choice between
// direct and hash partials at the 4,096-value boundary, domains at both
// ends of the u32 range, empty and one-row inputs, and lane merges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "agg/group_by.h"
#include "core/isa.h"
#include "exec/pipeline.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

struct Agg {
  uint64_t sum = 0;
  uint32_t count = 0;
  uint32_t min = 0xFFFFFFFFu;
  uint32_t max = 0;
  bool operator==(const Agg&) const = default;
};

std::map<uint32_t, Agg> Reference(const std::vector<uint32_t>& keys,
                                  const std::vector<uint32_t>& vals) {
  std::map<uint32_t, Agg> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    Agg& a = ref[keys[i]];
    a.sum += vals[i];
    a.count += 1;
    a.min = std::min(a.min, vals[i]);
    a.max = std::max(a.max, vals[i]);
  }
  return ref;
}

std::map<uint32_t, Agg> Collect(const GroupByAggregator& agg, Isa isa) {
  size_t g = agg.num_groups();
  std::vector<uint32_t> keys(g), counts(g), mins(g), maxs(g);
  std::vector<uint64_t> sums(g);
  size_t got = agg.Extract(isa, keys.data(), sums.data(), counts.data(),
                           mins.data(), maxs.data());
  EXPECT_EQ(got, g);
  std::map<uint32_t, Agg> out;
  for (size_t i = 0; i < got; ++i) {
    EXPECT_FALSE(out.count(keys[i])) << "duplicate group " << keys[i];
    out[keys[i]] = {sums[i], counts[i], mins[i], maxs[i]};
  }
  return out;
}

class GroupByTest
    : public ::testing::TestWithParam<std::tuple<Isa, size_t, size_t>> {};

TEST_P(GroupByTest, MatchesReference) {
  auto [isa, n, n_groups] = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  std::vector<uint32_t> keys(n), vals(n);
  FillWithRepeats(keys.data(), n, n_groups, 3, 1);
  FillUniform(vals.data(), n, 5, 0, 1'000'000);
  GroupByAggregator agg(n_groups + 8);
  agg.Accumulate(isa, keys.data(), vals.data(), n);
  EXPECT_EQ(agg.num_groups(), std::min(n, n_groups));
  EXPECT_EQ(Collect(agg, isa), Reference(keys, vals));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupByTest,
    ::testing::Combine(::testing::Values(Isa::kScalar, Isa::kAvx512),
                       ::testing::Values<size_t>(1, 40, 1000, 100'000),
                       // few groups = many same-vector conflicts
                       ::testing::Values<size_t>(1, 3, 16, 1000, 50'000)),
    [](const auto& info) {
      return std::string(IsaName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_g" +
             std::to_string(std::get<2>(info.param));
    });

TEST(GroupBy, IncrementalBatchesAccumulate) {
  Isa isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  const size_t n = 30'000;
  std::vector<uint32_t> keys(n), vals(n);
  FillWithRepeats(keys.data(), n, 500, 7, 1);
  FillUniform(vals.data(), n, 9, 0, 999);
  GroupByAggregator agg(600);
  // Feed in uneven batches, alternating ISAs.
  size_t pos = 0;
  int batch = 0;
  while (pos < n) {
    size_t len = std::min<size_t>(n - pos, 1 + 977 * (batch % 7));
    agg.Accumulate(batch % 2 == 0 ? isa : Isa::kScalar, keys.data() + pos,
                   vals.data() + pos, len);
    pos += len;
    ++batch;
  }
  EXPECT_EQ(Collect(agg, isa), Reference(keys, vals));
}

TEST(GroupBy, SingleGroupAllConflicts) {
  // Every vector lane hits the same bucket: maximal retry pressure.
  Isa isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  const size_t n = 10'000;
  std::vector<uint32_t> keys(n, 42), vals(n);
  FillUniform(vals.data(), n, 11, 1, 100);
  GroupByAggregator agg(16);
  agg.Accumulate(isa, keys.data(), vals.data(), n);
  EXPECT_EQ(agg.num_groups(), 1u);
  auto got = Collect(agg, isa);
  ASSERT_TRUE(got.count(42));
  EXPECT_EQ(got[42].count, n);
  EXPECT_EQ(got[42], Reference(keys, vals)[42]);
}

// Regression for the assert-only headroom check in FoldScalar/FoldMerge: a
// release build fed more distinct keys than the table could hold probed
// forever (the assert compiled out under NDEBUG, and linear probing never
// finds an empty bucket in a full table). max_groups is now a sizing hint:
// the table doubles + rehashes in every build mode.
TEST(GroupBy, AcceptsOneGroupPastSizingHint) {
  const size_t hint = 100;
  for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    const size_t n = hint + 1;  // max_groups_ + 1 distinct keys
    std::vector<uint32_t> keys(n), vals(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<uint32_t>(i * 2 + 1);
      vals[i] = static_cast<uint32_t>(i);
    }
    GroupByAggregator agg(hint);
    agg.Accumulate(isa, keys.data(), vals.data(), n);
    EXPECT_EQ(agg.num_groups(), n) << IsaName(isa);
    EXPECT_EQ(Collect(agg, isa), Reference(keys, vals)) << IsaName(isa);
  }
}

TEST(GroupBy, GrowsRepeatedlyFarPastSizingHint) {
  // ~64x the hint: forces several doubling + rehash rounds mid-accumulate,
  // on the scalar, vectorized, and partial-merge (FoldMerge) paths.
  const size_t hint = 64;
  const size_t n_groups = 4096;
  const size_t n = 50'000;
  std::vector<uint32_t> keys(n), vals(n);
  FillWithRepeats(keys.data(), n, n_groups, 3, 1);
  FillUniform(vals.data(), n, 5, 0, 1'000'000);
  const auto want = Reference(keys, vals);
  for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    GroupByAggregator agg(hint);
    const size_t buckets_before = agg.num_buckets();
    agg.Accumulate(isa, keys.data(), vals.data(), n);
    EXPECT_EQ(agg.num_groups(), want.size()) << IsaName(isa);
    EXPECT_GT(agg.num_buckets(), buckets_before) << IsaName(isa);
    EXPECT_EQ(Collect(agg, isa), want) << IsaName(isa);

    // Per-lane partials (as exec::GroupByState keeps them) grow
    // independently, and MergeFrom into this undersized table grows it
    // again.
    GroupByAggregator merged(hint);
    const size_t parts = 8;
    for (size_t p = 0; p < parts; ++p) {
      const size_t b = n * p / parts;
      const size_t e = n * (p + 1) / parts;
      GroupByAggregator partial(hint);
      partial.Accumulate(isa, keys.data() + b, vals.data() + b, e - b);
      merged.MergeFrom(partial);
    }
    EXPECT_EQ(merged.num_groups(), want.size()) << IsaName(isa);
    EXPECT_EQ(Collect(merged, isa), want) << IsaName(isa);
  }
}

TEST(GroupBy, ClearResets) {
  GroupByAggregator agg(32);
  std::vector<uint32_t> keys = {1, 2, 3}, vals = {10, 20, 30};
  agg.AccumulateScalar(keys.data(), vals.data(), 3);
  EXPECT_EQ(agg.num_groups(), 3u);
  agg.Clear();
  EXPECT_EQ(agg.num_groups(), 0u);
  agg.AccumulateScalar(keys.data(), vals.data(), 3);
  auto got = Collect(agg, Isa::kScalar);
  EXPECT_EQ(got[1].sum, 10u);
}

TEST(GroupBy, ExtractSkipsNullOutputs) {
  GroupByAggregator agg(32);
  std::vector<uint32_t> keys = {5, 5, 9}, vals = {1, 2, 3};
  agg.AccumulateScalar(keys.data(), vals.data(), 3);
  std::vector<uint32_t> out_keys(2);
  size_t got = agg.Extract(Isa::kScalar, out_keys.data(), nullptr, nullptr,
                           nullptr, nullptr);
  EXPECT_EQ(got, 2u);
  std::sort(out_keys.begin(), out_keys.end());
  EXPECT_EQ(out_keys[0], 5u);
  EXPECT_EQ(out_keys[1], 9u);
}

// ---------------------------------------------------------------------------
// Direct-indexed group-by and the executor's group-by state
// ---------------------------------------------------------------------------

using GroupRows = std::vector<std::pair<uint32_t, Agg>>;

/// The reference rows in ascending key order.
GroupRows Rows(const std::map<uint32_t, Agg>& ref) {
  return GroupRows(ref.begin(), ref.end());
}

GroupRows CollectDirect(const DirectGroupBy& agg) {
  const size_t g = agg.num_groups();
  std::vector<uint32_t> keys(g), counts(g), mins(g), maxs(g);
  std::vector<uint64_t> sums(g);
  EXPECT_EQ(agg.Extract(keys.data(), sums.data(), counts.data(), mins.data(),
                        maxs.data()),
            g);
  GroupRows out;
  for (size_t i = 0; i < g; ++i) {
    out.push_back({keys[i], {sums[i], counts[i], mins[i], maxs[i]}});
  }
  return out;
}

/// n keys uniform over [lo, hi] (hi - lo < 2^32 - 1) and values over
/// [0, 10^6].
void DomainInput(size_t n, uint32_t lo, uint32_t hi, uint64_t seed,
                 std::vector<uint32_t>* keys, std::vector<uint32_t>* vals) {
  keys->resize(n);
  vals->resize(n);
  FillUniform(keys->data(), n, seed, lo, hi);
  FillUniform(vals->data(), n, seed + 1, 0, 1'000'000);
}

struct StateResult {
  bool direct = false;
  GroupRows rows;
};

/// Runs an exec::GroupByState on `lanes` lanes over the domain
/// [key_min, key_max], dealing 1,000-row batches round-robin to the lanes.
StateResult RunState(Isa isa, int lanes, uint32_t key_min, uint32_t key_max,
                     const std::vector<uint32_t>& keys,
                     const std::vector<uint32_t>& vals) {
  exec::ExecConfig cfg;
  cfg.isa = isa;
  exec::GroupByState state;
  state.Open(cfg, lanes, key_min, key_max);
  int lane = 0;
  for (size_t b = 0; b < keys.size(); b += 1000) {
    const size_t len = std::min<size_t>(1000, keys.size() - b);
    state.Fold(lane, keys.data() + b, vals.data() + b, len);
    lane = (lane + 1) % lanes;
  }
  std::vector<uint32_t> k, counts, mins, maxs;
  std::vector<uint64_t> sums;
  state.Finish(&k, &sums, &counts, &mins, &maxs);
  StateResult res;
  res.direct = state.direct();
  for (size_t i = 0; i < k.size(); ++i) {
    res.rows.push_back({k[i], {sums[i], counts[i], mins[i], maxs[i]}});
  }
  return res;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

TEST(DirectGroupBy, MatchesReferenceInAscendingKeyOrder) {
  for (size_t width : {size_t{1}, size_t{16}, size_t{256}, size_t{4096}}) {
    const uint32_t lo = 1000;
    const uint32_t hi = lo + static_cast<uint32_t>(width) - 1;
    std::vector<uint32_t> keys, vals;
    DomainInput(50'000, lo, hi, 21, &keys, &vals);
    DirectGroupBy agg(lo, width);
    agg.Accumulate(keys.data(), vals.data(), keys.size());
    EXPECT_EQ(CollectDirect(agg), Rows(Reference(keys, vals)))
        << "width " << width;
  }
}

TEST(DirectGroupBy, EmptyAndOneRowInputs) {
  DirectGroupBy empty_domain(7, 0);
  empty_domain.Accumulate(nullptr, nullptr, 0);
  EXPECT_EQ(empty_domain.num_groups(), 0u);
  EXPECT_TRUE(CollectDirect(empty_domain).empty());

  DirectGroupBy agg(7, 4096);
  agg.Accumulate(nullptr, nullptr, 0);
  EXPECT_EQ(agg.num_groups(), 0u);
  const uint32_t key = 7 + 4095, val = 123;
  agg.Accumulate(&key, &val, 1);
  EXPECT_EQ(CollectDirect(agg), (GroupRows{{key, {123, 1, 123, 123}}}));
}

TEST(DirectGroupBy, LaneMergeMatchesReference) {
  std::vector<uint32_t> keys, vals;
  DomainInput(30'000, 50, 549, 23, &keys, &vals);
  std::vector<DirectGroupBy> lanes;
  for (int l = 0; l < 3; ++l) lanes.emplace_back(50, 500);
  // Uneven slices, one lane left empty.
  lanes[0].Accumulate(keys.data(), vals.data(), 29'000);
  lanes[2].Accumulate(keys.data() + 29'000, vals.data() + 29'000, 1000);
  lanes[0].MergeFrom(lanes[1]);
  lanes[0].MergeFrom(lanes[2]);
  EXPECT_EQ(CollectDirect(lanes[0]), Rows(Reference(keys, vals)));
}

TEST(GroupByState, DirectUpTo4096ValuesHashBeyond) {
  ASSERT_EQ(exec::GroupByState::kMaxDirectKeys, 4096u);
  for (uint64_t width : {uint64_t{4096}, uint64_t{4097}}) {
    const uint32_t lo = 123'456;
    const uint32_t hi = lo + static_cast<uint32_t>(width) - 1;
    std::vector<uint32_t> keys, vals;
    DomainInput(40'000, lo, hi, 25, &keys, &vals);
    keys[0] = lo;  // both domain ends occur
    keys[1] = hi;
    const GroupRows want = Rows(Reference(keys, vals));
    for (Isa isa : SupportedIsas()) {
      for (int lanes : {1, 3}) {
        const StateResult got = RunState(isa, lanes, lo, hi, keys, vals);
        const std::string label = "width " + std::to_string(width) + " " +
                                  IsaName(isa) + " lanes " +
                                  std::to_string(lanes);
        EXPECT_EQ(got.direct, width == 4096) << label;
        EXPECT_EQ(got.rows, want) << label;
      }
    }
  }
}

TEST(GroupByState, WholeRangeDomainsGoToHashWithoutOverflow) {
  // [0, 0xFFFFFFFE] has 2^32 - 1 values and [0, 0xFFFFFFFF] 2^32: the
  // latter wraps to 0 in 32-bit arithmetic, which must not read as a
  // narrow (or empty) domain.
  const std::vector<uint32_t> keys = {0, 1, 0x7FFFFFFFu, 0xFFFFFFFEu, 1, 0};
  const std::vector<uint32_t> vals = {5, 6, 7, 8, 9, 10};
  for (uint32_t hi : {0xFFFFFFFEu, 0xFFFFFFFFu}) {
    for (Isa isa : SupportedIsas()) {
      const StateResult got = RunState(isa, 2, 0, hi, keys, vals);
      EXPECT_FALSE(got.direct) << IsaName(isa) << " hi " << hi;
      EXPECT_EQ(got.rows, Rows(Reference(keys, vals)))
          << IsaName(isa) << " hi " << hi;
    }
  }
}

TEST(GroupByState, DomainAtTheTopOfTheRange) {
  // The widest direct domain ending at the largest group key a build side
  // may hold (0xFFFFFFFF is reserved, see HashBuildOp).
  const uint32_t hi = 0xFFFFFFFEu;
  const uint32_t lo = hi - 4095;
  std::vector<uint32_t> keys, vals;
  DomainInput(20'000, lo, hi, 27, &keys, &vals);
  keys[0] = hi;
  keys[1] = lo;
  for (Isa isa : SupportedIsas()) {
    const StateResult got = RunState(isa, 2, lo, hi, keys, vals);
    EXPECT_TRUE(got.direct) << IsaName(isa);
    EXPECT_EQ(got.rows, Rows(Reference(keys, vals))) << IsaName(isa);
    EXPECT_EQ(got.rows.back().first, hi) << IsaName(isa);
  }
}

TEST(GroupByState, EmptyAndOneRowInputs) {
  const std::vector<uint32_t> none;
  for (Isa isa : SupportedIsas()) {
    // An empty build side: key_min > key_max, no key at all.
    const StateResult empty = RunState(isa, 2, 0xFFFFFFFFu, 0, none, none);
    EXPECT_TRUE(empty.direct) << IsaName(isa);
    EXPECT_TRUE(empty.rows.empty()) << IsaName(isa);
    // Domains that receive no rows, direct and hashed.
    EXPECT_TRUE(RunState(isa, 2, 10, 20, none, none).rows.empty());
    EXPECT_TRUE(RunState(isa, 2, 10, 100'000, none, none).rows.empty());
    // One row, at a one-value domain and in a wide one.
    const std::vector<uint32_t> key = {42}, val = {7};
    const GroupRows want = {{42, {7, 1, 7, 7}}};
    EXPECT_EQ(RunState(isa, 1, 42, 42, key, val).rows, want) << IsaName(isa);
    const StateResult wide = RunState(isa, 4, 0, 1'000'000, key, val);
    EXPECT_FALSE(wide.direct) << IsaName(isa);
    EXPECT_EQ(wide.rows, want) << IsaName(isa);
  }
}

TEST(GroupByState, LaneMergeIsIdenticalAcrossLaneCounts) {
  for (uint32_t hi : {uint32_t{300}, uint32_t{100'000}}) {  // direct, hash
    std::vector<uint32_t> keys, vals;
    DomainInput(25'500, 1, hi, 29, &keys, &vals);
    const GroupRows want = Rows(Reference(keys, vals));
    for (Isa isa : SupportedIsas()) {
      for (int lanes : {1, 2, 8}) {
        EXPECT_EQ(RunState(isa, lanes, 1, hi, keys, vals).rows, want)
            << IsaName(isa) << " hi " << hi << " lanes " << lanes;
      }
    }
  }
}

}  // namespace
}  // namespace simddb
