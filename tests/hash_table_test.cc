// Hash table tests (§5): every build/probe combination across LP, DH,
// cuckoo, and bucketized tables must reproduce the reference join semantics
// computed with a std::unordered_multimap, under unique keys, duplicate
// keys, varying load factors and hit rates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/isa.h"
#include "core/scalar_ops.h"
#include "hash/bucketized.h"
#include "hash/cuckoo.h"
#include "hash/direct_table.h"
#include "hash/double_hashing.h"
#include "hash/linear_probing.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/rng.h"

namespace simddb {
namespace {

struct Tuple3 {
  uint32_t key, spay, rpay;
  bool operator==(const Tuple3&) const = default;
  bool operator<(const Tuple3& o) const {
    return std::tie(key, spay, rpay) < std::tie(o.key, o.spay, o.rpay);
  }
};

// Reference join of probe side (keys, pays) against build side tuples.
std::vector<Tuple3> ReferenceJoin(const std::vector<uint32_t>& b_keys,
                                  const std::vector<uint32_t>& b_pays,
                                  const std::vector<uint32_t>& p_keys,
                                  const std::vector<uint32_t>& p_pays) {
  std::unordered_multimap<uint32_t, uint32_t> map;
  for (size_t i = 0; i < b_keys.size(); ++i) map.emplace(b_keys[i], b_pays[i]);
  std::vector<Tuple3> out;
  for (size_t i = 0; i < p_keys.size(); ++i) {
    auto [lo, hi] = map.equal_range(p_keys[i]);
    for (auto it = lo; it != hi; ++it) {
      out.push_back({p_keys[i], p_pays[i], it->second});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Tuple3> Collect(const AlignedBuffer<uint32_t>& k,
                            const AlignedBuffer<uint32_t>& s,
                            const AlignedBuffer<uint32_t>& r, size_t n) {
  std::vector<Tuple3> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = {k[i], s[i], r[i]};
  std::sort(out.begin(), out.end());
  return out;
}

struct Workload {
  std::vector<uint32_t> b_keys, b_pays, p_keys, p_pays;
  std::vector<Tuple3> expected;
  size_t max_matches;
};

Workload MakeWorkload(size_t n_build, size_t n_probe, bool unique_keys,
                      double hit_rate, uint64_t seed) {
  Workload w;
  w.b_keys.resize(n_build);
  w.b_pays.resize(n_build);
  w.p_keys.resize(n_probe);
  w.p_pays.resize(n_probe);
  if (unique_keys) {
    FillUniqueShuffled(w.b_keys.data(), n_build, seed, 1);
  } else {
    FillWithRepeats(w.b_keys.data(), n_build, std::max<size_t>(n_build / 3, 1),
                    seed, 1);
  }
  FillSequential(w.b_pays.data(), n_build, 10'000);
  FillProbeKeys(w.p_keys.data(), n_probe, w.b_keys.data(), n_build, hit_rate,
                seed + 1);
  FillSequential(w.p_pays.data(), n_probe, 50'000);
  w.expected = ReferenceJoin(w.b_keys, w.b_pays, w.p_keys, w.p_pays);
  w.max_matches = w.expected.size();
  return w;
}

// ---------------------------------------------------------------------------
// Linear probing
// ---------------------------------------------------------------------------

enum class LpBuild { kScalar, kVector, kVectorUnique };
enum class LpProbe { kScalar, kVector, kAvx2, kHorizontal };

// Name helpers used by the INSTANTIATE macros (no braces inside macro args).
const char* LpBuildName(LpBuild b) {
  switch (b) {
    case LpBuild::kScalar: return "bscalar";
    case LpBuild::kVector: return "bvector";
    case LpBuild::kVectorUnique: return "bvecunique";
  }
  return "?";
}
const char* LpProbeName(LpProbe p) {
  switch (p) {
    case LpProbe::kScalar: return "pscalar";
    case LpProbe::kVector: return "pvector";
    case LpProbe::kAvx2: return "pavx2";
    case LpProbe::kHorizontal: return "phoriz";
  }
  return "?";
}

bool LpBuildSupported(LpBuild b) {
  return b == LpBuild::kScalar || IsaSupported(Isa::kAvx512);
}
bool LpProbeSupported(LpProbe p) {
  switch (p) {
    case LpProbe::kScalar: return true;
    case LpProbe::kAvx2: return IsaSupported(Isa::kAvx2);
    case LpProbe::kVector:
    case LpProbe::kHorizontal: return IsaSupported(Isa::kAvx512);
  }
  return false;
}

void LpBuildInto(LinearProbingTable& t, LpBuild b, const uint32_t* keys,
                 const uint32_t* pays, size_t n) {
  switch (b) {
    case LpBuild::kScalar: t.BuildScalar(keys, pays, n); break;
    case LpBuild::kVector: t.BuildAvx512(keys, pays, n, false); break;
    case LpBuild::kVectorUnique: t.BuildAvx512(keys, pays, n, true); break;
  }
}

size_t LpProbeInto(const LinearProbingTable& t, LpProbe p,
                   const uint32_t* keys, const uint32_t* pays, size_t n,
                   AlignedBuffer<uint32_t>& ok, AlignedBuffer<uint32_t>& os,
                   AlignedBuffer<uint32_t>& orp) {
  switch (p) {
    case LpProbe::kScalar:
      return t.ProbeScalar(keys, pays, n, ok.data(), os.data(), orp.data());
    case LpProbe::kVector:
      return t.ProbeAvx512(keys, pays, n, ok.data(), os.data(), orp.data());
    case LpProbe::kAvx2:
      return t.ProbeAvx2(keys, pays, n, ok.data(), os.data(), orp.data());
    case LpProbe::kHorizontal:
      return t.ProbeHorizontalAvx512(keys, pays, n, ok.data(), os.data(),
                                     orp.data());
  }
  return 0;
}

// (build, probe, fill %, unique keys). kVectorUnique always builds unique
// keys (assume_unique_keys requires them); the other builds run on keys
// with repeats in Sweep and on unique keys in SweepUniqueKeys, so both the
// full-chain probe and the stop-at-match probe are covered behind them.
using LpCase = std::tuple<LpBuild, LpProbe, int, bool>;

class LinearProbingTest : public ::testing::TestWithParam<LpCase> {};

TEST_P(LinearProbingTest, JoinMatchesReference) {
  auto [build, probe, pct_fill, unique_keys] = GetParam();
  if (!LpBuildSupported(build) || !LpProbeSupported(probe)) GTEST_SKIP();

  const size_t n_build = 3000;
  const size_t n_probe = 10'000;
  const size_t buckets = n_build * 100 / pct_fill + 16;
  const bool unique = unique_keys || build == LpBuild::kVectorUnique;
  Workload w = MakeWorkload(n_build, n_probe, unique, 0.8, 7);

  LinearProbingTable table(buckets);
  LpBuildInto(table, build, w.b_keys.data(), w.b_pays.data(), n_build);
  EXPECT_EQ(table.size(), n_build);
  EXPECT_EQ(table.unique_keys(), unique);

  AlignedBuffer<uint32_t> ok(w.max_matches + 16), os(w.max_matches + 16),
      orp(w.max_matches + 16);
  const size_t got = LpProbeInto(table, probe, w.p_keys.data(),
                                 w.p_pays.data(), n_probe, ok, os, orp);
  ASSERT_EQ(got, w.expected.size());
  EXPECT_EQ(Collect(ok, os, orp, got), w.expected);
}

std::string LpCaseName(const ::testing::TestParamInfo<LpCase>& info) {
  return std::string(LpBuildName(std::get<0>(info.param))) + "_" +
         LpProbeName(std::get<1>(info.param)) + "_fill" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearProbingTest,
    ::testing::Combine(::testing::Values(LpBuild::kScalar, LpBuild::kVector,
                                         LpBuild::kVectorUnique),
                       ::testing::Values(LpProbe::kScalar, LpProbe::kVector,
                                         LpProbe::kAvx2,
                                         LpProbe::kHorizontal),
                       ::testing::Values(25, 50, 80),
                       ::testing::Values(false)),
    LpCaseName);

INSTANTIATE_TEST_SUITE_P(
    SweepUniqueKeys, LinearProbingTest,
    ::testing::Combine(::testing::Values(LpBuild::kScalar, LpBuild::kVector),
                       ::testing::Values(LpProbe::kScalar, LpProbe::kVector,
                                         LpProbe::kAvx2,
                                         LpProbe::kHorizontal),
                       ::testing::Values(25, 50, 80),
                       ::testing::Values(true)),
    LpCaseName);

TEST(LinearProbing, DuplicateKeysReturnAllMatches) {
  std::vector<uint32_t> bk = {5, 5, 5, 9, 9, 2};
  std::vector<uint32_t> bp = {1, 2, 3, 4, 5, 6};
  std::vector<uint32_t> pk = {5, 9, 2, 7};
  std::vector<uint32_t> pp = {100, 200, 300, 400};
  LinearProbingTable table(64);
  table.BuildScalar(bk.data(), bp.data(), bk.size());
  AlignedBuffer<uint32_t> ok(32), os(32), orp(32);
  size_t got = table.ProbeScalar(pk.data(), pp.data(), pk.size(), ok.data(),
                                 os.data(), orp.data());
  EXPECT_EQ(got, 6u);  // 3 + 2 + 1 + 0
  auto expected = ReferenceJoin(bk, bp, pk, pp);
  EXPECT_EQ(Collect(ok, os, orp, got), expected);
}

TEST(LinearProbing, EmptyTableYieldsNoMatches) {
  LinearProbingTable table(64);
  std::vector<uint32_t> pk = {1, 2, 3};
  std::vector<uint32_t> pp = {0, 0, 0};
  AlignedBuffer<uint32_t> ok(16), os(16), orp(16);
  EXPECT_EQ(table.ProbeScalar(pk.data(), pp.data(), 3, ok.data(), os.data(),
                              orp.data()),
            0u);
}

TEST(LinearProbing, ClearResets) {
  LinearProbingTable table(64);
  std::vector<uint32_t> bk = {1, 2, 3};
  std::vector<uint32_t> bp = {7, 8, 9};
  table.BuildScalar(bk.data(), bp.data(), 3);
  EXPECT_EQ(table.size(), 3u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  AlignedBuffer<uint32_t> ok(16), os(16), orp(16);
  EXPECT_EQ(table.ProbeScalar(bk.data(), bp.data(), 3, ok.data(), os.data(),
                              orp.data()),
            0u);
}

// ---------------------------------------------------------------------------
// Unique-key check and the stop-at-match probe
// ---------------------------------------------------------------------------

// Builds keys with `calls` roughly equal Build calls of kind b, payload =
// row index.
void BuildKeys(LinearProbingTable& t, LpBuild b,
               const std::vector<uint32_t>& keys, size_t calls = 1) {
  std::vector<uint32_t> pays(keys.size());
  for (size_t i = 0; i < pays.size(); ++i) pays[i] = static_cast<uint32_t>(i);
  const size_t step = (keys.size() + calls - 1) / calls;
  for (size_t off = 0; off < keys.size(); off += step) {
    LpBuildInto(t, b, keys.data() + off, pays.data() + off,
                std::min(step, keys.size() - off));
  }
}

std::vector<uint32_t> DistinctKeys(size_t n, uint64_t seed) {
  std::vector<uint32_t> keys(n);
  FillUniqueShuffled(keys.data(), n, seed, 1);
  return keys;
}

TEST(LinearProbingUnique, DistinctKeysStayUnique) {
  for (LpBuild b : {LpBuild::kScalar, LpBuild::kVector}) {
    if (!LpBuildSupported(b)) continue;
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{31}, size_t{1000}, size_t{100'003}}) {
      LinearProbingTable t(2 * n + 16);
      BuildKeys(t, b, DistinctKeys(n, n + 3));
      EXPECT_TRUE(t.unique_keys()) << LpBuildName(b) << " n=" << n;
      EXPECT_EQ(t.size(), n);
    }
  }
}

TEST(LinearProbingUnique, ChunkedBuildsWithMixedIsasStayUnique) {
  // Chunk-sized Build calls, each on another ISA: the check spans calls
  // and kernels.
  const std::vector<uint32_t> keys = DistinctKeys(50'000, 11);
  const std::vector<uint32_t> pays(keys.size(), 0);
  const Isa isas[] = {Isa::kAvx512, Isa::kScalar, Isa::kAvx2};
  LinearProbingTable t(131'072);
  size_t call = 0;
  for (size_t off = 0; off < keys.size(); off += 1023, ++call) {
    const size_t n = std::min<size_t>(1023, keys.size() - off);
    t.Build(isas[call % 3], keys.data() + off, pays.data() + off, n);
  }
  EXPECT_TRUE(t.unique_keys());
  EXPECT_EQ(t.size(), keys.size());
}

TEST(LinearProbingUnique, AnyRepeatClearsIt) {
  // One repeated key, placed where each build path meets it.
  struct Case {
    const char* where;
    size_t n;       // keys
    size_t first;   // index of the original
    size_t second;  // index overwritten with a copy of keys[first]
    size_t calls;   // Build calls the keys are split into
  };
  const Case cases[] = {
      // first == second: keys 0..15, the first vector, all become keys[0].
      {"16 copies in one vector", 1000, 0, 0, 1},
      {"two different vectors", 1000, 3, 500, 1},
      {"across two Build calls", 1000, 100, 700, 2},
      // 31 keys: one vector step takes keys 0..15, keys 16..30 are the
      // scalar tail of BuildAvx512.
      {"in the scalar tail", 31, 20, 30, 1},
      {"tail repeats a vector key", 31, 0, 30, 1},
  };
  for (LpBuild b : {LpBuild::kScalar, LpBuild::kVector}) {
    if (!LpBuildSupported(b)) continue;
    for (const Case& c : cases) {
      std::vector<uint32_t> keys = DistinctKeys(c.n, 5);
      if (c.first == c.second) {
        std::fill(keys.begin(), keys.begin() + 16, keys[0]);
      } else {
        keys[c.second] = keys[c.first];
      }
      LinearProbingTable t(4096);
      BuildKeys(t, b, keys, c.calls);
      EXPECT_FALSE(t.unique_keys()) << c.where << ", " << LpBuildName(b);
      EXPECT_EQ(t.size(), c.n) << c.where;  // repeats are still inserted
    }
  }
}

TEST(LinearProbingUnique, ClearResetsIt) {
  LinearProbingTable t(64);
  BuildKeys(t, LpBuild::kScalar, {4, 9, 4});
  EXPECT_FALSE(t.unique_keys());
  t.Clear();
  EXPECT_TRUE(t.unique_keys());
  BuildKeys(t, LpBuild::kScalar, {4, 9});
  EXPECT_TRUE(t.unique_keys());
}

TEST(LinearProbingUnique, EveryProbeMatchesReferenceAtBoundarySizes) {
  // Sizes around the two-vector loop (32 keys per step), the one-vector
  // remainder (16) and the scalar tails, on a unique table (probes stop
  // at the match) and on one with repeats (probes walk the whole chain).
  const size_t n_build = 5000;
  for (bool unique : {true, false}) {
    for (LpBuild b : {LpBuild::kScalar, LpBuild::kVector}) {
      if (!LpBuildSupported(b)) continue;
      Workload w = MakeWorkload(n_build, 0, unique, 0.8, 21);
      LinearProbingTable t(4 * n_build);
      LpBuildInto(t, b, w.b_keys.data(), w.b_pays.data(), n_build);
      ASSERT_EQ(t.unique_keys(), unique);
      for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{31}, size_t{32}, size_t{33}, size_t{1000},
                       size_t{100'003}}) {
        std::vector<uint32_t> pk(n), pp(n);
        FillProbeKeys(pk.data(), n, w.b_keys.data(), n_build, 0.8, n + 1);
        FillSequential(pp.data(), n, 50'000);
        const std::vector<Tuple3> want =
            ReferenceJoin(w.b_keys, w.b_pays, pk, pp);
        AlignedBuffer<uint32_t> ok(want.size() + 16), os(want.size() + 16),
            orp(want.size() + 16);
        for (LpProbe p : {LpProbe::kScalar, LpProbe::kAvx2, LpProbe::kVector,
                          LpProbe::kHorizontal}) {
          if (!LpProbeSupported(p)) continue;
          const size_t got =
              LpProbeInto(t, p, pk.data(), pp.data(), n, ok, os, orp);
          const std::string label = std::string(LpProbeName(p)) + " " +
                                    LpBuildName(b) +
                                    (unique ? " unique" : " repeats") +
                                    " n=" + std::to_string(n);
          ASSERT_EQ(got, want.size()) << label;
          EXPECT_EQ(Collect(ok, os, orp, got), want) << label;
        }
      }
    }
  }
}

TEST(LinearProbing, ReservedValueProbeKeyMatchesNothing) {
  // A probe key equal to kEmptyKey (0xFFFFFFFF) meets an empty bucket at
  // the end of every chain; no probe variant may take that for a match.
  // Every other probe key still finds its rows, on unique tables and on
  // tables with repeats, at sizes that hit the vector loops and the tails.
  const size_t n_build = 5000;
  for (bool unique : {true, false}) {
    for (LpBuild b : {LpBuild::kScalar, LpBuild::kVector}) {
      if (!LpBuildSupported(b)) continue;
      Workload w = MakeWorkload(n_build, 0, unique, 0.8, 31);
      LinearProbingTable t(4 * n_build);
      LpBuildInto(t, b, w.b_keys.data(), w.b_pays.data(), n_build);
      for (size_t n : {size_t{1}, size_t{16}, size_t{33}, size_t{4096}}) {
        std::vector<uint32_t> pk(n), pp(n);
        FillProbeKeys(pk.data(), n, w.b_keys.data(), n_build, 0.8, n + 3);
        FillSequential(pp.data(), n, 50'000);
        for (size_t i = 0; i < n; i += 2) pk[i] = kEmptyKey;
        const std::vector<Tuple3> want =
            ReferenceJoin(w.b_keys, w.b_pays, pk, pp);
        AlignedBuffer<uint32_t> ok(n + want.size() + 16),
            os(n + want.size() + 16), orp(n + want.size() + 16);
        for (LpProbe p : {LpProbe::kScalar, LpProbe::kAvx2, LpProbe::kVector,
                          LpProbe::kHorizontal}) {
          if (!LpProbeSupported(p)) continue;
          const size_t got =
              LpProbeInto(t, p, pk.data(), pp.data(), n, ok, os, orp);
          const std::string label = std::string(LpProbeName(p)) + " " +
                                    LpBuildName(b) +
                                    (unique ? " unique" : " repeats") +
                                    " n=" + std::to_string(n);
          ASSERT_EQ(got, want.size()) << label;
          EXPECT_EQ(Collect(ok, os, orp, got), want) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hash spread: structured key sets must not cluster in the join table
// ---------------------------------------------------------------------------

// Join keys are usually dense ranges or regular runs, not the uniform keys
// the paper measures on. A bare multiplicative hash maps such arithmetic
// progressions onto long runs of adjacent buckets for many factors; these
// tests pin the mixed hash to short probe sequences on them, for the
// executor's fixed seed and for sixteen others.

constexpr double kMaxMeanBucketsPerProbe = 4.0;

std::vector<uint64_t> SpreadSeeds() {
  std::vector<uint64_t> seeds = {42};  // ExecConfig's default seed
  for (uint64_t s = 0; s < 16; ++s) seeds.push_back(s);
  return seeds;
}

// HashBuildOp's sizing rule: the smallest power of two >= 2(n + 1), at
// least 16 (load factor <= 50%).
size_t JoinTableBuckets(size_t n) {
  size_t buckets = 16;
  while (buckets < 2 * (n + 1)) buckets <<= 1;
  return buckets;
}

// Builds keys (all distinct) into t, then walks each key's probe sequence
// from the key's home bucket, computed with the scalar hash, to the first
// empty bucket, and returns the mean number of occupied buckets visited per
// probe. This measures the table's layout (cluster length), not probe
// length: a probe into this unique-key table stops at its match, which is
// never past the first empty bucket.
double MeanBucketsPerProbe(LinearProbingTable& t,
                           const std::vector<uint32_t>& keys) {
  t.Clear();
  t.BuildScalar(keys.data(), keys.data(), keys.size());
  const uint32_t nb = static_cast<uint32_t>(t.num_buckets());
  const uint32_t* bk = t.bucket_keys();
  uint64_t visited = 0;
  for (uint32_t k : keys) {
    for (uint32_t b = scalar::MultHash(k, t.factor(), nb); bk[b] != kEmptyKey;
         b = (b + 1) & (nb - 1)) {
      ++visited;
    }
  }
  return static_cast<double>(visited) / static_cast<double>(keys.size());
}

void ExpectSpread(const std::vector<uint32_t>& keys, const std::string& what) {
  for (uint64_t seed : SpreadSeeds()) {
    LinearProbingTable t(JoinTableBuckets(keys.size()), seed);
    EXPECT_LE(MeanBucketsPerProbe(t, keys), kMaxMeanBucketsPerProbe)
        << what << ", seed " << seed;
  }
}

std::vector<uint32_t> Progression(size_t n, uint32_t first, uint32_t stride) {
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = first + static_cast<uint32_t>(i) * stride;
  }
  return keys;
}

TEST(HashSpread, ScanLargeDenseWindow) {
  // wirebench scan_large: the r= window of large_R is 786,432 consecutive
  // keys, built into a 2M-bucket table on every query.
  ExpectSpread(Progression(786'432, 168'929, 1), "dense window");
}

TEST(HashSpread, EveryStrideUpTo256) {
  for (uint32_t stride = 1; stride <= 256; ++stride) {
    ExpectSpread(Progression(16'384, 1, stride),
                 "stride " + std::to_string(stride));
  }
}

TEST(HashSpread, TpchStyleRuns) {
  // TPC-H order keys: runs of 8 consecutive keys at the start of every 32.
  std::vector<uint32_t> keys(1 << 18);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint32_t>(32 * (i / 8) + i % 8 + 1);
  }
  ExpectSpread(keys, "runs of 8 in 32");
}

TEST(HashSpread, RandomKeys) {
  std::vector<uint32_t> keys(1 << 18);
  FillUniform(keys.data(), keys.size(), 5, 0, kEmptyKey - 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ExpectSpread(keys, "random");
}

// ---------------------------------------------------------------------------
// Partitioned build: one task per home-bucket range, set-aside keys last
// ---------------------------------------------------------------------------

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

std::vector<uint32_t> RowIds(size_t n) {
  std::vector<uint32_t> ids(n);
  FillSequential(ids.data(), n, 0);
  return ids;
}

// `count` keys whose home bucket is `home` in a table of nb buckets with
// hash factor `factor`, found by search from key 1.
std::vector<uint32_t> KeysWithHome(uint32_t factor, size_t nb, uint32_t home,
                                   size_t count) {
  std::vector<uint32_t> keys;
  for (uint32_t k = 1; keys.size() < count; ++k) {
    if (scalar::MultHash(k, factor, static_cast<uint32_t>(nb)) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

// Every build key and one likely miss per build key as probes, with the
// unordered_multimap reference join of the build side.
struct ReferenceProbes {
  std::vector<uint32_t> keys, pays;
  std::vector<Tuple3> want;

  ReferenceProbes(const std::vector<uint32_t>& b_keys,
                  const std::vector<uint32_t>& b_pays) {
    for (uint32_t k : b_keys) {
      keys.push_back(k);
      keys.push_back(k ^ 0x40000000u);
    }
    pays = RowIds(keys.size());
    want = ReferenceJoin(b_keys, b_pays, keys, pays);
  }
};

// Runs the probes through every supported LP probe (the horizontal one
// reads the wrap pad) and compares the matches with the reference.
void ExpectJoinsLikeReference(const LinearProbingTable& t,
                              const ReferenceProbes& ref,
                              const std::string& label) {
  const size_t cap = ref.want.size() + 16;
  AlignedBuffer<uint32_t> ok(cap), os(cap), orp(cap);
  for (LpProbe p : {LpProbe::kScalar, LpProbe::kAvx2, LpProbe::kVector,
                    LpProbe::kHorizontal}) {
    if (!LpProbeSupported(p)) continue;
    const size_t got = LpProbeInto(t, p, ref.keys.data(), ref.pays.data(),
                                   ref.keys.size(), ok, os, orp);
    ASSERT_EQ(got, ref.want.size()) << label << " " << LpProbeName(p);
    EXPECT_EQ(Collect(ok, os, orp, got), ref.want)
        << label << " " << LpProbeName(p);
  }
}

// Buckets and wrap pad, keys then payloads.
std::vector<uint32_t> Layout(const LinearProbingTable& t) {
  const size_t len = t.num_buckets() + 16;
  std::vector<uint32_t> out(t.bucket_keys(), t.bucket_keys() + len);
  out.insert(out.end(), t.bucket_pays(), t.bucket_pays() + len);
  return out;
}

TEST(LinearProbingPartitioned, MatchesReferenceAcrossPartitionsSizesThreads) {
  for (bool distinct : {true, false}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{1000}, size_t{100'003}}) {
      std::vector<uint32_t> keys(n);
      if (distinct) {
        FillUniqueShuffled(keys.data(), n, n + 7, 1);
      } else {
        FillWithRepeats(keys.data(), n, std::max<size_t>(n / 3, 1), n + 7, 1);
      }
      const std::vector<uint32_t> pays = RowIds(n);
      std::vector<uint32_t> sorted(keys);
      std::sort(sorted.begin(), sorted.end());
      const bool unique =
          std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
      const ReferenceProbes ref(keys, pays);
      const size_t nb = JoinTableBuckets(n);
      LinearProbingTable serial(nb);
      serial.BuildScalar(keys.data(), pays.data(), n);
      for (uint32_t p : {1u, 2u, 64u, static_cast<uint32_t>(nb / 16)}) {
        if (p > nb) continue;
        std::vector<uint32_t> first_layout;
        for (int threads : {1, 2, 8}) {
          for (Isa isa : SupportedIsas()) {
            const std::string label =
                std::string(distinct ? "distinct" : "repeats") +
                " n=" + std::to_string(n) + " P=" + std::to_string(p) +
                " t=" + std::to_string(threads) + " " + IsaName(isa);
            LinearProbingTable t(nb);
            const size_t spilled = t.BuildPartitioned(
                isa, keys.data(), pays.data(), n, threads, p);
            EXPECT_EQ(t.size(), n) << label;
            EXPECT_EQ(t.unique_keys(), unique) << label;
            EXPECT_LE(spilled, p == 1 ? 0 : n) << label;
            // The layout is a function of the input and P alone (P = 1 is
            // the serial scalar build), so one reference check per P covers
            // every thread count and partition-pass ISA.
            if (first_layout.empty()) {
              ExpectJoinsLikeReference(t, ref, label);
              first_layout = Layout(p == 1 ? serial : t);
            }
            EXPECT_EQ(Layout(t), first_layout) << label;
          }
        }
      }
      if (!distinct) continue;
      // The no-partition join's shared build: the serial layout on every
      // lane count (100,003 keys make seven morsels, so 2 and 8 threads run
      // the compare-and-swap claims).
      for (int threads : {1, 2, 8}) {
        const std::string label =
            "shared n=" + std::to_string(n) + " t=" + std::to_string(threads);
        LinearProbingTable t(nb);
        t.BuildShared(keys.data(), pays.data(), n, threads);
        EXPECT_EQ(t.size(), n) << label;
        EXPECT_TRUE(t.unique_keys()) << label;
        EXPECT_EQ(Layout(t), Layout(serial)) << label;
      }
    }
  }
}

TEST(LinearProbingPartitioned, SpillsAtARangeEndAndWrapsPastTheLastBucket) {
  // 64 buckets in 4 ranges of 16. In each trio the first key takes its
  // home bucket and the other two reach the end of the range and are set
  // aside: bucket 15 ends range 0, and bucket 63 ends the last range and
  // the table. The serial pass moves the first trio's spills on into range
  // 1 (buckets 16, 17) and wraps the last trio's to buckets 0 and 1.
  constexpr size_t kBuckets = 64;
  for (int threads : {1, 2, 8}) {
    LinearProbingTable t(kBuckets);
    const std::vector<uint32_t> end0 = KeysWithHome(t.factor(), kBuckets, 15, 3);
    const std::vector<uint32_t> last = KeysWithHome(t.factor(), kBuckets, 63, 3);
    const std::vector<uint32_t> keys = {end0[0], last[0], end0[1],
                                        last[1], end0[2], last[2]};
    const std::vector<uint32_t> pays = RowIds(keys.size());
    const std::string label = "t=" + std::to_string(threads);
    EXPECT_EQ(t.BuildPartitioned(Isa::kScalar, keys.data(), pays.data(),
                                 keys.size(), threads, 4),
              4u)
        << label;
    EXPECT_EQ(t.size(), keys.size()) << label;
    EXPECT_TRUE(t.unique_keys()) << label;
    const uint32_t* b = t.bucket_keys();
    EXPECT_EQ(b[15], end0[0]) << label;
    EXPECT_EQ(b[16], end0[1]) << label;
    EXPECT_EQ(b[17], end0[2]) << label;
    EXPECT_EQ(b[63], last[0]) << label;
    EXPECT_EQ(b[0], last[1]) << label;
    EXPECT_EQ(b[1], last[2]) << label;
    EXPECT_EQ(b[kBuckets + 0], last[1]) << label << ": wrap pad";
    EXPECT_EQ(b[kBuckets + 1], last[2]) << label << ": wrap pad";
    ExpectJoinsLikeReference(t, ReferenceProbes(keys, pays), label);
  }
}

TEST(LinearProbingPartitioned, RepeatsMeetTheirCopyInAnyWalk) {
  struct Case {
    const char* where;
    std::vector<uint32_t> keys;
    size_t buckets;
    uint32_t partitions;
  };
  std::vector<Case> cases;
  {
    // Both copies in one range, inserted by the range walk.
    std::vector<uint32_t> keys = DistinctKeys(1000, 3);
    keys[700] = keys[100];
    cases.push_back({"both copies in one range", keys, 2048, 64});
  }
  {
    // Key a takes bucket 15, the last of range 0; both copies of k start
    // there, reach the range end and are set aside, so they meet only in
    // the serial pass.
    const LinearProbingTable probe(64);
    const std::vector<uint32_t> h15 = KeysWithHome(probe.factor(), 64, 15, 2);
    cases.push_back({"the first copy set aside", {h15[0], h15[1], h15[1]},
                     64, 4});
  }
  {
    // 40,000 keys make three 16K-tuple morsels in the partition pass.
    std::vector<uint32_t> keys = DistinctKeys(40'000, 4);
    keys[30'000] = keys[5];
    cases.push_back(
        {"copies in different morsels", keys, JoinTableBuckets(40'000), 64});
  }
  for (const Case& c : cases) {
    const std::vector<uint32_t> pays = RowIds(c.keys.size());
    const ReferenceProbes ref(c.keys, pays);
    for (int threads : {1, 2, 8}) {
      const std::string label =
          std::string(c.where) + " t=" + std::to_string(threads);
      LinearProbingTable t(c.buckets);
      t.BuildPartitioned(SupportedIsas().back(), c.keys.data(), pays.data(),
                         c.keys.size(), threads, c.partitions);
      EXPECT_FALSE(t.unique_keys()) << label;
      EXPECT_EQ(t.size(), c.keys.size()) << label;  // repeats are inserted
      ExpectJoinsLikeReference(t, ref, label);
    }
  }
}

TEST(LinearProbingPartitioned, ClearResetsUniqueKeys) {
  std::vector<uint32_t> keys = DistinctKeys(1000, 9);
  const std::vector<uint32_t> pays = RowIds(keys.size());
  keys[999] = keys[0];
  LinearProbingTable t(JoinTableBuckets(keys.size()));
  t.BuildPartitioned(Isa::kScalar, keys.data(), pays.data(), keys.size(), 2,
                     64);
  EXPECT_FALSE(t.unique_keys());
  t.Clear();
  EXPECT_TRUE(t.unique_keys());
  EXPECT_EQ(t.size(), 0u);
  t.BuildPartitioned(Isa::kScalar, keys.data(), pays.data(), 999, 2, 64);
  EXPECT_TRUE(t.unique_keys());
  EXPECT_EQ(t.size(), 999u);
}

TEST(LinearProbingPartitioned, PartitionCountFollowsLanesAndTableSize) {
  // One lane: the serial walk, no partition pass.
  EXPECT_EQ(LinearProbingTable::BuildPartitions(size_t{1} << 21, 1), 1u);
  // wirebench scan_large's table (786,432 keys, 2^21 buckets) on two
  // lanes: 64 ranges of 256 KB.
  EXPECT_EQ(LinearProbingTable::BuildPartitions(size_t{1} << 21, 2), 64u);
  // Smaller tables: two ranges per lane.
  EXPECT_EQ(LinearProbingTable::BuildPartitions(size_t{1} << 17, 2), 4u);
  EXPECT_EQ(LinearProbingTable::BuildPartitions(size_t{1} << 17, 8), 16u);
  // At least 16 buckets per range.
  EXPECT_EQ(LinearProbingTable::BuildPartitions(64, 8), 4u);
  EXPECT_EQ(LinearProbingTable::BuildPartitions(16, 2), 1u);
}

TEST(LinearProbing, ReservedValueBuildKeyHidesNoOtherKey) {
  // Every 7th build key is kEmptyKey. Every build must leave such a key's
  // bucket empty, so every other key stays on an unbroken walk from its
  // home bucket. The hazard is the vector build that trusts keys to be
  // unique: a reserved lane that wins a bucket from another lane leaves it
  // empty and must not send the loser past it, out of its probes' reach.
  for (size_t n : {size_t{1000}, size_t{40'000}}) {
    std::vector<uint32_t> keys = DistinctKeys(n, n + 5);
    const std::vector<uint32_t> pays = RowIds(n);
    std::vector<uint32_t> kept_keys, kept_pays;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 == 0) {
        keys[i] = kEmptyKey;
      } else {
        kept_keys.push_back(keys[i]);
        kept_pays.push_back(pays[i]);
      }
    }
    const ReferenceProbes ref(kept_keys, kept_pays);
    const size_t nb = JoinTableBuckets(n);
    const std::string size = " n=" + std::to_string(n);
    for (LpBuild b :
         {LpBuild::kScalar, LpBuild::kVector, LpBuild::kVectorUnique}) {
      if (!LpBuildSupported(b)) continue;
      LinearProbingTable t(nb);
      LpBuildInto(t, b, keys.data(), pays.data(), n);
      ExpectJoinsLikeReference(t, ref, LpBuildName(b) + size);
    }
    for (int threads : {1, 2, 8}) {
      const std::string lanes = size + " t=" + std::to_string(threads);
      LinearProbingTable partitioned(nb), shared(nb);
      partitioned.BuildPartitioned(Isa::kScalar, keys.data(), pays.data(), n,
                                   threads, 4);
      ExpectJoinsLikeReference(partitioned, ref, "partitioned" + lanes);
      shared.BuildShared(keys.data(), pays.data(), n, threads);
      ExpectJoinsLikeReference(shared, ref, "shared" + lanes);
    }
  }
}

// ---------------------------------------------------------------------------
// Direct-indexed join table (the executor's layout for dense build keys)
// ---------------------------------------------------------------------------

TEST(DirectJoinTable, FitsAtMostTwiceTheBuckets) {
  // 4 B per slot against 8 B per bucket: 2 * buckets slots is the limit.
  EXPECT_TRUE(DirectJoinTable::Fits(1, 4096, 2048));
  EXPECT_FALSE(DirectJoinTable::Fits(1, 4097, 2048));
  EXPECT_TRUE(DirectJoinTable::Fits(0, 4095, 2048));
  EXPECT_TRUE(DirectJoinTable::Fits(0xFFFFFFFEu - 4095, 0xFFFFFFFEu, 2048));
  EXPECT_TRUE(DirectJoinTable::Fits(7, 7, 16));  // one key
  EXPECT_FALSE(DirectJoinTable::Fits(0xFFFFFFFFu, 0, 16));  // empty range
  // A gather's index is a signed 32-bit value.
  EXPECT_TRUE(DirectJoinTable::Fits(0, 0x7FFFFFFFu, size_t{1} << 31));
  EXPECT_FALSE(DirectJoinTable::Fits(0, 0x80000000u, size_t{1} << 31));
  EXPECT_FALSE(DirectJoinTable::Fits(0, 0xFFFFFFFFu, size_t{1} << 33));
}

// A table over [key_min, key_min + width) holding every third domain value
// (payload key ^ 0x5A5A), and probe keys mixing present, absent, below,
// above and kEmptyKey.
struct DirectCase {
  std::vector<uint32_t> b_keys, b_pays, p_keys, p_pays;
  DirectCase(uint32_t key_min, uint32_t width, size_t n_probe, uint64_t seed) {
    for (uint32_t off = 0; off < width; off += 3) {
      b_keys.push_back(key_min + off);
      b_pays.push_back((key_min + off) ^ 0x5A5Au);
    }
    if ((width - 1) % 3 != 0) {  // the last slot is present too
      b_keys.push_back(key_min + width - 1);
      b_pays.push_back(7);
    }
    Pcg32 rng(seed);
    for (size_t i = 0; i < n_probe; ++i) {
      uint32_t k;
      switch (rng.NextBounded(6)) {
        case 0: k = key_min - 1 - rng.NextBounded(100); break;  // below
        case 1: k = key_min + width + rng.NextBounded(100); break;  // above
        case 2: k = kEmptyKey; break;
        case 3: k = key_min + width - 1; break;
        default: k = key_min + rng.NextBounded(width); break;
      }
      p_keys.push_back(k);
      p_pays.push_back(static_cast<uint32_t>(i) * 7);
    }
  }
};

TEST(DirectJoinTable, ProbesMatchReferenceAndScalarInInputOrder) {
  // Domains starting at 0 (keys below it wrap to the top of the range),
  // in the middle, and ending at 0xFFFFFFFE (keys above it are
  // 0xFFFFFFFF or wrap to 0). Sizes 0-33 cover the vector loops' tails.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  for (uint32_t key_min : {0u, 1'000'000u, 0xFFFFFFFEu - 499}) {
    const uint32_t width = 500;
    for (size_t n : sizes) {
      DirectCase c(key_min, width, n, n + key_min);
      DirectJoinTable t(key_min, width);
      ASSERT_TRUE(t.Build(c.b_keys.data(), c.b_pays.data(), c.b_keys.size()));
      // The reference, in input order: the direct probe is stable.
      std::vector<Tuple3> want;
      for (size_t i = 0; i < n; ++i) {
        const auto it =
            std::find(c.b_keys.begin(), c.b_keys.end(), c.p_keys[i]);
        if (it == c.b_keys.end()) continue;
        want.push_back(
            {c.p_keys[i], c.p_pays[i], c.b_pays[it - c.b_keys.begin()]});
      }
      for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (!IsaSupported(isa)) continue;
        AlignedBuffer<uint32_t> ok(n + 1), os(n + 1), orp(n + 1);
        size_t got = 0;
        switch (isa) {
          case Isa::kScalar:
            got = t.ProbeScalar(c.p_keys.data(), c.p_pays.data(), n,
                                ok.data(), os.data(), orp.data());
            break;
          case Isa::kAvx2:
            got = t.ProbeAvx2(c.p_keys.data(), c.p_pays.data(), n, ok.data(),
                              os.data(), orp.data());
            break;
          case Isa::kAvx512:
            got = t.ProbeAvx512(c.p_keys.data(), c.p_pays.data(), n,
                                ok.data(), os.data(), orp.data());
            break;
        }
        const std::string label = std::string(IsaName(isa)) +
                                  " min=" + std::to_string(key_min) +
                                  " n=" + std::to_string(n);
        ASSERT_EQ(got, want.size()) << label;
        for (size_t i = 0; i < got; ++i) {
          ASSERT_EQ((Tuple3{ok[i], os[i], orp[i]}), want[i])
              << label << " @" << i;
        }
      }
    }
  }
}

TEST(DirectJoinTable, RepeatsReportedExactly) {
  // Build returns false exactly when a key repeats: at the first slot, at
  // the last, in the middle, adjacent or far apart, or across two calls.
  const uint32_t key_min = 100, width = 1000;
  std::vector<uint32_t> keys(width), pays(width);
  for (uint32_t i = 0; i < width; ++i) {
    keys[i] = key_min + (i * 7919u) % width;  // a permutation of the domain
    pays[i] = i;
  }
  {
    DirectJoinTable t(key_min, width);
    EXPECT_TRUE(t.Build(keys.data(), pays.data(), width));
    EXPECT_FALSE(t.Build(keys.data() + 500, pays.data(), 1));  // second call
  }
  for (uint32_t repeated : {key_min, key_min + width - 1, key_min + 500}) {
    for (size_t at : {size_t{0}, size_t{1}, size_t{999}}) {
      std::vector<uint32_t> k = keys;
      // Overwrite row `at` with `repeated`, unless it already holds it.
      const size_t own = static_cast<size_t>(
          std::find(k.begin(), k.end(), repeated) - k.begin());
      if (own == at) continue;
      k[at] = repeated;
      DirectJoinTable t(key_min, width);
      EXPECT_FALSE(t.Build(k.data(), pays.data(), width))
          << "key " << repeated << " at row " << at;
    }
  }
  // A one-key domain.
  DirectJoinTable one(0, 1);
  const uint32_t zero[2] = {0, 0};
  EXPECT_TRUE(one.Build(zero, pays.data(), 1));
  DirectJoinTable twice(0, 1);
  EXPECT_FALSE(twice.Build(zero, pays.data(), 2));
}

// ---------------------------------------------------------------------------
// Double hashing
// ---------------------------------------------------------------------------

enum class DhBuild { kScalar, kVector };
enum class DhProbe { kScalar, kVector, kAvx2 };

const char* DhBuildName(DhBuild b) {
  return b == DhBuild::kScalar ? "bscalar" : "bvector";
}
const char* DhProbeName(DhProbe p) {
  switch (p) {
    case DhProbe::kScalar: return "pscalar";
    case DhProbe::kVector: return "pvector";
    case DhProbe::kAvx2: return "pavx2";
  }
  return "?";
}


class DoubleHashingTest
    : public ::testing::TestWithParam<std::tuple<DhBuild, DhProbe, bool>> {};

TEST_P(DoubleHashingTest, JoinMatchesReference) {
  auto [build, probe, unique] = GetParam();
  bool need512 = build == DhBuild::kVector || probe == DhProbe::kVector;
  if (need512 && !IsaSupported(Isa::kAvx512)) GTEST_SKIP();
  if (probe == DhProbe::kAvx2 && !IsaSupported(Isa::kAvx2)) GTEST_SKIP();

  const size_t n_build = 3000;
  const size_t n_probe = 10'000;
  Workload w = MakeWorkload(n_build, n_probe, unique, 0.8, 11);

  DoubleHashingTable table(n_build * 2);
  if (build == DhBuild::kScalar) {
    table.BuildScalar(w.b_keys.data(), w.b_pays.data(), n_build);
  } else {
    table.BuildAvx512(w.b_keys.data(), w.b_pays.data(), n_build);
  }

  AlignedBuffer<uint32_t> ok(w.max_matches + 16), os(w.max_matches + 16),
      orp(w.max_matches + 16);
  size_t got = 0;
  switch (probe) {
    case DhProbe::kScalar:
      got = table.ProbeScalar(w.p_keys.data(), w.p_pays.data(), n_probe,
                              ok.data(), os.data(), orp.data());
      break;
    case DhProbe::kVector:
      got = table.ProbeAvx512(w.p_keys.data(), w.p_pays.data(), n_probe,
                              ok.data(), os.data(), orp.data());
      break;
    case DhProbe::kAvx2:
      got = table.ProbeAvx2(w.p_keys.data(), w.p_pays.data(), n_probe,
                            ok.data(), os.data(), orp.data());
      break;
  }
  ASSERT_EQ(got, w.expected.size());
  EXPECT_EQ(Collect(ok, os, orp, got), w.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DoubleHashingTest,
    ::testing::Combine(::testing::Values(DhBuild::kScalar, DhBuild::kVector),
                       ::testing::Values(DhProbe::kScalar, DhProbe::kVector,
                                         DhProbe::kAvx2),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DhBuildName(std::get<0>(info.param))) + "_" +
             DhProbeName(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_unique" : "_dups");
    });

TEST(DoubleHashing, RoundsBucketsToPowerOfTwo) {
  DoubleHashingTable table(1000);
  EXPECT_EQ(table.num_buckets(), 1024u);
}

TEST(DoubleHashing, StepIsOddAndBounded) {
  DoubleHashingTable table(1 << 12);
  for (uint32_t k = 1; k < 5000; k += 7) {
    uint32_t s = table.StepFor(k);
    EXPECT_EQ(s & 1u, 1u);
    EXPECT_GE(s, 1u);
    EXPECT_LT(s, table.num_buckets());
  }
}

// ---------------------------------------------------------------------------
// Cuckoo hashing
// ---------------------------------------------------------------------------

enum class CkBuild { kScalar, kVector };
enum class CkProbe { kBranching, kBranchless, kVSelect, kVBlend, kAvx2 };

const char* CkBuildName(CkBuild b) {
  return b == CkBuild::kScalar ? "bscalar" : "bvector";
}
const char* CkProbeName(CkProbe p) {
  switch (p) {
    case CkProbe::kBranching: return "pbranch";
    case CkProbe::kBranchless: return "pbranchless";
    case CkProbe::kVSelect: return "pvselect";
    case CkProbe::kVBlend: return "pvblend";
    case CkProbe::kAvx2: return "pavx2";
  }
  return "?";
}


class CuckooTest
    : public ::testing::TestWithParam<std::tuple<CkBuild, CkProbe, int>> {};

TEST_P(CuckooTest, JoinMatchesReference) {
  auto [build, probe, pct_fill] = GetParam();
  bool need512 = build == CkBuild::kVector || probe == CkProbe::kVSelect ||
                 probe == CkProbe::kVBlend;
  if (need512 && !IsaSupported(Isa::kAvx512)) GTEST_SKIP();
  if (probe == CkProbe::kAvx2 && !IsaSupported(Isa::kAvx2)) GTEST_SKIP();

  const size_t n_build = 3000;
  const size_t n_probe = 10'000;
  Workload w = MakeWorkload(n_build, n_probe, /*unique=*/true, 0.8, 13);

  CuckooTable table(n_build * 100 / pct_fill + 32);
  bool built;
  if (build == CkBuild::kScalar) {
    built = table.BuildScalar(w.b_keys.data(), w.b_pays.data(), n_build);
  } else {
    built = table.BuildAvx512(w.b_keys.data(), w.b_pays.data(), n_build);
  }
  ASSERT_TRUE(built);
  EXPECT_EQ(table.size(), n_build);

  AlignedBuffer<uint32_t> ok(w.max_matches + 16), os(w.max_matches + 16),
      orp(w.max_matches + 16);
  size_t got = 0;
  switch (probe) {
    case CkProbe::kBranching:
      got = table.ProbeScalarBranching(w.p_keys.data(), w.p_pays.data(),
                                       n_probe, ok.data(), os.data(),
                                       orp.data());
      break;
    case CkProbe::kBranchless:
      got = table.ProbeScalarBranchless(w.p_keys.data(), w.p_pays.data(),
                                        n_probe, ok.data(), os.data(),
                                        orp.data());
      break;
    case CkProbe::kVSelect:
      got = table.ProbeVerticalSelectAvx512(w.p_keys.data(), w.p_pays.data(),
                                            n_probe, ok.data(), os.data(),
                                            orp.data());
      break;
    case CkProbe::kVBlend:
      got = table.ProbeVerticalBlendAvx512(w.p_keys.data(), w.p_pays.data(),
                                           n_probe, ok.data(), os.data(),
                                           orp.data());
      break;
    case CkProbe::kAvx2:
      got = table.ProbeAvx2(w.p_keys.data(), w.p_pays.data(), n_probe,
                            ok.data(), os.data(), orp.data());
      break;
  }
  ASSERT_EQ(got, w.expected.size());
  EXPECT_EQ(Collect(ok, os, orp, got), w.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CuckooTest,
    ::testing::Combine(::testing::Values(CkBuild::kScalar, CkBuild::kVector),
                       ::testing::Values(CkProbe::kBranching,
                                         CkProbe::kBranchless,
                                         CkProbe::kVSelect, CkProbe::kVBlend,
                                         CkProbe::kAvx2),
                       ::testing::Values(30, 45)),
    [](const auto& info) {
      return std::string(CkBuildName(std::get<0>(info.param))) + "_" +
             CkProbeName(std::get<1>(info.param)) + "_fill" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Cuckoo, EveryKeyInOneOfItsTwoBuckets) {
  const size_t n = 2000;
  std::vector<uint32_t> keys(n), pays(n);
  FillUniqueShuffled(keys.data(), n, 3, 1);
  FillSequential(pays.data(), n, 0);
  CuckooTable table(n * 2 + 32);
  ASSERT_TRUE(table.BuildScalar(keys.data(), pays.data(), n));
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    bool found = table.bucket_keys()[table.Hash1(k)] == k ||
                 table.bucket_keys()[table.Hash2(k)] == k;
    ASSERT_TRUE(found) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// Bucketized (horizontal) tables
// ---------------------------------------------------------------------------

class BucketizedTest
    : public ::testing::TestWithParam<std::tuple<BucketScheme, bool>> {};

TEST_P(BucketizedTest, JoinMatchesReference) {
  auto [scheme, horizontal] = GetParam();
  if (horizontal && !IsaSupported(Isa::kAvx512)) GTEST_SKIP();
  const size_t n_build = 3000;
  const size_t n_probe = 10'000;
  Workload w = MakeWorkload(n_build, n_probe, /*unique=*/false, 0.8, 17);
  BucketizedTable table(n_build * 2, scheme);
  table.BuildScalar(w.b_keys.data(), w.b_pays.data(), n_build);
  AlignedBuffer<uint32_t> ok(w.max_matches + 16), os(w.max_matches + 16),
      orp(w.max_matches + 16);
  size_t got =
      horizontal
          ? table.ProbeHorizontalAvx512(w.p_keys.data(), w.p_pays.data(),
                                        n_probe, ok.data(), os.data(),
                                        orp.data())
          : table.ProbeScalar(w.p_keys.data(), w.p_pays.data(), n_probe,
                              ok.data(), os.data(), orp.data());
  ASSERT_EQ(got, w.expected.size());
  EXPECT_EQ(Collect(ok, os, orp, got), w.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketizedTest,
    ::testing::Combine(::testing::Values(BucketScheme::kLinear,
                                         BucketScheme::kDouble),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == BucketScheme::kLinear
                             ? "lp"
                             : "dh") +
             (std::get<1>(info.param) ? "_horizontal" : "_scalar");
    });

TEST(BucketizedCuckoo, JoinMatchesReference) {
  const size_t n_build = 3000;
  const size_t n_probe = 10'000;
  Workload w = MakeWorkload(n_build, n_probe, /*unique=*/true, 0.8, 19);
  BucketizedCuckooTable table(n_build * 2);
  ASSERT_TRUE(table.BuildScalar(w.b_keys.data(), w.b_pays.data(), n_build));
  AlignedBuffer<uint32_t> ok(w.max_matches + 16), os(w.max_matches + 16),
      orp(w.max_matches + 16);
  size_t got = table.ProbeScalar(w.p_keys.data(), w.p_pays.data(), n_probe,
                                 ok.data(), os.data(), orp.data());
  ASSERT_EQ(got, w.expected.size());
  EXPECT_EQ(Collect(ok, os, orp, got), w.expected);
  if (IsaSupported(Isa::kAvx512)) {
    size_t got2 = table.ProbeHorizontalAvx512(w.p_keys.data(),
                                              w.p_pays.data(), n_probe,
                                              ok.data(), os.data(),
                                              orp.data());
    ASSERT_EQ(got2, w.expected.size());
    EXPECT_EQ(Collect(ok, os, orp, got2), w.expected);
  }
}

TEST(BucketizedCuckoo, HighLoadFactorStillBuilds) {
  const size_t n = 8000;
  std::vector<uint32_t> keys(n), pays(n);
  FillUniqueShuffled(keys.data(), n, 23, 1);
  FillSequential(pays.data(), n, 0);
  // 80% load factor: feasible for bucketized cuckoo (the paper's point that
  // bucketization supports much higher load factors than plain cuckoo).
  BucketizedCuckooTable table(n * 10 / 8);
  EXPECT_TRUE(table.BuildScalar(keys.data(), pays.data(), n));
}

}  // namespace
}  // namespace simddb
