// Execution subsystem tests (src/exec/): bitmap <-> selection converter
// properties against the scalar reference on every ISA, Chunk visibility
// state machinery, and the acceptance bar for the push-based executor —
// the scan -> bloom -> join -> group-by plan produces byte-identical
// canonical results across ISAs, thread counts {1, 8}, chunk sizes
// (including non-chunk-multiple and degenerate inputs n in {0, 1, 1023}),
// scan modes (compact vs bitmap) and Bloom settings, and matches a
// hand-composed serial operator sequence over the same kernels. The
// template-fused executor (exec/fused.h) is held to the same bar: the
// ExecFusedTest matrix proves the fused path byte-identical to the forced
// dynamic path across ISA x threads x chunk size x scan mode x seed x edge
// input sizes, and the mode test proves each PipelineMode runs the
// pipelines it names (observed via pipelines_fused / pipelines_dynamic).
// ExecIsaDegradeTest covers the ISA sanitization every plan goes through:
// an unsupported request degrades to the best supported backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "bloom/bloom_filter.h"
#include "agg/group_by.h"
#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "exec/pipeline.h"
#include "exec/query.h"
#include "hash/linear_probing.h"
#include "obs/metrics.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"
#include "util/cpu_info.h"
#include "util/data_gen.h"
#include "util/rng.h"

namespace simddb {
namespace {

using exec::Chunk;
using exec::ChunkCapacity;
using exec::ChunkBitmapWords;
using exec::ExecConfig;
using exec::PipelineMode;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;
using exec::ScanMode;
using exec::SelKind;

uint64_t Metric(const char* name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Get().Snapshot()) {
    if (std::strcmp(s.name, name) == 0) return s.value;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return 0;
}

struct ScopedMetrics {
  ScopedMetrics() {
    obs::EnableMetrics(true);
    obs::MetricsRegistry::Get().ResetAll();
  }
  ~ScopedMetrics() { obs::EnableMetrics(false); }
};

// ---------------------------------------------------------------------------
// Converter kernels
// ---------------------------------------------------------------------------

class ExecChunkIsaTest : public ::testing::TestWithParam<Isa> {};

TEST_P(ExecChunkIsaTest, BitmapToSelectionMatchesScalar) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(123);
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{1023}, size_t{1024}, size_t{4097}}) {
    // Densities from empty to full, including single-bit patterns.
    for (uint32_t density_pct : {0u, 1u, 50u, 99u, 100u}) {
      const size_t words = ChunkBitmapWords(n);
      AlignedBuffer<uint64_t> bitmap(words + 1);
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          if (rng.NextBounded(100) < density_pct) word |= uint64_t{1} << b;
        }
        bitmap[w] = word;
      }
      if (n & 63 && words > 0) {
        bitmap[words - 1] &= (uint64_t{1} << (n & 63)) - 1;  // bits >= n zero
      }
      AlignedBuffer<uint32_t> want(ChunkCapacity(n)), got(ChunkCapacity(n));
      const size_t want_n =
          exec::detail::BitmapToSelectionScalar(bitmap.data(), n, want.data());
      const size_t got_n =
          exec::BitmapToSelection(isa, bitmap.data(), n, got.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n << " d=" << density_pct;
      for (size_t i = 0; i < want_n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "n=" << n << " @" << i;
      }
    }
  }
}

TEST_P(ExecChunkIsaTest, SelectionBitmapRoundTrip) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(77);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}, size_t{4096}}) {
    // Random ascending selection of ~half the positions.
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBounded(2) == 0) sel.push_back(static_cast<uint32_t>(i));
    }
    AlignedBuffer<uint64_t> bitmap(ChunkBitmapWords(n) + 1);
    exec::SelectionToBitmap(sel.data(), sel.size(), n, bitmap.data());
    AlignedBuffer<uint32_t> back(ChunkCapacity(n));
    const size_t cnt = exec::BitmapToSelection(isa, bitmap.data(), n,
                                               back.data());
    ASSERT_EQ(cnt, sel.size()) << "n=" << n;
    for (size_t i = 0; i < cnt; ++i) ASSERT_EQ(back[i], sel[i]);
  }
}

TEST_P(ExecChunkIsaTest, RangePredicateBitmapMatchesScalar) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{1023},
                   size_t{5000}}) {
    AlignedBuffer<uint32_t> keys(n + 16);
    FillUniform(keys.data(), n, 99, 0, 0xFFFFFFFFu);
    const size_t words = ChunkBitmapWords(n);
    // Bounds including the degenerate unbounded forms (AVX2 falls back to
    // scalar there: the sign-bias trick wraps on lo-1 / hi+1).
    const std::pair<uint32_t, uint32_t> bounds[] = {
        {0, 0xFFFFFFFFu},          {0, 0x7FFFFFFFu},
        {0x40000000u, 0xC0000000u}, {5, 5},
        {0xFFFFFFF0u, 0xFFFFFFFFu}, {7, 3}};  // empty range too
    for (auto [lo, hi] : bounds) {
      AlignedBuffer<uint64_t> want(words + 1), got(words + 1);
      const size_t want_n = exec::detail::RangePredicateBitmapScalar(
          keys.data(), n, lo, hi, want.data());
      const size_t got_n =
          exec::RangePredicateBitmap(isa, keys.data(), n, lo, hi, got.data());
      ASSERT_EQ(got_n, want_n) << "n=" << n << " lo=" << lo << " hi=" << hi;
      for (size_t w = 0; w < words; ++w) {
        ASSERT_EQ(got[w], want[w]) << "n=" << n << " word " << w;
      }
    }
  }
}

TEST_P(ExecChunkIsaTest, ColumnMinMaxMatchesScalar) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(91);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                   size_t{16}, size_t{17}, size_t{1023}, size_t{1024},
                   size_t{4097}}) {
    AlignedBuffer<uint32_t> vals(ChunkCapacity(n));
    for (size_t i = 0; i < n; ++i) vals[i] = rng.NextBounded(1000) + 5000;
    // The extremes of the unsigned range, at the tail and in the body.
    for (size_t pos : {n - 1, n / 3}) {
      if (n == 0) break;
      const uint32_t saved = vals[pos];
      for (uint32_t extreme : {0u, 0xFFFFFFFFu}) {
        vals[pos] = extreme;
        const exec::ColumnRange want =
            exec::detail::ColumnMinMaxScalar(vals.data(), n);
        const exec::ColumnRange got =
            exec::ColumnMinMax(isa, vals.data(), n);
        EXPECT_EQ(got.min, want.min) << "n=" << n << " @" << pos;
        EXPECT_EQ(got.max, want.max) << "n=" << n << " @" << pos;
        EXPECT_EQ(extreme == 0 ? got.min : got.max, extreme) << "n=" << n;
      }
      vals[pos] = saved;
    }
    const exec::ColumnRange got = exec::ColumnMinMax(isa, vals.data(), n);
    const exec::ColumnRange want =
        exec::detail::ColumnMinMaxScalar(vals.data(), n);
    EXPECT_EQ(got.min, want.min) << "n=" << n;
    EXPECT_EQ(got.max, want.max) << "n=" << n;
    if (n == 0) EXPECT_GT(got.min, got.max);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, ExecChunkIsaTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const auto& info) {
                           return std::string(IsaName(info.param));
                         });

TEST(ExecChunkTest, CompactGathersEveryColumn) {
  const size_t n = 1000;
  Chunk c(n, 3);
  for (int col = 0; col < 3; ++col) {
    for (size_t i = 0; i < n; ++i) {
      c.col(col)[i] = static_cast<uint32_t>(1000 * col + i);
    }
  }
  size_t cnt = 0;
  for (size_t i = 0; i < n; i += 3) c.sel()[cnt++] = static_cast<uint32_t>(i);
  c.SetSelection(n, cnt);
  c.Compact(Isa::kScalar);
  ASSERT_EQ(c.kind(), SelKind::kDense);
  ASSERT_EQ(c.size(), cnt);
  for (int col = 0; col < 3; ++col) {
    for (size_t j = 0; j < cnt; ++j) {
      ASSERT_EQ(c.col(col)[j], 1000u * col + 3 * j) << col << "," << j;
    }
  }
}

TEST(ExecChunkTest, MaterializeCountsConversions) {
  ScopedMetrics metrics;
  const size_t n = 256;
  Chunk c(n, 1);
  for (size_t i = 0; i < n; ++i) c.col(0)[i] = static_cast<uint32_t>(i);
  c.SetDense(n);
  c.MaterializeBitmap(Isa::kScalar);  // dense -> all-ones bitmap
  ASSERT_EQ(c.kind(), SelKind::kBitmap);
  ASSERT_EQ(c.active(), n);
  c.MaterializeSelection(Isa::kScalar);
  ASSERT_EQ(c.kind(), SelKind::kSelection);
  ASSERT_EQ(c.active(), n);
  EXPECT_EQ(Metric("sel_to_bitmap"), 1u);
  EXPECT_EQ(Metric("bitmap_to_sel"), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end query byte-identity
// ---------------------------------------------------------------------------

/// R.attr spans of the test data: a narrow group-key domain, aggregated in
/// direct-indexed partials, and a wide one (far more than
/// GroupByState::kMaxDirectKeys values) that takes the hash partials.
constexpr uint32_t kNarrowAttrs = 64;
constexpr uint32_t kWideAttrs = 100'000;

/// R key strides of the test data. Stride 1 makes the build keys dense,
/// so HashBuildOp builds the direct-indexed join table; stride 16 spreads
/// every build side of more than two rows over more than twice the hash
/// table's bucket count (at most 8(n + 1) for n keys), so it builds the
/// LinearProbingTable.
constexpr uint32_t kDenseKeys = 1;
constexpr uint32_t kSparseKeys = 16;

/// The byte-identity matrices' (key stride, attr_hi) axes: both join-table
/// layouts by both group-by paths.
constexpr std::pair<uint32_t, uint32_t> kLayoutAxes[] = {
    {kDenseKeys, kNarrowAttrs},
    {kDenseKeys, kWideAttrs},
    {kSparseKeys, kNarrowAttrs},
    {kSparseKeys, kWideAttrs}};

struct QueryData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  size_t n_r = 0, n_s = 0;
  uint32_t key_stride = kDenseKeys;

  QueryData(size_t nr, size_t ns, uint32_t attr_hi = kNarrowAttrs,
            uint32_t stride = kDenseKeys)
      : n_r(nr), n_s(ns), key_stride(stride) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    // Unique R keys Key(0..nr-1), attrs in [1, attr_hi] (0xFFFFFFFF =
    // kEmptyKey is reserved in both; see the ReservedValue tests). S.fk
    // picks an R row uniformly and takes its key.
    for (size_t i = 0; i < nr; ++i) r_keys[i] = Key(i);
    FillUniform(r_attrs.data(), nr, 5, 1, attr_hi);
    FillUniform(s_fks.data(), ns, 6, 1,
                nr == 0 ? 1 : static_cast<uint32_t>(nr));
    for (size_t i = 0; i < ns; ++i) s_fks[i] = Key(s_fks[i] - 1);
    FillUniform(s_vals.data(), ns, 7, 0, 999'999);
  }

  /// The key of R row `row`.
  uint32_t Key(size_t row) const {
    return static_cast<uint32_t>(1 + row * key_stride);
  }

  ScanJoinAggregatePlan Plan() const {
    ScanJoinAggregatePlan p;
    p.r_keys = r_keys.data();
    p.r_attrs = r_attrs.data();
    p.n_r = n_r;
    p.r_lo = 1;
    // The first 75% of R's rows.
    const size_t kept = (3 * n_r) / 4;
    p.r_hi = n_r == 0 ? 1 : kept == 0 ? 0 : Key(kept - 1);
    p.s_fks = s_fks.data();
    p.s_vals = s_vals.data();
    p.n_s = n_s;
    p.s_lo = 0;
    p.s_hi = 99'999;  // ~10% of S
    return p;
  }
};

/// Values in the group-key domain of the plan's build side: the span of
/// R.attr over the rows inside the r= window.
uint64_t AttrDomainValues(const QueryData& d, const ScanJoinAggregatePlan& p) {
  uint32_t lo = 0xFFFFFFFFu, hi = 0;
  for (size_t i = 0; i < d.n_r; ++i) {
    if (d.r_keys[i] < p.r_lo || d.r_keys[i] > p.r_hi) continue;
    lo = std::min(lo, d.r_attrs[i]);
    hi = std::max(hi, d.r_attrs[i]);
  }
  return lo > hi ? 0 : uint64_t{hi} - lo + 1;
}

/// Checks that `attr_hi` sends the plan down the group-by path it names.
void ExpectGroupByPath(const QueryData& d, const ScanJoinAggregatePlan& p,
                       uint32_t attr_hi) {
  const uint64_t values = AttrDomainValues(d, p);
  if (attr_hi == kWideAttrs) {
    EXPECT_GT(values, exec::GroupByState::kMaxDirectKeys);
  } else {
    EXPECT_LE(values, exec::GroupByState::kMaxDirectKeys);
  }
}

/// Runs the plan's build pipeline alone and returns whether HashBuildOp
/// built the direct-indexed join table. A build that refuses its input
/// still reports the layout it chose; one refused before the choice (a
/// reserved value) reports false.
bool BuildsDirectTable(const ScanJoinAggregatePlan& p) {
  exec::Query q;
  exec::HashBuildOp* build = exec::AddBuildPipeline(q, p);
  try {
    q.Run(ExecConfig{});
  } catch (const exec::QueryError&) {
  }
  return build->direct();
}

std::string StrideLabel(uint32_t stride) {
  return stride == kDenseKeys ? " keys=dense" : " keys=sparse";
}

struct RefRow {
  uint64_t sum = 0;
  uint32_t count = 0;
  uint32_t min = 0xFFFFFFFFu;
  uint32_t max = 0;
};

/// Scalar std::map reference, independent of every library kernel.
std::map<uint32_t, RefRow> MapReference(const QueryData& d,
                                        const ScanJoinAggregatePlan& p) {
  std::map<uint32_t, uint32_t> r;  // pk -> attr, post-filter
  for (size_t i = 0; i < d.n_r; ++i) {
    if (d.r_keys[i] >= p.r_lo && d.r_keys[i] <= p.r_hi) {
      r[d.r_keys[i]] = d.r_attrs[i];
    }
  }
  std::map<uint32_t, RefRow> groups;
  for (size_t i = 0; i < d.n_s; ++i) {
    if (d.s_vals[i] < p.s_lo || d.s_vals[i] > p.s_hi) continue;
    auto it = r.find(d.s_fks[i]);
    if (it == r.end()) continue;
    RefRow& g = groups[it->second];
    g.sum += d.s_vals[i];
    g.count += 1;
    g.min = std::min(g.min, d.s_vals[i]);
    g.max = std::max(g.max, d.s_vals[i]);
  }
  return groups;
}

void ExpectMatchesReference(const QueryResult& got,
                            const std::map<uint32_t, RefRow>& want,
                            const std::string& label) {
  ASSERT_EQ(got.group_keys.size(), want.size()) << label;
  size_t i = 0;
  for (const auto& [key, row] : want) {
    ASSERT_EQ(got.group_keys[i], key) << label << " @" << i;
    ASSERT_EQ(got.sums[i], row.sum) << label << " key " << key;
    ASSERT_EQ(got.counts[i], row.count) << label << " key " << key;
    ASSERT_EQ(got.mins[i], row.min) << label << " key " << key;
    ASSERT_EQ(got.maxs[i], row.max) << label << " key " << key;
    ++i;
  }
}

void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.group_keys, b.group_keys) << label;
  EXPECT_EQ(a.sums, b.sums) << label;
  EXPECT_EQ(a.counts, b.counts) << label;
  EXPECT_EQ(a.mins, b.mins) << label;
  EXPECT_EQ(a.maxs, b.maxs) << label;
  EXPECT_EQ(a.rows_joined, b.rows_joined) << label;
}

/// The acceptance reference: the same plan hand-composed from the existing
/// operator kernels, serial, no executor involved.
QueryResult HandComposed(const QueryData& d, const ScanJoinAggregatePlan& p,
                         Isa isa) {
  const ScanVariant v = exec::ScanVariantForIsa(isa);
  QueryResult res;

  AlignedBuffer<uint32_t> rk(SelectionScanCapacity(d.n_r)),
      ra(SelectionScanCapacity(d.n_r));
  const size_t n_build = SelectionScan(v, p.r_keys, p.r_attrs, d.n_r, p.r_lo,
                                       p.r_hi, rk.data(), ra.data(),
                                       rk.size());
  size_t buckets = 16;
  while (buckets < 2 * (n_build + 1)) buckets <<= 1;
  LinearProbingTable table(buckets);
  table.Build(isa, rk.data(), ra.data(), n_build);

  AlignedBuffer<uint32_t> sv(SelectionScanCapacity(d.n_s)),
      sf(SelectionScanCapacity(d.n_s));
  // Scan keyed on S.val carrying the fk as payload, like the executor.
  size_t n_sel = SelectionScan(v, p.s_vals, p.s_fks, d.n_s, p.s_lo, p.s_hi,
                               sv.data(), sf.data(), sv.size());
  const uint32_t* fks = sf.data();
  const uint32_t* vals = sv.data();
  AlignedBuffer<uint32_t> bf(n_sel + 16), bv(n_sel + 16);
  if (p.bloom_bits_per_key > 0 && n_build > 0) {
    BloomFilter filter = BloomFilter::ForItems(
        n_build, p.bloom_bits_per_key, p.bloom_k, 42);
    filter.Add(rk.data(), n_build);
    n_sel = filter.Probe(isa, fks, vals, n_sel, bf.data(), bv.data());
    fks = bf.data();
    vals = bv.data();
  }
  AlignedBuffer<uint32_t> jk(n_sel + 16), jsp(n_sel + 16), jrp(n_sel + 16);
  const size_t n_join =
      table.Probe(isa, fks, vals, n_sel, jk.data(), jsp.data(), jrp.data());
  res.rows_joined = n_join;

  GroupByAggregator agg(1024);
  agg.Accumulate(isa, jrp.data(), jsp.data(), n_join);
  const size_t g = agg.num_groups();
  std::vector<uint32_t> k(g), cnt(g), mn(g), mx(g);
  std::vector<uint64_t> sm(g);
  agg.Extract(isa, k.data(), sm.data(), cnt.data(), mn.data(), mx.data());
  std::vector<uint32_t> perm(g);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return k[a] < k[b]; });
  res.group_keys.resize(g);
  res.sums.resize(g);
  res.counts.resize(g);
  res.mins.resize(g);
  res.maxs.resize(g);
  for (size_t i = 0; i < g; ++i) {
    res.group_keys[i] = k[perm[i]];
    res.sums[i] = sm[perm[i]];
    res.counts[i] = cnt[perm[i]];
    res.mins[i] = mn[perm[i]];
    res.maxs[i] = mx[perm[i]];
  }
  return res;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

TEST(ExecQueryTest, MatchesHandComposedAndReferenceAcrossMatrix) {
  // Both join-table layouts: direct-indexed (dense keys) and hashed
  // (sparse); both group-by paths: direct-indexed (narrow attrs) and
  // hashed (wide). The hand-composed reference always hashes.
  for (auto [stride, attr_hi] : kLayoutAxes) {
    QueryData d(4096, 60'000, attr_hi, stride);
    ScanJoinAggregatePlan plan = d.Plan();
    ExpectGroupByPath(d, plan, attr_hi);
    EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
    const auto want = MapReference(d, plan);

    for (int bloom : {0, 10}) {
      for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
        plan.bloom_bits_per_key = bloom;
        QueryResult first;
        bool have_first = false;
        for (Isa isa : SupportedIsas()) {
          const QueryResult hand = HandComposed(d, plan, isa);
          for (int threads : {1, 8}) {
            for (size_t chunk : {size_t{257}, size_t{1024}}) {
              for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
                plan.scan_mode = mode;
                ExecConfig cfg;
                cfg.isa = isa;
                cfg.threads = threads;
                cfg.chunk_tuples = chunk;
                cfg.pipeline_mode = pm;
                const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
                const std::string label =
                    std::string(IsaName(isa)) + " t=" +
                    std::to_string(threads) + " c=" + std::to_string(chunk) +
                    " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                    " b=" + std::to_string(bloom) +
                    " p=" + (pm == PipelineMode::kFused ? "fused" : "dynamic") +
                    " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
                ExpectMatchesReference(got, want, label);
                ExpectIdentical(got, hand, label + " vs hand-composed");
                if (!have_first) {
                  first = got;
                  have_first = true;
                } else {
                  ExpectIdentical(got, first, label + " vs first config");
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExecQueryTest, EdgeInputSizes) {
  // n in {0, 1, 1023, non-chunk-multiple}; R empty and tiny.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {5, 0}, {0, 100}, {5, 1}, {16, 1023}, {7, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    ScanJoinAggregatePlan plan = d.Plan();
    plan.s_hi = 999'999;  // keep everything: exercises full chunks
    plan.bloom_bits_per_key = 10;
    const auto want = MapReference(d, plan);
    for (int threads : {1, 8}) {
      for (size_t chunk : {size_t{1}, size_t{64}, size_t{1023}}) {
        for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
          plan.scan_mode = mode;
          ExecConfig cfg;
          cfg.threads = threads;
          cfg.chunk_tuples = chunk;
          const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
          ExpectMatchesReference(
              got, want,
              "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                  " t=" + std::to_string(threads) +
                  " c=" + std::to_string(chunk));
        }
      }
    }
  }
}

TEST(ExecQueryTest, CompressedStorageMatchesRawAcrossMatrix) {
  // Scan-over-compressed acceptance: the same plan over CompressColumn'd
  // base tables is byte-identical to the raw-column plan everywhere the
  // raw matrix runs — ISA x threads x chunk size x scan mode x bloom x
  // pipeline mode x group-by path x join-table layout.
  for (auto [stride, attr_hi] : kLayoutAxes) {
    QueryData d(4096, 60'000, attr_hi, stride);
    const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
    const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
    const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
    const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
    ScanJoinAggregatePlan raw = d.Plan();
    ScanJoinAggregatePlan comp = d.Plan();
    comp.r_keys_c = &r_keys_c;
    comp.r_attrs_c = &r_attrs_c;
    comp.s_fks_c = &s_fks_c;
    comp.s_vals_c = &s_vals_c;
    ExpectGroupByPath(d, raw, attr_hi);
    EXPECT_EQ(BuildsDirectTable(raw), stride == kDenseKeys);
    EXPECT_EQ(BuildsDirectTable(comp), stride == kDenseKeys);
    for (int bloom : {0, 10}) {
      for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
        raw.bloom_bits_per_key = comp.bloom_bits_per_key = bloom;
        for (Isa isa : SupportedIsas()) {
          for (int threads : {1, 8}) {
            for (size_t chunk : {size_t{257}, size_t{1024}}) {
              for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
                raw.scan_mode = comp.scan_mode = mode;
                ExecConfig cfg;
                cfg.isa = isa;
                cfg.threads = threads;
                cfg.chunk_tuples = chunk;
                cfg.pipeline_mode = pm;
                const QueryResult want = exec::RunScanJoinAggregate(raw, cfg);
                const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
                const std::string label =
                    "compressed " + std::string(IsaName(isa)) + " t=" +
                    std::to_string(threads) + " c=" + std::to_string(chunk) +
                    " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                    " b=" + std::to_string(bloom) +
                    " p=" + (pm == PipelineMode::kFused ? "fused" : "dynamic") +
                    " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
                ExpectIdentical(got, want, label);
                EXPECT_EQ(got.rows_scanned, want.rows_scanned) << label;
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExecQueryTest, CompressedStorageEdgeSizes) {
  // Sizes straddling the 1024-value block boundary, a one-side-compressed
  // plan (R raw, S compressed), and chunk sizes that split blocks.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {5, 1}, {16, 1023}, {1024, 1024}, {7, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
    const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
    ScanJoinAggregatePlan raw = d.Plan();
    raw.s_hi = 999'999;
    ScanJoinAggregatePlan comp = raw;
    comp.s_fks_c = &s_fks_c;
    comp.s_vals_c = &s_vals_c;
    const auto want = MapReference(d, raw);
    for (size_t chunk : {size_t{1}, size_t{64}, size_t{1023}}) {
      for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
        raw.scan_mode = comp.scan_mode = mode;
        ExecConfig cfg;
        cfg.isa = SupportedIsas().back();
        cfg.threads = 8;
        cfg.chunk_tuples = chunk;
        const std::string label = "nr=" + std::to_string(nr) +
                                  " ns=" + std::to_string(ns) +
                                  " c=" + std::to_string(chunk);
        const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
        ExpectMatchesReference(got, want, label);
        ExpectIdentical(got, exec::RunScanJoinAggregate(raw, cfg), label);
      }
    }
  }
}

TEST(ExecPipelineTest, ChunksPushedAndConversionCounters) {
  ScopedMetrics metrics;
  QueryData d(1024, 10'000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.scan_mode = ScanMode::kBitmap;
  plan.bloom_bits_per_key = 10;
  ExecConfig cfg;
  cfg.chunk_tuples = 1024;
  cfg.pipeline_mode = PipelineMode::kDynamic;  // asserts dynamic internals
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  ASSERT_FALSE(got.group_keys.empty());
  // Source grids: 1 R chunk + 10 S chunks; every operator edge counts one
  // push per chunk, so the total is at least the source chunk count and a
  // bitmap-mode run converts every source chunk.
  EXPECT_GE(Metric("chunks_pushed"), 11u);
  EXPECT_GE(Metric("bitmap_to_sel"), 11u);
  EXPECT_GT(Metric("exec_scan_ns"), 0u);
  EXPECT_GT(Metric("exec_build_ns"), 0u);
  EXPECT_GT(Metric("exec_probe_ns"), 0u);
  EXPECT_GT(Metric("exec_groupby_ns"), 0u);
}

// ---------------------------------------------------------------------------
// Template-fused pipelines (exec/fused.h)
// ---------------------------------------------------------------------------

TEST(ExecFusedTest, FusedMatchesDynamicAcrossMatrix) {
  // ISA x threads {1, 8} x chunk {257, 1024} x scan mode x seed {1, 42} x
  // edge input sizes n_s in {0, 1, 1023, 4097} plus one bulk shape x
  // group-by path x join-table layout. The seed feeds the hash join
  // table's, the Bloom filter's and the hash group-by's hashes. The forced
  // dynamic run is the reference; the fused run must be byte-identical in
  // every result row and every reported cardinality.
  const std::pair<size_t, size_t> shapes[] = {
      {256, 0}, {256, 1}, {256, 1023}, {1024, 4097}, {4096, 60'000}};
  for (auto [stride, attr_hi] : kLayoutAxes) {
    for (auto [nr, ns] : shapes) {
      QueryData d(nr, ns, attr_hi, stride);
      ScanJoinAggregatePlan plan = d.Plan();
      ExpectGroupByPath(d, plan, attr_hi);
      EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
      plan.bloom_bits_per_key = 10;
      const auto want = MapReference(d, plan);
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 8}) {
          for (size_t chunk : {size_t{257}, size_t{1024}}) {
            for (ScanMode mode : {ScanMode::kCompact, ScanMode::kBitmap}) {
              for (uint64_t seed : {uint64_t{1}, uint64_t{42}}) {
                plan.scan_mode = mode;
                ExecConfig cfg;
                cfg.isa = isa;
                cfg.threads = threads;
                cfg.chunk_tuples = chunk;
                cfg.seed = seed;
                cfg.pipeline_mode = PipelineMode::kDynamic;
                const QueryResult dyn = exec::RunScanJoinAggregate(plan, cfg);
                cfg.pipeline_mode = PipelineMode::kFused;
                const QueryResult fus = exec::RunScanJoinAggregate(plan, cfg);
                const std::string label =
                    "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                    " " + IsaName(isa) + " t=" + std::to_string(threads) +
                    " c=" + std::to_string(chunk) +
                    " m=" + (mode == ScanMode::kBitmap ? "bitmap" : "compact") +
                    " seed=" + std::to_string(seed) +
                    " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
                EXPECT_FALSE(dyn.used_fused) << label;
                EXPECT_TRUE(fus.used_fused) << label;
                ExpectIdentical(fus, dyn, label + " fused vs dynamic");
                EXPECT_EQ(fus.rows_build, dyn.rows_build) << label;
                EXPECT_EQ(fus.rows_scanned, dyn.rows_scanned) << label;
                EXPECT_EQ(fus.rows_bloomed, dyn.rows_bloomed) << label;
                ExpectMatchesReference(fus, want,
                                       label + " fused vs reference");
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExecFusedTest, PipelineModesRunTheirPipelines) {
  QueryData d(1024, 10'000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.bloom_bits_per_key = 10;

  {
    ScopedMetrics metrics;
    ExecConfig cfg;  // kFused by default
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    EXPECT_TRUE(got.used_fused);
    EXPECT_EQ(Metric("pipelines_fused"), 1u);
    // The build breaker still runs as a dynamic pipeline.
    EXPECT_EQ(Metric("pipelines_dynamic"), 1u);
    EXPECT_GT(Metric("exec_fused_ns"), 0u);
    EXPECT_EQ(Metric("exec_dynamic_ns"), 0u);
  }

  {
    ScopedMetrics metrics;
    ExecConfig cfg;
    cfg.pipeline_mode = PipelineMode::kDynamic;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    EXPECT_FALSE(got.used_fused);
    EXPECT_EQ(Metric("pipelines_fused"), 0u);
    EXPECT_EQ(Metric("pipelines_dynamic"), 2u);  // build + probe
    EXPECT_EQ(Metric("exec_fused_ns"), 0u);
    EXPECT_GT(Metric("exec_dynamic_ns"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Join-table layout boundaries
// ---------------------------------------------------------------------------

TEST(ExecQueryTest, JoinLayoutFollowsKeyRangeAtItsBoundaries) {
  // Each case lists R's keys and its r= window. S probes every R key, the
  // keys just below and above the window's key range, 0, and 0xFFFFFFFF,
  // in turn. 1,000 build keys get 2,048 buckets, so a range of 4,096 keys
  // is the widest that takes the direct-indexed table.
  struct Case {
    const char* name;
    std::vector<uint32_t> keys;
    uint32_t r_lo, r_hi;
    bool direct;
  };
  auto run = [](uint32_t first, size_t n) {
    std::vector<uint32_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = first + static_cast<uint32_t>(i);
    return keys;
  };
  auto with = [](std::vector<uint32_t> keys, uint32_t last) {
    keys.push_back(last);
    return keys;
  };
  const Case cases[] = {
      {"width 2x buckets", with(run(1, 999), 4096), 1, 4096, true},
      {"width 2x buckets + 1", with(run(1, 999), 4097), 1, 4097, false},
      {"domain from 0", run(0, 1000), 0, 999, true},
      {"domain to 0xFFFFFFFE", run(0xFFFFFFFEu - 999, 1000), 0,
       0xFFFFFFFEu, true},
      {"one build row", run(1, 1000), 500, 500, true},
      {"empty window", run(1, 1000), 5000, 6000, false},
  };
  for (const Case& c : cases) {
    QueryData d(c.keys.size(), 3000);
    std::copy(c.keys.begin(), c.keys.end(), d.r_keys.data());
    uint32_t lo = 0xFFFFFFFFu, hi = 0;
    for (uint32_t k : c.keys) {
      if (k < c.r_lo || k > c.r_hi) continue;
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    std::vector<uint32_t> probes = c.keys;
    for (uint32_t k : {lo - 1, lo, hi, hi + 1, 0u, 0xFFFFFFFFu}) {
      probes.push_back(k);
    }
    for (size_t i = 0; i < d.n_s; ++i) d.s_fks[i] = probes[i % probes.size()];
    ScanJoinAggregatePlan plan = d.Plan();
    plan.r_lo = c.r_lo;
    plan.r_hi = c.r_hi;
    plan.s_hi = 999'999;
    EXPECT_EQ(BuildsDirectTable(plan), c.direct) << c.name;
    const auto want = MapReference(d, plan);
    for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 8}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.pipeline_mode = pm;
          cfg.chunk_tuples = 257;
          ExpectMatchesReference(
              exec::RunScanJoinAggregate(plan, cfg), want,
              std::string(c.name) + " " +
                  (pm == PipelineMode::kFused ? "fused " : "dynamic ") +
                  IsaName(isa) + " t=" + std::to_string(threads));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioned build
// ---------------------------------------------------------------------------

TEST(ExecQueryTest, PartitionedBuildMatchesThreadsOneAcrossMatrix) {
  // The 30,720-key build side (75% of 40,960 rows) spans two 16K-tuple
  // partition-pass morsels: threads 2 and 8 build its table in 4 and 16
  // home-bucket ranges, threads 1 with the serial walk. Its keys are
  // sparse: dense ones would take the direct-indexed table, which has no
  // partitioned build.
  QueryData d(40'960, 60'000, kNarrowAttrs, kSparseKeys);
  ASSERT_FALSE(BuildsDirectTable(d.Plan()));
  const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
  const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
  const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
  const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
  const auto want = MapReference(d, d.Plan());
  for (bool packed : {false, true}) {
    ScanJoinAggregatePlan plan = d.Plan();
    plan.bloom_bits_per_key = 10;
    if (packed) {
      plan.r_keys_c = &r_keys_c;
      plan.r_attrs_c = &r_attrs_c;
      plan.s_fks_c = &s_fks_c;
      plan.s_vals_c = &s_vals_c;
    }
    for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
      for (Isa isa : SupportedIsas()) {
        QueryResult serial;
        for (int threads : {1, 2, 8}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.pipeline_mode = pm;
          const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
          const std::string label =
              std::string(packed ? "packed " : "raw ") +
              (pm == PipelineMode::kFused ? "fused " : "dynamic ") +
              IsaName(isa) + " t=" + std::to_string(threads);
          EXPECT_EQ(got.rows_build, 30'720u) << label;
          if (threads == 1) {
            ExpectMatchesReference(got, want, label);
            serial = got;
            continue;
          }
          ExpectIdentical(got, serial, label + " vs t=1");
          EXPECT_EQ(got.rows_scanned, serial.rows_scanned) << label;
          EXPECT_EQ(got.rows_bloomed, serial.rows_bloomed) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Duplicate build keys
// ---------------------------------------------------------------------------

// R has n_r rows keyed as QueryData lays them out. R's smallest key (the
// direct-indexed table's first slot) or, with at_last, its largest (the
// last slot) is written over d rows counted from its own end of R,
// including the row that holds it, and over row `far` when far != 0; half
// of S probes it. Each probe batch would produce up to d matches per row,
// more than its output holds.
struct RepeatedKeyData : QueryData {
  uint32_t repeated;
  RepeatedKeyData(size_t d, size_t n_r, size_t far, uint32_t stride,
                  bool at_last)
      : QueryData(n_r, 4096, kNarrowAttrs, stride),
        repeated(Key(at_last ? n_r - 1 : 0)) {
    uint32_t* first = at_last ? r_keys.data() + n_r - d : r_keys.data();
    std::fill(first, first + d, repeated);
    if (far != 0) r_keys[far] = repeated;
    std::fill(s_fks.data(), s_fks.data() + n_s / 2, repeated);
  }

  /// Every row of R.
  ScanJoinAggregatePlan WholePlan() const {
    ScanJoinAggregatePlan p = Plan();
    p.r_lo = 1;
    p.r_hi = Key(n_r - 1);
    p.s_hi = 999'999;
    return p;
  }
};

TEST(ExecQueryTest, DuplicateBuildKeysInWindowFailQuery) {
  struct Case {
    size_t d, n_r, far;
  };
  // The third case puts the two copies 30,000 rows or more apart: in
  // chunks that start on different lanes, and in different morsels of the
  // partitioned build at threads 2 and 8.
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    for (bool at_last : {false, true}) {
      for (const Case& c : {Case{2, 4096, 0}, Case{64, 4096, 0},
                            Case{1, 40'960, 30'000}}) {
        const size_t d = c.d;
        RepeatedKeyData data(d, c.n_r, c.far, stride, at_last);
        const auto r_keys_c =
            compress::CompressColumn(data.r_keys.data(), data.n_r);
        const auto r_attrs_c =
            compress::CompressColumn(data.r_attrs.data(), data.n_r);
        const auto s_fks_c =
            compress::CompressColumn(data.s_fks.data(), data.n_s);
        const auto s_vals_c =
            compress::CompressColumn(data.s_vals.data(), data.n_s);
        const std::string want_error = "duplicate build keys (key " +
                                       std::to_string(data.repeated) +
                                       " repeats)";
        for (bool packed : {false, true}) {
          ScanJoinAggregatePlan plan = data.WholePlan();
          if (packed) {
            plan.r_keys_c = &r_keys_c;
            plan.r_attrs_c = &r_attrs_c;
            plan.s_fks_c = &s_fks_c;
            plan.s_vals_c = &s_vals_c;
          }
          EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
          for (PipelineMode pm :
               {PipelineMode::kFused, PipelineMode::kDynamic}) {
            for (Isa isa : SupportedIsas()) {
              for (int threads : {1, 2, 8}) {
                ExecConfig cfg;
                cfg.isa = isa;
                cfg.threads = threads;
                cfg.pipeline_mode = pm;
                cfg.chunk_tuples = 1000;
                const std::string label =
                    "d=" + std::to_string(d) +
                    " far=" + std::to_string(c.far) +
                    (at_last ? " last" : " first") + StrideLabel(stride) +
                    (packed ? " packed " : " raw ") +
                    (pm == PipelineMode::kFused ? "fused " : "dynamic ") +
                    IsaName(isa) + " t=" + std::to_string(threads);
                try {
                  exec::RunScanJoinAggregate(plan, cfg);
                  ADD_FAILURE() << label << ": query ran";
                } catch (const exec::QueryError& e) {
                  const std::string what = e.what();
                  EXPECT_NE(what.find(want_error), std::string::npos)
                      << label << ": " << what;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(ExecQueryTest, DuplicateBuildKeysOutsideWindowStillRun) {
  // The repeats of R's smallest key are filtered out by the R scan (the
  // window starts just above it), so the build side is unique and the
  // query runs normally.
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    RepeatedKeyData data(64, 4096, 0, stride, /*at_last=*/false);
    ScanJoinAggregatePlan plan = data.WholePlan();
    plan.r_lo = data.repeated + 1;
    EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
    const auto want = MapReference(data, plan);
    ASSERT_FALSE(want.empty());
    for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 8}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.pipeline_mode = pm;
          ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg), want,
                                 std::string(IsaName(isa)) +
                                     " t=" + std::to_string(threads) +
                                     StrideLabel(stride));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The reserved value 0xFFFFFFFF (kEmptyKey)
// ---------------------------------------------------------------------------

/// Every plan variant a reserved-value case runs on: raw and packed
/// storage, both executors, every ISA, threads {1, 2, 8}.
template <typename Fn>
void ForEachExecution(const QueryData& d, const ScanJoinAggregatePlan& base,
                      Fn&& fn) {
  const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
  const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
  const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
  const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
  for (bool packed : {false, true}) {
    ScanJoinAggregatePlan plan = base;
    if (packed) {
      plan.r_keys_c = &r_keys_c;
      plan.r_attrs_c = &r_attrs_c;
      plan.s_fks_c = &s_fks_c;
      plan.s_vals_c = &s_vals_c;
    }
    for (PipelineMode pm : {PipelineMode::kFused, PipelineMode::kDynamic}) {
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 2, 8}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.pipeline_mode = pm;
          cfg.chunk_tuples = 1000;
          const std::string label =
              std::string(packed ? "packed " : "raw ") +
              (pm == PipelineMode::kFused ? "fused " : "dynamic ") +
              IsaName(isa) + " t=" + std::to_string(threads);
          fn(plan, cfg, label);
        }
      }
    }
  }
}

TEST(ExecQueryTest, ReservedValueProbeKeysJoinNothing) {
  // Half of S probes with fk 0xFFFFFFFF, which no R row holds. The vector
  // probes once matched it against empty buckets and emitted their payload
  // 0: a group the build side never had, and in a direct-indexed group-by
  // an index below the domain.
  for (auto [stride, attr_hi] : kLayoutAxes) {
    QueryData d(4096, 4096, attr_hi, stride);
    std::fill(d.s_fks.data(), d.s_fks.data() + d.n_s / 2, 0xFFFFFFFFu);
    for (int bloom : {0, 10}) {
      ScanJoinAggregatePlan base = d.Plan();
      base.s_hi = 999'999;
      base.bloom_bits_per_key = bloom;
      EXPECT_EQ(BuildsDirectTable(base), stride == kDenseKeys);
      const auto want = MapReference(d, base);
      uint64_t want_joined = 0;
      for (const auto& [key, row] : want) want_joined += row.count;
      ASSERT_GT(want_joined, 0u);
      ForEachExecution(d, base, [&](const ScanJoinAggregatePlan& plan,
                                    const ExecConfig& cfg,
                                    const std::string& label) {
        const std::string l = label + " b=" + std::to_string(bloom) +
                              " attrs=" + std::to_string(attr_hi) +
                              StrideLabel(stride);
        const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
        EXPECT_EQ(got.rows_joined, want_joined) << l;
        ExpectMatchesReference(got, want, l);
      });
    }
  }
}

TEST(ExecQueryTest, ReservedValueInBuildWindowFailsQuery) {
  // kEmptyKey marks empty buckets and absent keys, so neither join table
  // can store it as a key and the hash group-by cannot store it as a
  // group: a build side holding it in its window fails before any probe
  // runs, on every path and whichever layout its keys would pick.
  struct Case {
    const char* what;  // the column the error names
    bool in_keys;
    uint32_t stride;
  };
  for (const Case& c : {Case{"keys", true, kDenseKeys},
                        Case{"group attributes", false, kDenseKeys},
                        Case{"keys", true, kSparseKeys},
                        Case{"group attributes", false, kSparseKeys}}) {
    QueryData d(4096, 4096, kNarrowAttrs, c.stride);
    if (c.in_keys) {
      d.r_keys[4000] = 0xFFFFFFFFu;  // one row
    } else {
      for (size_t i = 0; i < d.n_r; i += 4) d.r_attrs[i] = 0xFFFFFFFFu;
    }
    ScanJoinAggregatePlan base = d.Plan();
    base.r_lo = 1;
    base.r_hi = 0xFFFFFFFFu;
    base.s_hi = 999'999;
    ForEachExecution(d, base, [&](const ScanJoinAggregatePlan& plan,
                                  const ExecConfig& cfg,
                                  const std::string& label) {
      try {
        exec::RunScanJoinAggregate(plan, cfg);
        ADD_FAILURE() << c.what << " " << label << ": query ran";
      } catch (const exec::QueryError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("reserved value 4294967295 in the "
                                        "build ") +
                            c.what),
                  std::string::npos)
            << label << StrideLabel(c.stride) << ": " << what;
      }
    });
  }
}

TEST(ExecQueryTest, ReservedValueOutsideBuildWindowStillRuns) {
  // The same rows outside [r_lo, r_hi] are filtered out by the R scan.
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    QueryData d(4096, 4096, kNarrowAttrs, stride);
    d.r_keys[4000] = 0xFFFFFFFFu;
    for (size_t i = 3500; i < d.n_r; i += 4) d.r_attrs[i] = 0xFFFFFFFFu;
    ScanJoinAggregatePlan base = d.Plan();
    base.r_lo = 1;
    base.r_hi = d.Key(2999);
    base.s_hi = 999'999;
    EXPECT_EQ(BuildsDirectTable(base), stride == kDenseKeys);
    const auto want = MapReference(d, base);
    ASSERT_FALSE(want.empty());
    ForEachExecution(d, base, [&](const ScanJoinAggregatePlan& plan,
                                  const ExecConfig& cfg,
                                  const std::string& label) {
      ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg), want,
                             label + StrideLabel(stride));
    });
  }
}

TEST(ExecPipelineTest, RowsOutCardinalitiesAreConsistent) {
  QueryData d(4096, 50'000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.bloom_bits_per_key = 10;
  ExecConfig cfg;
  cfg.threads = 4;
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  EXPECT_LE(got.rows_bloomed, got.rows_scanned);
  EXPECT_LE(got.rows_joined, got.rows_bloomed);  // bloom has no false negatives
  const uint64_t total_count = std::accumulate(got.counts.begin(),
                                               got.counts.end(), uint64_t{0});
  EXPECT_EQ(total_count, got.rows_joined);
}

// ---------------------------------------------------------------------------
// ISA capability degrade (util/cpu_info SetCpuCapsForTesting)
// ---------------------------------------------------------------------------

struct ScopedCpuCaps {
  explicit ScopedCpuCaps(const CpuInfo* caps) { SetCpuCapsForTesting(caps); }
  ~ScopedCpuCaps() { SetCpuCapsForTesting(nullptr); }
};

TEST(ExecIsaDegradeTest, SupportedRequestIsNotDegraded) {
  QueryData d(1024, 10'000);
  ScanJoinAggregatePlan plan = d.Plan();
  for (PipelineMode pmode : {PipelineMode::kDynamic, PipelineMode::kFused}) {
    ScopedMetrics metrics;
    ExecConfig cfg;
    cfg.isa = SupportedIsas().back();
    cfg.pipeline_mode = pmode;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ASSERT_FALSE(got.group_keys.empty());
    EXPECT_EQ(Metric("isa_degraded"), 0u);
  }
}

TEST(ExecIsaDegradeTest, UnsupportedRequestDegradesInsteadOfSigill) {
  // A host with no vector extensions at all: every vector request must
  // degrade to scalar, and scalar must pass through untouched.
  static const CpuInfo kNoVector{};  // all capability bits false
  ScopedCpuCaps caps(&kNoVector);
  EXPECT_FALSE(IsaSupported(Isa::kAvx2));
  EXPECT_FALSE(IsaSupported(Isa::kAvx512));
  EXPECT_EQ(BestIsa(), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx2), Isa::kScalar);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx512), Isa::kScalar);

  ScopedMetrics metrics;
  QueryData d(512, 5000);
  ScanJoinAggregatePlan plan = d.Plan();
  plan.bloom_bits_per_key = 10;
  const auto want = MapReference(d, plan);
  ExecConfig cfg;
  cfg.isa = Isa::kAvx512;  // would SIGILL if trusted on this "host"
  for (PipelineMode pmode : {PipelineMode::kDynamic, PipelineMode::kFused}) {
    cfg.pipeline_mode = pmode;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ExpectMatchesReference(got, want,
                           pmode == PipelineMode::kFused ? "fused" : "dynamic");
  }
  EXPECT_GE(Metric("isa_degraded"), 2u);
}

TEST(ExecIsaDegradeTest, Avx512DegradesToAvx2WhenAvailable) {
  CpuInfo avx2_only{};
  avx2_only.avx2 = true;
  ScopedCpuCaps caps(&avx2_only);
  EXPECT_TRUE(IsaSupported(Isa::kAvx2));
  EXPECT_FALSE(IsaSupported(Isa::kAvx512));
  // Degrades to the widest *supported* backend, not all the way to scalar.
  // The test only checks the planner's answer, so it is safe on a host
  // without AVX2 too.
  EXPECT_EQ(EffectiveIsa(Isa::kAvx512), Isa::kAvx2);
  EXPECT_EQ(EffectiveIsa(Isa::kAvx2), Isa::kAvx2);
}

}  // namespace
}  // namespace simddb
