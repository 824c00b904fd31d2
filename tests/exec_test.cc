// Execution subsystem tests (src/exec/): the ColumnMinMax kernel against
// the scalar reference on every ISA, and the acceptance bar for the
// executor — the scan -> join -> group-by plan, run as its two fused
// pipelines, produces byte-identical canonical results across ISAs, thread
// counts {1, 8}, chunk sizes (including non-chunk-multiple and degenerate
// inputs n in {0, 1, 1023}), both join-table layouts, both group-by
// paths and raw and compressed storage, and matches a std::map
// reference and a hand-composed serial operator sequence over the same
// kernels. The chunk-grid test pins the `chunks_pushed` count exactly:
// each pipeline run counts its grid once.
// ExecIsaDegradeTest covers the ISA sanitization every plan goes through:
// an unsupported request degrades to the best supported backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "agg/group_by.h"
#include "compress/column.h"
#include "core/isa.h"
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

using exec::ChunkCapacity;
using exec::ExecConfig;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;

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
// ColumnMinMax kernel
// ---------------------------------------------------------------------------

class ExecChunkIsaTest : public ::testing::TestWithParam<Isa> {};

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
  const size_t n_sel = SelectionScan(v, p.s_vals, p.s_fks, d.n_s, p.s_lo,
                                     p.s_hi, sv.data(), sf.data(), sv.size());
  AlignedBuffer<uint32_t> jk(n_sel + 16), jsp(n_sel + 16), jrp(n_sel + 16);
  const size_t n_join = table.Probe(isa, sf.data(), sv.data(), n_sel,
                                    jk.data(), jsp.data(), jrp.data());
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
    const ScanJoinAggregatePlan plan = d.Plan();
    ExpectGroupByPath(d, plan, attr_hi);
    EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
    const auto want = MapReference(d, plan);

    QueryResult first;
    bool have_first = false;
    for (Isa isa : SupportedIsas()) {
      const QueryResult hand = HandComposed(d, plan, isa);
      for (int threads : {1, 8}) {
        for (size_t chunk : {size_t{257}, size_t{1024}}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.chunk_tuples = chunk;
          const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
          const std::string label =
              std::string(IsaName(isa)) + " t=" + std::to_string(threads) +
              " c=" + std::to_string(chunk) +
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

TEST(ExecQueryTest, EdgeInputSizes) {
  // n in {0, 1, 1023, non-chunk-multiple}; R empty and tiny.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0}, {5, 0}, {0, 100}, {5, 1}, {16, 1023}, {7, 4097}};
  for (auto [nr, ns] : shapes) {
    QueryData d(nr, ns);
    ScanJoinAggregatePlan plan = d.Plan();
    plan.s_hi = 999'999;  // keep everything: exercises full chunks
    const auto want = MapReference(d, plan);
    for (int threads : {1, 8}) {
      for (size_t chunk : {size_t{1}, size_t{64}, size_t{1023}}) {
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

TEST(ExecQueryTest, CompressedStorageMatchesRawAcrossMatrix) {
  // Scan-over-compressed acceptance: the same plan over CompressColumn'd
  // base tables is byte-identical to the raw-column plan everywhere the
  // raw matrix runs — ISA x threads x chunk size x group-by path x
  // join-table layout.
  for (auto [stride, attr_hi] : kLayoutAxes) {
    QueryData d(4096, 60'000, attr_hi, stride);
    const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
    const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
    const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
    const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
    const ScanJoinAggregatePlan raw = d.Plan();
    ScanJoinAggregatePlan comp = d.Plan();
    comp.r_keys_c = &r_keys_c;
    comp.r_attrs_c = &r_attrs_c;
    comp.s_fks_c = &s_fks_c;
    comp.s_vals_c = &s_vals_c;
    ExpectGroupByPath(d, raw, attr_hi);
    EXPECT_EQ(BuildsDirectTable(raw), stride == kDenseKeys);
    EXPECT_EQ(BuildsDirectTable(comp), stride == kDenseKeys);
    for (Isa isa : SupportedIsas()) {
      for (int threads : {1, 8}) {
        for (size_t chunk : {size_t{257}, size_t{1024}}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.chunk_tuples = chunk;
          const QueryResult want = exec::RunScanJoinAggregate(raw, cfg);
          const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
          const std::string label =
              "compressed " + std::string(IsaName(isa)) +
              " t=" + std::to_string(threads) +
              " c=" + std::to_string(chunk) +
              " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
          ExpectIdentical(got, want, label);
          EXPECT_EQ(got.rows_scanned, want.rows_scanned) << label;
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

/// Rows of the blocks of `col` that the zone map keeps for [lo, hi]: the
/// rows a compressed source's chunk grid covers.
size_t KeptRows(const compress::CompressedColumn& col, uint32_t lo,
                uint32_t hi) {
  size_t rows = 0;
  for (size_t b = 0; b < col.num_blocks(); ++b) {
    if (compress::ClassifyBlock(col.block_meta(b), lo, hi) !=
        compress::BlockClass::kSkip) {
      rows += col.block_rows(b);
    }
  }
  return rows;
}

TEST(ExecPipelineTest, ChunksPushedCountsEachGridOnce) {
  // Every pipeline run counts its chunk grid once, by size: a query pushes
  // its build grid plus its probe grid, whatever the predicates keep (at
  // chunk size 1 most probe chunks hold no qualifying row). A compressed
  // source's grid covers only the rows of the blocks its zone map keeps:
  // uniform S values keep every block, while the clustered S (values ramp
  // with the row) keeps the first of its ten. The classification behind it
  // runs once per pipeline, so `blocks_skipped` counts each skipped block
  // once at every chunk size. A plan served by a join index runs no build
  // pipeline at all.
  QueryData d(1024, 10'000);
  QueryData clustered(1024, 10'000);
  for (size_t i = 0; i < clustered.n_s; ++i) {
    clustered.s_vals[i] = static_cast<uint32_t>(100 * i);
  }
  const auto index = exec::JoinIndex::Build(
      BestIsa(), d.r_keys.data(), d.r_attrs.data(), d.n_r);
  ASSERT_NE(index, nullptr);
  enum class Storage { kRaw, kPacked, kPackedClustered };
  const char* const storage_names[] = {"raw", "packed", "packed clustered"};
  for (Storage storage :
       {Storage::kRaw, Storage::kPacked, Storage::kPackedClustered}) {
    const QueryData& q = storage == Storage::kPackedClustered ? clustered : d;
    const auto r_keys_c = compress::CompressColumn(q.r_keys.data(), q.n_r);
    const auto r_attrs_c = compress::CompressColumn(q.r_attrs.data(), q.n_r);
    const auto s_fks_c = compress::CompressColumn(q.s_fks.data(), q.n_s);
    const auto s_vals_c = compress::CompressColumn(q.s_vals.data(), q.n_s);
    const bool packed = storage != Storage::kRaw;
    ScanJoinAggregatePlan base = q.Plan();
    if (packed) {
      base.r_keys_c = &r_keys_c;
      base.r_attrs_c = &r_attrs_c;
      base.s_fks_c = &s_fks_c;
      base.s_vals_c = &s_vals_c;
    }
    const size_t build_rows =
        packed ? KeptRows(r_keys_c, base.r_lo, base.r_hi) : q.n_r;
    const size_t probe_rows =
        packed ? KeptRows(s_vals_c, base.s_lo, base.s_hi) : q.n_s;
    if (storage == Storage::kPackedClustered) {
      ASSERT_EQ(probe_rows, compress::kBlockTuples);
    }
    for (bool indexed : {false, true}) {
      ScanJoinAggregatePlan plan = base;
      if (indexed) plan.r_index = index.get();
      for (size_t chunk : {size_t{1}, size_t{257}, size_t{1024}}) {
        const uint64_t build_grid =
            indexed ? 0 : (build_rows + chunk - 1) / chunk;
        const uint64_t builds = indexed ? 0 : 1;
        const uint64_t probe_grid = (probe_rows + chunk - 1) / chunk;
        // Only a column's last block can be short, so the kept rows fill
        // ceil(rows / kBlockTuples) blocks.
        auto skipped = [](const compress::CompressedColumn& col, size_t rows) {
          return col.num_blocks() - (rows + compress::kBlockTuples - 1) /
                                        compress::kBlockTuples;
        };
        const uint64_t skipped_blocks =
            !packed ? 0
                    : (indexed ? 0 : skipped(r_keys_c, build_rows)) +
                          skipped(s_vals_c, probe_rows);
        const std::string label =
            std::string(storage_names[static_cast<int>(storage)]) +
            (indexed ? " indexed" : "") + " c=" + std::to_string(chunk);
        ExecConfig cfg;
        cfg.threads = 4;
        cfg.chunk_tuples = chunk;
        {
          ScopedMetrics metrics;
          const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
          ASSERT_FALSE(got.group_keys.empty()) << label;
          EXPECT_EQ(Metric("chunks_pushed"), build_grid + probe_grid)
              << label;
          EXPECT_EQ(Metric("blocks_skipped"), skipped_blocks) << label;
          EXPECT_EQ(Metric("pipelines_fused"), builds + 1) << label;
          EXPECT_GT(Metric("exec_build_ns"), 0u) << label;
          EXPECT_GT(Metric("exec_fused_ns"), 0u) << label;
        }
        {
          ScopedMetrics metrics;
          exec::Query qry;
          exec::AddBuildPipeline(qry, plan);
          qry.Run(cfg);
          EXPECT_EQ(Metric("chunks_pushed"), build_grid) << label << " build";
          EXPECT_EQ(Metric("pipelines_fused"), builds) << label << " build";
        }
      }
    }
  }
}

TEST(ExecPipelineTest, ChunksPushedAndConversionCounters) {
  // One R chunk plus ten S chunks at chunk size 1024. The count follows the
  // grids alone, so the lane count does not move it. Rows stay a selection
  // vector from scan to sink, so no visibility conversion is left to count.
  QueryData d(1024, 10'000);
  const ScanJoinAggregatePlan plan = d.Plan();
  for (int threads : {1, 8}) {
    ScopedMetrics metrics;
    ExecConfig cfg;
    cfg.threads = threads;
    cfg.chunk_tuples = 1024;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ASSERT_FALSE(got.group_keys.empty());
    EXPECT_EQ(Metric("chunks_pushed"), 11u) << "t=" << threads;
    EXPECT_GT(Metric("exec_build_ns"), 0u) << "t=" << threads;
  }
}

TEST(ExecFusedTest, PipelineModesRunTheirPipelines) {
  // One mode is left, and it runs every pipeline fused. A query runs its
  // build and its probe pipeline inside the query timer; the build-only
  // call (AddBuildPipeline + Query::Run) runs the build alone, outside it.
  QueryData d(1024, 10'000);
  const ScanJoinAggregatePlan plan = d.Plan();
  const ExecConfig cfg;
  {
    ScopedMetrics metrics;
    const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
    ASSERT_FALSE(got.group_keys.empty());
    EXPECT_EQ(Metric("pipelines_fused"), 2u);  // build + probe
    EXPECT_GT(Metric("exec_build_ns"), 0u);
    EXPECT_GT(Metric("exec_fused_ns"), 0u);
  }
  {
    ScopedMetrics metrics;
    exec::Query q;
    exec::AddBuildPipeline(q, plan);
    q.Run(cfg);
    EXPECT_EQ(Metric("pipelines_fused"), 1u);
    EXPECT_GT(Metric("exec_build_ns"), 0u);
    EXPECT_EQ(Metric("exec_fused_ns"), 0u);
  }
}

TEST(ExecQueryTest, EdgeShapesAndSeedsMatchReferenceAcrossMatrix) {
  // Edge input sizes n_s in {0, 1, 1023, 4097} x ISA x threads {1, 8} x
  // chunk {257, 1024} x group-by path x join-table layout. The hash join
  // table and the hash group-by hash with the executor's fixed seed (42).
  // Every result row and every reported cardinality must match the
  // reference, for the plan and for a plan with another S window.
  const std::pair<size_t, size_t> shapes[] = {
      {256, 0}, {256, 1}, {256, 1023}, {1024, 4097}};
  for (auto [stride, attr_hi] : kLayoutAxes) {
    for (auto [nr, ns] : shapes) {
      QueryData d(nr, ns, attr_hi, stride);
      const ScanJoinAggregatePlan plan = d.Plan();
      ScanJoinAggregatePlan other = plan;
      other.s_lo = 500'000;
      other.s_hi = 999'999;
      ExpectGroupByPath(d, plan, attr_hi);
      EXPECT_EQ(BuildsDirectTable(plan), stride == kDenseKeys);
      const auto want = MapReference(d, plan);
      const auto want_other = MapReference(d, other);
      uint64_t want_build = 0, want_scanned = 0, want_joined = 0;
      for (size_t i = 0; i < d.n_r; ++i) {
        want_build += d.r_keys[i] >= plan.r_lo && d.r_keys[i] <= plan.r_hi;
      }
      for (size_t i = 0; i < d.n_s; ++i) {
        want_scanned += d.s_vals[i] >= plan.s_lo && d.s_vals[i] <= plan.s_hi;
      }
      for (const auto& [key, row] : want) want_joined += row.count;
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 8}) {
          for (size_t chunk : {size_t{257}, size_t{1024}}) {
            ExecConfig cfg;
            cfg.isa = isa;
            cfg.threads = threads;
            cfg.chunk_tuples = chunk;
            const std::string label =
                "nr=" + std::to_string(nr) + " ns=" + std::to_string(ns) +
                " " + IsaName(isa) + " t=" + std::to_string(threads) +
                " c=" + std::to_string(chunk) +
                " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
            const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
            ExpectMatchesReference(got, want, label);
            EXPECT_EQ(got.rows_build, want_build) << label;
            EXPECT_EQ(got.rows_scanned, want_scanned) << label;
            EXPECT_EQ(got.rows_joined, want_joined) << label;
            ExpectMatchesReference(exec::RunScanJoinAggregate(other, cfg),
                                   want_other, label + " other window");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Join-table layout boundaries
// ---------------------------------------------------------------------------

/// Keys first, first + 1, ..., n of them.
std::vector<uint32_t> KeyRun(uint32_t first, size_t n) {
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = first + static_cast<uint32_t>(i);
  return keys;
}

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
  auto with = [](std::vector<uint32_t> keys, uint32_t last) {
    keys.push_back(last);
    return keys;
  };
  const Case cases[] = {
      {"width 2x buckets", with(KeyRun(1, 999), 4096), 1, 4096, true},
      {"width 2x buckets + 1", with(KeyRun(1, 999), 4097), 1, 4097, false},
      {"domain from 0", KeyRun(0, 1000), 0, 999, true},
      {"domain to 0xFFFFFFFE", KeyRun(0xFFFFFFFEu - 999, 1000), 0,
       0xFFFFFFFEu, true},
      {"one build row", KeyRun(1, 1000), 500, 500, true},
      {"empty window", KeyRun(1, 1000), 5000, 6000, false},
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
    // Every case's R but the wide ones qualifies for a join index, which
    // must answer the same probes.
    const auto index = exec::JoinIndex::Build(
        BestIsa(), d.r_keys.data(), d.r_attrs.data(), d.n_r);
    ScanJoinAggregatePlan indexed = plan;
    indexed.r_index = index.get();
    for (Isa isa : SupportedIsas()) {
      for (int threads : {1, 8}) {
        ExecConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        cfg.chunk_tuples = 257;
        const std::string label = std::string(c.name) + " " + IsaName(isa) +
                                  " t=" + std::to_string(threads);
        ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg), want,
                               label);
        if (index == nullptr) continue;
        ExpectMatchesReference(exec::RunScanJoinAggregate(indexed, cfg), want,
                               label + " indexed");
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
    if (packed) {
      plan.r_keys_c = &r_keys_c;
      plan.r_attrs_c = &r_attrs_c;
      plan.s_fks_c = &s_fks_c;
      plan.s_vals_c = &s_vals_c;
    }
    for (Isa isa : SupportedIsas()) {
      QueryResult serial;
      for (int threads : {1, 2, 8}) {
        ExecConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
        const std::string label =
            std::string(packed ? "packed " : "raw ") +
            IsaName(isa) + " t=" + std::to_string(threads);
        EXPECT_EQ(got.rows_build, 30'720u) << label;
        if (threads == 1) {
          ExpectMatchesReference(got, want, label);
          serial = got;
          continue;
        }
        ExpectIdentical(got, serial, label + " vs t=1");
        EXPECT_EQ(got.rows_scanned, serial.rows_scanned) << label;
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
          for (Isa isa : SupportedIsas()) {
            for (int threads : {1, 2, 8}) {
              ExecConfig cfg;
              cfg.isa = isa;
              cfg.threads = threads;
              cfg.chunk_tuples = 1000;
              const std::string label =
                  "d=" + std::to_string(d) +
                  " far=" + std::to_string(c.far) +
                  (at_last ? " last" : " first") + StrideLabel(stride) +
                  (packed ? " packed " : " raw ") +
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
    for (Isa isa : SupportedIsas()) {
      for (int threads : {1, 8}) {
        ExecConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        ExpectMatchesReference(exec::RunScanJoinAggregate(plan, cfg), want,
                               std::string(IsaName(isa)) +
                                   " t=" + std::to_string(threads) +
                                   StrideLabel(stride));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The reserved value 0xFFFFFFFF (kEmptyKey)
// ---------------------------------------------------------------------------

/// Every plan variant a reserved-value case runs on: raw and packed
/// storage, every ISA, threads {1, 2, 8}.
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
    for (Isa isa : SupportedIsas()) {
      for (int threads : {1, 2, 8}) {
        ExecConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        cfg.chunk_tuples = 1000;
        const std::string label =
            std::string(packed ? "packed " : "raw ") +
            IsaName(isa) + " t=" + std::to_string(threads);
        fn(plan, cfg, label);
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
    ScanJoinAggregatePlan base = d.Plan();
    base.s_hi = 999'999;
    EXPECT_EQ(BuildsDirectTable(base), stride == kDenseKeys);
    const auto want = MapReference(d, base);
    uint64_t want_joined = 0;
    for (const auto& [key, row] : want) want_joined += row.count;
    ASSERT_GT(want_joined, 0u);
    ForEachExecution(d, base, [&](const ScanJoinAggregatePlan& plan,
                                  const ExecConfig& cfg,
                                  const std::string& label) {
      const std::string l =
          label + " attrs=" + std::to_string(attr_hi) + StrideLabel(stride);
      const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
      EXPECT_EQ(got.rows_joined, want_joined) << l;
      ExpectMatchesReference(got, want, l);
    });
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
  const ScanJoinAggregatePlan plan = d.Plan();
  ExecConfig cfg;
  cfg.threads = 4;
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  EXPECT_LE(got.rows_build, d.n_r);
  EXPECT_LE(got.rows_scanned, d.n_s);
  EXPECT_LE(got.rows_joined, got.rows_scanned);  // at most one match per row
  const uint64_t total_count = std::accumulate(got.counts.begin(),
                                               got.counts.end(), uint64_t{0});
  EXPECT_EQ(total_count, got.rows_joined);
}

// ---------------------------------------------------------------------------
// Join index (JoinIndex, HashBuildOp::Borrow)
// ---------------------------------------------------------------------------

TEST(JoinIndex, BuiltOnlyForUniqueKeysOverANarrowRange) {
  // 1,000 rows get 2,048 buckets, so a range of 4,097 keys is just past
  // DirectJoinTable::Fits; 2,000 keys is the widest range 2 x rows allows.
  struct Case {
    const char* name;
    std::vector<uint32_t> keys;
    bool indexed;
    uint32_t reserved_attr_row = UINT32_MAX;  ///< row given attr 0xFFFFFFFF
  };
  auto replaced = [](std::vector<uint32_t> keys, size_t row, uint32_t key) {
    keys[row] = key;
    return keys;
  };
  // 1 .. 999 and 1,500: unique, with spare key-range values, so a repeat
  // is caught by the build itself, not by the row count.
  const std::vector<uint32_t> spare = replaced(KeyRun(1, 1000), 999, 1500);
  const Case cases[] = {
      {"dense", KeyRun(1, 1000), true},
      {"spare values", spare, true},
      {"repeat in the first rows", replaced(spare, 1, spare[0]), false},
      {"repeat in the middle", replaced(spare, 500, spare[499]), false},
      {"repeat of the last row", replaced(spare, 998, spare[999]), false},
      {"more rows than range values", std::vector<uint32_t>(1000, 5), false},
      {"key 0xFFFFFFFF", KeyRun(0xFFFFFFFFu - 999, 1000), false},
      {"attr 0xFFFFFFFF", KeyRun(1, 1000), false, 640},
      {"range 2 x rows", replaced(KeyRun(1, 1000), 999, 2000), true},
      {"range 2 x rows + 1", replaced(KeyRun(1, 1000), 999, 2001), false},
      {"range just past Fits", replaced(KeyRun(1, 1000), 999, 4097), false},
      {"empty table", {}, false},
      {"one row", {7}, true},
      {"range from 0", KeyRun(0, 1000), true},
      {"range to 0xFFFFFFFE", KeyRun(0xFFFFFFFEu - 999, 1000), true},
  };
  for (const Case& c : cases) {
    std::vector<uint32_t> attrs(c.keys.size());
    std::iota(attrs.begin(), attrs.end(), 1u);
    if (c.reserved_attr_row != UINT32_MAX) {
      attrs[c.reserved_attr_row] = 0xFFFFFFFFu;
    }
    // A compressed twin's zone maps give the same key range as a pass over
    // the keys, so the same tables qualify either way.
    const compress::CompressedColumn keys_c =
        compress::CompressColumn(c.keys.data(), c.keys.size());
    for (Isa isa : SupportedIsas()) {
      const std::string label = std::string(c.name) + " " + IsaName(isa);
      const auto index = exec::JoinIndex::Build(isa, c.keys.data(),
                                                attrs.data(), c.keys.size());
      ASSERT_EQ(index != nullptr, c.indexed) << label;
      const auto twin_index = exec::JoinIndex::Build(
          isa, c.keys.data(), attrs.data(), c.keys.size(), &keys_c);
      ASSERT_EQ(twin_index != nullptr, c.indexed) << label << " twin";
      if (index == nullptr) continue;
      EXPECT_EQ(twin_index->key_min(), index->key_min()) << label;
      EXPECT_EQ(twin_index->key_max(), index->key_max()) << label;
      const uint32_t lo = *std::min_element(c.keys.begin(), c.keys.end());
      const uint32_t hi = *std::max_element(c.keys.begin(), c.keys.end());
      EXPECT_EQ(index->key_min(), lo) << label;
      EXPECT_EQ(index->key_max(), hi) << label;
      const size_t width = size_t{hi} - lo + 1;
      const size_t blocks = (width + exec::JoinIndex::kBlockSlots - 1) /
                            exec::JoinIndex::kBlockSlots;
      EXPECT_EQ(index->bytes(), 4 * width + 12 * blocks) << label;
      const exec::JoinIndex::Summary all = index->Summarize(lo, hi);
      EXPECT_EQ(all.rows, c.keys.size()) << label;
      EXPECT_EQ(all.pays.min, 1u) << label;
      EXPECT_EQ(all.pays.max, c.keys.size()) << label;
    }
  }
}

/// R for the join-index matrix: 8,192 rows whose unique keys skip every
/// fourth value (1, 2, 3, 5, 6, 7, 9, ...), so windows meet absent slots
/// inside the index's range; S.fk mostly hits R, and every seventh row
/// probes a skipped key or one past R's range.
struct IndexedQueryData : QueryData {
  static constexpr size_t kRows = 8192;

  explicit IndexedQueryData(uint32_t attr_hi)
      : QueryData(kRows, 60'000, attr_hi) {
    for (size_t i = 0; i < n_r; ++i) r_keys[i] = SkipKey(i);
    for (size_t i = 0; i < n_s; ++i) {
      s_fks[i] = i % 7 == 0 ? 4 * static_cast<uint32_t>(1 + i % 3000)
                            : SkipKey(s_fks[i] - 1);
    }
  }

  static uint32_t SkipKey(size_t row) {
    return static_cast<uint32_t>(1 + row + row / 3);
  }
};

/// r= windows over IndexedQueryData's keys [1, kmax]: empty, inverted, one
/// key, wholly outside, edges inside and on 1,024-slot blocks, and full.
std::vector<std::pair<uint32_t, uint32_t>> IndexWindows(uint32_t kmax) {
  return {{4, 4},        {500, 400},  {5, 5},          {0, 0},
          {kmax + 1, 0xFFFFFFFFu},    {101, 5001},     {1025, 3072},
          {0, 2048},     {3001, 0xFFFFFFFFu},            {0, 0xFFFFFFFFu}};
}

TEST(JoinIndex, WindowsMatchThePerQueryBuildAcrossMatrix) {
  // Each window's plan runs twice, through the per-query build and through
  // the index, on every ISA, threads {1, 2, 8} and raw and packed storage.
  // Results are byte-identical, rows_build included.
  for (uint32_t attr_hi : {kNarrowAttrs, kWideAttrs}) {
    IndexedQueryData d(attr_hi);
    const uint32_t kmax = IndexedQueryData::SkipKey(d.n_r - 1);
    const auto index = exec::JoinIndex::Build(
        BestIsa(), d.r_keys.data(), d.r_attrs.data(), d.n_r);
    ASSERT_NE(index, nullptr);
    ASSERT_EQ(index->key_max(), kmax);
    const auto r_keys_c = compress::CompressColumn(d.r_keys.data(), d.n_r);
    const auto r_attrs_c = compress::CompressColumn(d.r_attrs.data(), d.n_r);
    const auto s_fks_c = compress::CompressColumn(d.s_fks.data(), d.n_s);
    const auto s_vals_c = compress::CompressColumn(d.s_vals.data(), d.n_s);
    for (bool packed : {false, true}) {
      std::vector<ScanJoinAggregatePlan> plans;
      for (auto [lo, hi] : IndexWindows(kmax)) {
        ScanJoinAggregatePlan p = d.Plan();
        p.r_lo = lo;
        p.r_hi = hi;
        p.s_hi = 999'999;
        if (packed) {
          p.r_keys_c = &r_keys_c;
          p.r_attrs_c = &r_attrs_c;
        }
        plans.push_back(p);
      }
      for (Isa isa : SupportedIsas()) {
        for (int threads : {1, 2, 8}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          for (ScanJoinAggregatePlan p : plans) {
            if (packed) {
              p.s_fks_c = &s_fks_c;
              p.s_vals_c = &s_vals_c;
            }
            const QueryResult want = exec::RunScanJoinAggregate(p, cfg);
            p.r_index = index.get();
            const QueryResult got = exec::RunScanJoinAggregate(p, cfg);
            const std::string label =
                std::string(IsaName(isa)) + " t=" + std::to_string(threads) +
                (packed ? " packed" : " raw") +
                " attrs=" + std::to_string(attr_hi) +
                " r=[" + std::to_string(p.r_lo) + "," +
                std::to_string(p.r_hi) + "]";
            ExpectIdentical(got, want, label);
            EXPECT_EQ(got.rows_build, want.rows_build) << label;
            EXPECT_EQ(got.rows_scanned, want.rows_scanned) << label;
          }
        }
      }
    }
  }
}

TEST(JoinIndex, BorrowReportsWhatTheBuildPipelineComputes) {
  // build_rows(), the payload domain and the group-by path it picks are
  // the same through the index as through the build pipeline. The wide
  // table's attrs grow with the key (7 per key, over 76,000 values in
  // all): its full window takes hash partials, but a window of 500 keys
  // spans under 3,500 attr values and stays on direct partials.
  IndexedQueryData narrow(kNarrowAttrs);
  IndexedQueryData wide(kNarrowAttrs);
  for (size_t i = 0; i < wide.n_r; ++i) wide.r_attrs[i] = 7 * wide.r_keys[i];
  const uint32_t kmax = IndexedQueryData::SkipKey(narrow.n_r - 1);
  for (const IndexedQueryData* d : {&narrow, &wide}) {
    const bool is_wide = d == &wide;
    const auto index = exec::JoinIndex::Build(
        BestIsa(), d->r_keys.data(), d->r_attrs.data(), d->n_r);
    ASSERT_NE(index, nullptr);
    auto windows = IndexWindows(kmax);
    windows.push_back({2000, 2499});  // 500 keys
    for (auto [lo, hi] : windows) {
      ScanJoinAggregatePlan plan = d->Plan();
      plan.r_lo = lo;
      plan.r_hi = hi;
      exec::Query per_query, borrowed;
      exec::HashBuildOp* want = exec::AddBuildPipeline(per_query, plan);
      plan.r_index = index.get();
      exec::HashBuildOp* got = exec::AddBuildPipeline(borrowed, plan);
      ExecConfig cfg;
      cfg.threads = 2;
      per_query.Run(cfg);
      borrowed.Run(cfg);
      const std::string label = std::string(is_wide ? "wide" : "narrow") +
                                " r=[" + std::to_string(lo) + "," +
                                std::to_string(hi) + "]";
      EXPECT_FALSE(want->borrowed()) << label;
      EXPECT_TRUE(got->borrowed()) << label;
      EXPECT_EQ(got->build_rows(), want->build_rows()) << label;
      EXPECT_EQ(got->pay_min(), want->pay_min()) << label;
      EXPECT_EQ(got->pay_max(), want->pay_max()) << label;
      // A window holding no key gets the empty build's table.
      EXPECT_EQ(got->direct(), got->build_rows() > 0) << label;
      exec::GroupByState want_agg, got_agg;
      want_agg.Open(cfg, 1, want->pay_min(), want->pay_max());
      got_agg.Open(cfg, 1, got->pay_min(), got->pay_max());
      EXPECT_EQ(got_agg.direct(), want_agg.direct()) << label;
      if (is_wide && lo == 2000) {
        EXPECT_TRUE(got_agg.direct()) << label;
      }
      if (is_wide && lo == 0 && hi == 0xFFFFFFFFu) {
        EXPECT_FALSE(got_agg.direct()) << label;
      }
    }
  }
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
  const ScanJoinAggregatePlan plan = d.Plan();
  ScopedMetrics metrics;
  ExecConfig cfg;
  cfg.isa = SupportedIsas().back();
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  ASSERT_FALSE(got.group_keys.empty());
  EXPECT_EQ(Metric("isa_degraded"), 0u);
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
  const ScanJoinAggregatePlan plan = d.Plan();
  const auto want = MapReference(d, plan);
  ExecConfig cfg;
  cfg.isa = Isa::kAvx512;  // would SIGILL if trusted on this "host"
  // The query, and the build-only Query::Run: each entry sanitizes.
  const QueryResult got = exec::RunScanJoinAggregate(plan, cfg);
  ExpectMatchesReference(got, want, "query");
  exec::Query q;
  const exec::HashBuildOp* build = exec::AddBuildPipeline(q, plan);
  q.Run(cfg);
  EXPECT_EQ(build->build_rows(), got.rows_build);
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
