// Compression subsystem tests (src/compress/): pack/unpack round-trip
// property sweeps across every bit width x ISA x edge sizes, the
// CompressColumn FOR/delta encoding choices and round trips on sorted /
// Zipf / clustered data, the FOR-domain block classification, and the
// scan-over-compressed acceptance bar — a Q3 plan over compressed base
// tables is byte-identical to the raw-column plan while the zone map
// actually skips blocks (observed via blocks_skipped / blocks_all_pass /
// bytes_unpacked).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "compress/column.h"
#include "compress/pack.h"
#include "core/isa.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/rng.h"

namespace simddb {
namespace {

using compress::BitsFor;
using compress::BlockClass;
using compress::BlockEncoding;
using compress::BlockMeta;
using compress::ClassifyBlock;
using compress::CompressColumn;
using compress::CompressedColumn;
using compress::kBlockTuples;
using compress::PackedCapacity;
using compress::PackedWords;
using compress::PackedWordsCapacity;
using exec::ExecConfig;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaSupported(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

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
// Pack/unpack kernels
// ---------------------------------------------------------------------------

TEST(CompressPackTest, BitsForBoundaries) {
  EXPECT_EQ(BitsFor(0), 0u);
  EXPECT_EQ(BitsFor(1), 1u);
  EXPECT_EQ(BitsFor(2), 2u);
  EXPECT_EQ(BitsFor(3), 2u);
  EXPECT_EQ(BitsFor(255), 8u);
  EXPECT_EQ(BitsFor(256), 9u);
  EXPECT_EQ(BitsFor(0x7FFFFFFFu), 31u);
  EXPECT_EQ(BitsFor(0x80000000u), 32u);
  EXPECT_EQ(BitsFor(0xFFFFFFFFu), 32u);
}

class CompressPackIsaTest : public ::testing::TestWithParam<Isa> {};

TEST_P(CompressPackIsaTest, RoundTripSweepAllWidths) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(2024);
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1024},
                   size_t{100'003}}) {
    for (unsigned bits = 0; bits <= 32; ++bits) {
      const uint32_t mask =
          bits == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << bits) - 1);
      // References exercise the FOR bias including unsigned wrap-adjacent
      // values (ref + v can reach UINT32_MAX at full width).
      const uint32_t ref = bits == 32 ? 0 : (rng.Next() & ~mask);
      std::vector<uint32_t> in(std::max<size_t>(n, 1));
      for (size_t i = 0; i < n; ++i) in[i] = ref + (rng.Next() & mask);
      // Pin the extremes so every width is actually exercised.
      if (n >= 2) {
        in[0] = ref;
        in[1] = ref + mask;
      }
      AlignedBuffer<uint32_t> packed(PackedWordsCapacity(n, bits));
      packed.Clear();
      compress::PackBlock(in.data(), n, ref, bits, packed.data());
      AlignedBuffer<uint32_t> out(PackedCapacity(n));
      compress::UnpackBlock(isa, packed.data(), n, ref, bits, out.data(),
                            out.size());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], in[i])
            << "bits=" << bits << " n=" << n << " @" << i;
      }
    }
  }
}

TEST_P(CompressPackIsaTest, MatchesScalarUnpack) {
  const Isa isa = GetParam();
  if (!IsaSupported(isa)) GTEST_SKIP();
  Pcg32 rng(7);
  const size_t n = 4097;
  for (unsigned bits : {1u, 5u, 13u, 21u, 31u, 32u}) {
    const uint32_t mask =
        bits == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << bits) - 1);
    std::vector<uint32_t> in(n);
    for (size_t i = 0; i < n; ++i) in[i] = rng.Next() & mask;
    AlignedBuffer<uint32_t> packed(PackedWordsCapacity(n, bits));
    packed.Clear();
    compress::PackBlock(in.data(), n, 0, bits, packed.data());
    AlignedBuffer<uint32_t> want(PackedCapacity(n)), got(PackedCapacity(n));
    compress::detail::UnpackScalar(packed.data(), n, 77, bits, want.data());
    compress::UnpackBlock(isa, packed.data(), n, 77, bits, got.data(),
                          got.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "bits=" << bits << " @" << i;
    }
    // The delta decode, whose running sum wraps modulo 2^32 at wide widths.
    compress::UnpackDeltaBlock(Isa::kScalar, packed.data(), n, 77, bits,
                               want.data(), want.size());
    compress::UnpackDeltaBlock(isa, packed.data(), n, 77, bits, got.data(),
                               got.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "delta bits=" << bits << " @" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, CompressPackIsaTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const auto& info) {
                           return std::string(IsaName(info.param));
                         });

// ---------------------------------------------------------------------------
// CompressColumn / CompressedColumn
// ---------------------------------------------------------------------------

void ExpectColumnRoundTrips(const uint32_t* in, size_t n,
                            const CompressedColumn& col,
                            const std::string& label) {
  ASSERT_EQ(col.size(), n) << label;
  AlignedBuffer<uint32_t> out(PackedCapacity(kBlockTuples));
  for (Isa isa : SupportedIsas()) {
    for (size_t b = 0; b < col.num_blocks(); ++b) {
      const size_t rows = col.block_rows(b);
      col.DecodeBlock(isa, b, out.data(), out.size());
      for (size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(out[i], in[b * kBlockTuples + i])
            << label << " isa=" << IsaName(isa) << " block=" << b << " @"
            << i;
      }
    }
  }
}

TEST(CompressColumnTest, SortedDataUsesDeltaAndRoundTrips) {
  const size_t n = 10'000;
  AlignedBuffer<uint32_t> in(n);
  FillSequential(in.data(), n, 12'345);
  const CompressedColumn col = CompressColumn(in.data(), n);
  ExpectColumnRoundTrips(in.data(), n, col, "sequential");
  // A dense ramp has delta 1 everywhere: 1-bit delta blocks, far narrower
  // than the 10-bit FOR frame of a 1024-value span.
  for (size_t b = 0; b < col.num_blocks(); ++b) {
    EXPECT_EQ(col.block_meta(b).encoding, BlockEncoding::kDeltaFor)
        << "block " << b;
    EXPECT_EQ(col.block_meta(b).bits, 1) << "block " << b;
  }
  EXPECT_GE(col.raw_bytes(), 16 * col.packed_bytes())
      << "ramp should pack ~32x";

  // Every delta width 1..31, at lengths that leave a full or short last
  // block (10,000 = 9 blocks + 784; 3 blocks + 1, 17 or 33 rows): each
  // decode crosses 16-lane vectors (the running-sum carry) and ends in a
  // partial 32-value group (the masked tail loads). Each block is
  // non-decreasing from its own base — no column of several blocks could
  // climb by 2^30 in each — with one delta of 2^w - 1 and the others
  // below 2^min(w, 20), so the range needs more than w bits and delta
  // coding wins at exactly w bits. A one-row block has no delta and stays
  // FOR at width 0.
  for (size_t len : {size_t{10'000}, size_t{3 * 1024 + 1},
                     size_t{3 * 1024 + 17}, size_t{3 * 1024 + 33}}) {
    for (unsigned w = 1; w <= 31; ++w) {
      Pcg32 rng(1000 * len + w);
      std::vector<uint32_t> v(len);
      for (size_t base = 0; base < len; base += kBlockTuples) {
        const size_t rows = std::min(kBlockTuples, len - base);
        const size_t wide = 1 + rng.NextBounded(
                                    static_cast<uint32_t>(rows > 1 ? rows - 1
                                                                   : 1));
        v[base] = rng.NextBounded(1000);
        for (size_t i = 1; i < rows; ++i) {
          const uint32_t delta =
              i == wide ? static_cast<uint32_t>((uint64_t{1} << w) - 1)
                        : rng.NextBounded(uint32_t{1} << std::min(w, 20u));
          v[base + i] = v[base + i - 1] + delta;
        }
      }
      const std::string label =
          "len=" + std::to_string(len) + " w=" + std::to_string(w);
      const CompressedColumn sorted = CompressColumn(v.data(), len);
      for (size_t b = 0; b < sorted.num_blocks(); ++b) {
        const bool one_row = sorted.block_rows(b) == 1;
        ASSERT_EQ(sorted.block_meta(b).encoding,
                  one_row ? BlockEncoding::kFor : BlockEncoding::kDeltaFor)
            << label << " block " << b;
        ASSERT_EQ(sorted.block_meta(b).bits, one_row ? 0u : w)
            << label << " block " << b;
      }
      ExpectColumnRoundTrips(v.data(), len, sorted, label);
    }
  }
}

TEST(CompressColumnTest, ClusteredDataReachesFourXFootprint) {
  // Clustered values: each block's range is narrow even though absolute
  // magnitudes span the full 32-bit domain — the FOR case.
  const size_t n = 50'000;
  AlignedBuffer<uint32_t> in(n);
  Pcg32 rng(3);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t base =
        static_cast<uint32_t>((i / kBlockTuples) * 7'654'321u);
    in[i] = base + rng.NextBounded(100);  // 7-bit in-block range
  }
  const CompressedColumn col = CompressColumn(in.data(), n);
  ExpectColumnRoundTrips(in.data(), n, col, "clustered");
  EXPECT_GE(col.raw_bytes(), 4 * col.packed_bytes());
}

TEST(CompressColumnTest, ZipfAndUniformRoundTrip) {
  const size_t n = 30'000;
  AlignedBuffer<uint32_t> in(n);
  FillZipf(in.data(), n, 1'000'000, 1.05, 17);
  ExpectColumnRoundTrips(in.data(), n, CompressColumn(in.data(), n), "zipf");
  FillUniform(in.data(), n, 23, 0, 0xFFFFFFFFu);
  ExpectColumnRoundTrips(in.data(), n, CompressColumn(in.data(), n),
                         "uniform-full-width");
}

TEST(CompressColumnTest, EdgeSizesAndConstantBlocks) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1023}, size_t{1024},
                   size_t{1025}}) {
    std::vector<uint32_t> in(std::max<size_t>(n, 1), 42);
    const CompressedColumn col = CompressColumn(in.data(), n);
    ExpectColumnRoundTrips(in.data(), n, col,
                           "constant n=" + std::to_string(n));
    if (n > 0) {
      // All-equal blocks carry zero payload words (bits == 0).
      EXPECT_EQ(col.block_meta(0).bits, 0);
    }
  }
}

TEST(CompressClassifyTest, ForDomainPushdown) {
  BlockMeta m;
  m.reference = 1000;
  m.min = 1000;
  m.max = 1999;
  // Entirely below / above the frame.
  EXPECT_EQ(ClassifyBlock(m, 0, 999), BlockClass::kSkip);
  EXPECT_EQ(ClassifyBlock(m, 2000, 5000), BlockClass::kSkip);
  // Covering the frame (boundaries inclusive).
  EXPECT_EQ(ClassifyBlock(m, 1000, 1999), BlockClass::kAllPass);
  EXPECT_EQ(ClassifyBlock(m, 0, 0xFFFFFFFFu), BlockClass::kAllPass);
  // Straddling either edge.
  EXPECT_EQ(ClassifyBlock(m, 0, 1000), BlockClass::kMixed);
  EXPECT_EQ(ClassifyBlock(m, 1999, 2100), BlockClass::kMixed);
  EXPECT_EQ(ClassifyBlock(m, 1500, 1600), BlockClass::kMixed);
}

// ---------------------------------------------------------------------------
// Scan-over-compressed: plan identity + skip protocol
// ---------------------------------------------------------------------------

struct CompressedQueryData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  CompressedColumn r_keys_c, r_attrs_c, s_fks_c, s_vals_c;
  size_t n_r, n_s;

  CompressedQueryData(size_t nr, size_t ns, bool clustered_vals)
      : n_r(nr), n_s(ns) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    FillSequential(r_keys.data(), nr, 1);
    FillUniform(r_attrs.data(), nr, 5, 1, 64);
    FillUniform(s_fks.data(), ns, 6, 1,
                nr == 0 ? 1 : static_cast<uint32_t>(nr));
    if (clustered_vals) {
      // Non-decreasing ramp over the value domain: block zone maps are
      // tight, so a selective predicate skips almost every block.
      for (size_t i = 0; i < ns; ++i) {
        s_vals[i] = static_cast<uint32_t>(uint64_t{1'000'000} * i /
                                          (ns == 0 ? 1 : ns));
      }
    } else {
      FillUniform(s_vals.data(), ns, 7, 0, 999'999);
    }
    r_keys_c = CompressColumn(r_keys.data(), nr);
    r_attrs_c = CompressColumn(r_attrs.data(), nr);
    s_fks_c = CompressColumn(s_fks.data(), ns);
    s_vals_c = CompressColumn(s_vals.data(), ns);
  }

  ScanJoinAggregatePlan RawPlan() const {
    ScanJoinAggregatePlan p;
    p.r_keys = r_keys.data();
    p.r_attrs = r_attrs.data();
    p.n_r = n_r;
    p.r_lo = 1;
    p.r_hi = n_r == 0 ? 1 : static_cast<uint32_t>((3 * n_r) / 4);
    p.s_fks = s_fks.data();
    p.s_vals = s_vals.data();
    p.n_s = n_s;
    p.s_lo = 0;
    p.s_hi = 99'999;  // ~10% of S
    return p;
  }

  ScanJoinAggregatePlan CompressedPlan() const {
    ScanJoinAggregatePlan p = RawPlan();
    p.r_keys_c = &r_keys_c;
    p.r_attrs_c = &r_attrs_c;
    p.s_fks_c = &s_fks_c;
    p.s_vals_c = &s_vals_c;
    return p;
  }
};

void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.group_keys, b.group_keys) << label;
  EXPECT_EQ(a.sums, b.sums) << label;
  EXPECT_EQ(a.counts, b.counts) << label;
  EXPECT_EQ(a.mins, b.mins) << label;
  EXPECT_EQ(a.maxs, b.maxs) << label;
  EXPECT_EQ(a.rows_build, b.rows_build) << label;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << label;
  EXPECT_EQ(a.rows_joined, b.rows_joined) << label;
}

TEST(CompressScanTest, CompressedPlanIdenticalToRaw) {
  for (bool clustered : {false, true}) {
    CompressedQueryData d(4096, 60'000, clustered);
    const ScanJoinAggregatePlan raw = d.RawPlan();
    const ScanJoinAggregatePlan comp = d.CompressedPlan();
    for (Isa isa : SupportedIsas()) {
      for (int threads : {1, 8}) {
        // Sub-block grids exercise the decoded-block cache and chunks that
        // span kept blocks far apart; 1024 puts one kept block per chunk.
        for (size_t chunk : {size_t{1}, size_t{257}, size_t{1024}}) {
          ExecConfig cfg;
          cfg.isa = isa;
          cfg.threads = threads;
          cfg.chunk_tuples = chunk;
          const QueryResult want = exec::RunScanJoinAggregate(raw, cfg);
          const QueryResult got = exec::RunScanJoinAggregate(comp, cfg);
          ExpectIdentical(
              got, want,
              std::string(IsaName(isa)) + " t=" + std::to_string(threads) +
                  " c=" + std::to_string(chunk) +
                  (clustered ? " clustered" : " uniform"));
        }
      }
    }
  }
}

TEST(CompressScanTest, ZoneMapSkipsBlocksOnClusteredInput) {
  // Ramp values with a ~10% predicate: ~90% of the S value blocks fall
  // entirely outside [lo, hi] and must be skipped without decoding.
  CompressedQueryData d(1024, 100'000, /*clustered_vals=*/true);
  const ScanJoinAggregatePlan plan = d.CompressedPlan();
  ScopedMetrics metrics;
  ExecConfig cfg;
  cfg.isa = SupportedIsas().back();
  (void)exec::RunScanJoinAggregate(plan, cfg);
  const uint64_t skipped = Metric("blocks_skipped");
  const uint64_t all_pass = Metric("blocks_all_pass");
  const uint64_t unpacked = Metric("bytes_unpacked");
  // 98 value blocks: ~10 in range (all-pass or mixed), the rest skipped.
  EXPECT_GE(skipped, 80u);
  EXPECT_GE(all_pass, 5u);
  EXPECT_GT(unpacked, 0u);
  // Decoded bytes must stay well under the raw footprint of both S
  // columns — the point of skipping.
  EXPECT_LT(unpacked, d.s_fks_c.raw_bytes()) << "skip saved nothing";
}

}  // namespace
}  // namespace simddb
