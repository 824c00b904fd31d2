// Self-test of the load generator's arithmetic and result checker
// (stats.h). Exits 0 when every check holds; prints each failure and exits
// 1 otherwise. Built and run by run.py before every measurement, and
// registered with ctest in the benchmark's own build tree.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void TestPercentile() {
  using wirebench::TailPercentile;
  // n = 100: p90 is rank 90 with exactly 10 samples beyond it.
  auto p90 = TailPercentile(Iota(100), 0.9);
  Check(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");
  // n = 99: rank ceil(89.1) = 90 leaves 9 beyond — refused.
  Check(!TailPercentile(Iota(99), 0.9).has_value(),
        "p90 refuses a tail of 9 samples");
  Check(!TailPercentile(Iota(19), 0.5).has_value(),
        "p50 refuses a tail of 9 samples");
  auto p50 = TailPercentile(Iota(20), 0.5);
  Check(p50.has_value() && *p50 == 10.0, "p50 of 1..20 is 10");
  Check(!TailPercentile({}, 0.5).has_value(), "no samples, no percentile");
  Check(!TailPercentile(Iota(1000), 1.0).has_value(), "p100 has no tail");
  Check(wirebench::Median({}) == 0.0, "median of nothing is 0");
  Check(wirebench::Median({3, 1, 2}) == 2.0, "median of 3 samples");
}

void TestZeroDenominators() {
  using namespace wirebench;
  const std::vector<CpuReading> cpu = {{0, 0}, {1'000'000'000, 5'000'000}};
  const BlockRates none = MedianBlockRates({}, 0, cpu, 10);
  Check(none.qps == 0.0 && none.cpu_ms_per_query == 0.0 && none.blocks == 0,
        "qps and cpu per query with 0 queries");
  Check(MedianBlockRates({500'000'000}, 0, cpu, 0).blocks == 0,
        "no blocks, no rates");
  Check(MedianBlockRates({500'000'000}, 0, {}, 10).cpu_ms_per_query == 0.0,
        "cpu per query without CPU readings");
  const BlockRates two = MedianBlockRates({1'000'000'000, 1'000'000'000}, 0, cpu, 1);
  Check(two.qps == 2.0 && two.cpu_ms_per_query == 2.5,
        "cpu per query 5 ms / 2 over 1 s");
  Check(ResidualMs({}) == 0.0, "residual with no samples");
  std::vector<QuerySample> s = {{3'000'000, 1'000'000, 500'000},
                                {4'000'000, 1'000'000, 500'000}};
  Check(ResidualMs(s) == 2.0, "residual mean of 1.5 and 2.5 ms");
  Check(ResidualMs({{1'000'000, 2'000'000, 0}}) == -1.0,
        "residual keeps its sign");
  // skip_frac = skipped / classified, join_hit_frac = joined / scanned.
  Check(Ratio(7, 0) == 0.0, "skip_frac with no blocks classified");
  Check(Ratio(0, 0) == 0.0, "join_hit_frac with no rows scanned");
  Check(Ratio(3, 4) == 0.75, "ratio 3/4");
  Check(PerQuery(10, 0) == 0.0, "per-query total with 0 queries");
}

void TestBlockRates() {
  using namespace wirebench;
  // CPU runs at 2 ms per 10 ms of wall time; readings every 10 ms.
  std::vector<CpuReading> cpu;
  for (uint64_t t = 0; t <= 200; t += 10) cpu.push_back({t * 1'000'000, t * 200'000});
  Check(CpuAt(cpu, 15'000'000) == 3'000'000.0, "cpu interpolated between readings");
  Check(CpuAt(cpu, 500'000'000) == 40'000'000.0, "cpu clamped past the last reading");

  // 20 completions, one every 10 ms: 5 blocks of 4 queries, 40 ms each.
  std::vector<uint64_t> done;
  for (uint64_t k = 20; k >= 1; --k) done.push_back(k * 10'000'000);  // unsorted
  BlockRates r = MedianBlockRates(done, 0, cpu, 5);
  Check(r.blocks == 5 && r.queries_per_block == 4, "5 blocks of 4 queries");
  Check(std::abs(r.qps - 100.0) < 1e-9, "steady phase runs at 100 qps");
  Check(std::abs(r.cpu_ms_per_query - 2.0) < 1e-9, "steady phase costs 2 ms per query");

  // A stall delays the 8th completion: one block slows, the median holds.
  for (uint64_t& t : done) {
    if (t == 80'000'000) t = 85'000'000;
  }
  r = MedianBlockRates(done, 0, cpu, 5);
  Check(std::abs(r.qps - 100.0) < 1e-9, "median block rate ignores one slow block");

  // Fewer completions than blocks: one query per block.
  r = MedianBlockRates({10'000'000, 30'000'000, 40'000'000}, 0, cpu, 8);
  Check(r.blocks == 3 && r.queries_per_block == 1, "one query per block");
  Check(std::abs(r.qps - 100.0) < 1e-9, "median of 100, 50 and 100 qps");
}

void TestChecker() {
  using namespace wirebench;
  // R: keys 1..4, attrs {10, 20, 10, 30}; S joins every key.
  const uint32_t r_keys[] = {3, 1, 4, 2};
  const uint32_t r_attrs[] = {10, 10, 30, 20};
  const uint32_t s_fks[] = {1, 2, 3, 4, 1, 5, 2};
  const uint32_t s_vals[] = {5, 6, 7, 8, 9, 100, 1};
  RefQuery q;
  q.r_lo = 1;
  q.r_hi = 3;   // drops key 4 (attr 30)
  q.s_hi = 50;  // drops val 100
  std::vector<RefRow> want =
      ReferenceResult(r_keys, r_attrs, 4, 4, s_fks, s_vals, 7, q);
  Check(want.size() == 2, "reference has 2 groups");
  if (want.size() == 2) {
    Check(want[0].key == 10 && want[0].sum == 21 && want[0].count == 3 &&
              want[0].min == 5 && want[0].max == 9,
          "group 10 = vals {5, 7, 9}");
    Check(want[1].key == 20 && want[1].sum == 7 && want[1].count == 2 &&
              want[1].min == 1 && want[1].max == 6,
          "group 20 = vals {6, 1}");
  }

  std::vector<simddb::net::WireRow> got;
  for (const RefRow& r : want) got.push_back({r.key, r.sum, r.count, r.min, r.max});
  Check(CheckRows(got, got.size(), want).empty(), "identical rows pass");
  Check(!CheckRows(got, got.size() + 1, want).empty(),
        "trailer rows= mismatch is flagged");

  // Corrupt one field of one row at a time: each must be flagged.
  for (int field = 0; field < 5; ++field) {
    std::vector<simddb::net::WireRow> bad = got;
    simddb::net::WireRow& row = bad[1];
    switch (field) {
      case 0: row.key += 1; break;
      case 1: row.sum += 1; break;
      case 2: row.count += 1; break;
      case 3: row.min -= 1; break;
      case 4: row.max += 1; break;
    }
    Check(!CheckRows(bad, bad.size(), want).empty(),
          "a single corrupted ROW field is flagged");
  }
  std::vector<simddb::net::WireRow> missing(got.begin(), got.begin() + 1);
  Check(!CheckRows(missing, missing.size(), want).empty(),
        "a missing ROW is flagged");
}

}  // namespace

int main() {
  TestPercentile();
  TestZeroDenominators();
  TestBlockRates();
  TestChecker();
  if (g_failures != 0) {
    std::printf("wirebench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("wirebench selftest: ok\n");
  return 0;
}
