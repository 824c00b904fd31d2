// Extension benchmark (beyond the paper's figures): group-by aggregation
// throughput across group cardinalities (L1-resident groups to
// cache-straining) — the paper's §5 second hash-table use, in the spirit of
// [25].
//
//   BM_GroupBy          hash table, scalar vs. vertically vectorized
//                       accumulate, over 4M tuples in one call.
//   BM_GroupByDirect    the same keys folded into direct-indexed arrays
//                       (DirectGroupBy, scalar on every ISA), for the
//                       domains the executor aggregates that way.
//   BM_GroupByPerQuery  one executor query's whole group-by: allocate the
//                       partial, fold 1,024-row batches, extract the groups
//                       in ascending key order. Rows at 1K and 1M tuples
//                       and 4,096 and 16,384 key values time the choice
//                       exec::GroupByState makes at kMaxDirectKeys.

#include <algorithm>
#include <numeric>
#include <vector>

#include "agg/group_by.h"
#include "bench/bench_common.h"

namespace simddb::bench {
namespace {

constexpr size_t kTuples = size_t{1} << 22;

/// kTuples keys over {1..n_groups}, each repeated ~kTuples/n_groups times.
const uint32_t* RepeatedKeys(size_t n_groups) {
  static auto* cache =
      new std::map<size_t, std::unique_ptr<AlignedBuffer<uint32_t>>>();
  auto it = cache->find(n_groups);
  if (it == cache->end()) {
    auto keys = std::make_unique<AlignedBuffer<uint32_t>>(kTuples + 16);
    FillWithRepeats(keys->data(), kTuples, n_groups, 1);
    it = cache->emplace(n_groups, std::move(keys)).first;
  }
  return it->second->data();
}

void BM_GroupBy(benchmark::State& state) {
  const auto isa = static_cast<Isa>(state.range(0));
  const size_t n_groups = static_cast<size_t>(state.range(1));
  if (!RequireIsa(state, isa)) return;
  const uint32_t* keys = RepeatedKeys(n_groups);
  const auto& vals = KeyPayColumns::Get(kTuples, 0, 1'000'000, 2);
  GroupByAggregator agg(n_groups + 16);
  for (auto _ : state) {
    agg.Clear();
    agg.Accumulate(isa, keys, vals.keys.data(), kTuples);
    benchmark::DoNotOptimize(agg.num_groups());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.counters["groups"] = static_cast<double>(agg.num_groups());
  state.SetLabel(IsaName(isa));
}

BENCHMARK(BM_GroupBy)
    ->ArgsProduct({{static_cast<int>(Isa::kScalar),
                    static_cast<int>(Isa::kAvx512)},
                   {16, 256, 4096, 65536, 1 << 20}})
    ->Unit(benchmark::kMillisecond);

void BM_GroupByDirect(benchmark::State& state) {
  const size_t n_groups = static_cast<size_t>(state.range(0));
  const uint32_t* keys = RepeatedKeys(n_groups);
  const auto& vals = KeyPayColumns::Get(kTuples, 0, 1'000'000, 2);
  size_t groups = 0;
  for (auto _ : state) {
    DirectGroupBy agg(1, n_groups);
    agg.Accumulate(keys, vals.keys.data(), kTuples);
    groups = agg.num_groups();
    benchmark::DoNotOptimize(groups);
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.counters["groups"] = static_cast<double>(groups);
  state.SetLabel("direct");
}

BENCHMARK(BM_GroupByDirect)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Result rows of one query's group-by, as the executor returns them.
struct GroupRows {
  std::vector<uint32_t> keys, counts, mins, maxs;
  std::vector<uint64_t> sums;

  void Resize(size_t g) {
    keys.resize(g);
    sums.resize(g);
    counts.resize(g);
    mins.resize(g);
    maxs.resize(g);
  }
};

enum PerQueryLayout : int {
  kLayoutDirect = 0,
  kLayoutHashScalar = 1,
  kLayoutHashAvx512 = 2,
};

constexpr size_t kBatchTuples = 1024;

void DirectQuery(const uint32_t* keys, const uint32_t* vals, size_t n,
                 size_t values, GroupRows* out) {
  DirectGroupBy agg(1, values);
  for (size_t b = 0; b < n; b += kBatchTuples) {
    agg.Accumulate(keys + b, vals + b, std::min(kBatchTuples, n - b));
  }
  out->Resize(agg.num_groups());
  agg.Extract(out->keys.data(), out->sums.data(), out->counts.data(),
              out->mins.data(), out->maxs.data());
}

void HashQuery(Isa isa, const uint32_t* keys, const uint32_t* vals, size_t n,
               GroupRows* out) {
  // GroupByState's hash partial: sized for 1,024 groups, grown on demand,
  // extracted in table order and sorted by key.
  GroupByAggregator agg(1024);
  for (size_t b = 0; b < n; b += kBatchTuples) {
    agg.Accumulate(isa, keys + b, vals + b, std::min(kBatchTuples, n - b));
  }
  const size_t g = agg.num_groups();
  GroupRows table;
  table.Resize(g);
  agg.Extract(isa, table.keys.data(), table.sums.data(), table.counts.data(),
              table.mins.data(), table.maxs.data());
  std::vector<uint32_t> perm(g);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return table.keys[a] < table.keys[b];
  });
  out->Resize(g);
  for (size_t i = 0; i < g; ++i) {
    out->keys[i] = table.keys[perm[i]];
    out->sums[i] = table.sums[perm[i]];
    out->counts[i] = table.counts[perm[i]];
    out->mins[i] = table.mins[perm[i]];
    out->maxs[i] = table.maxs[perm[i]];
  }
}

void BM_GroupByPerQuery(benchmark::State& state) {
  const int layout = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t values = static_cast<size_t>(state.range(2));
  const Isa isa = layout == kLayoutHashAvx512 ? Isa::kAvx512 : Isa::kScalar;
  if (!RequireIsa(state, isa)) return;
  const auto& keys =
      KeyPayColumns::Get(n, 1, static_cast<uint32_t>(values), 3);
  const auto& vals = KeyPayColumns::Get(n, 0, 1'000'000, 4);
  GroupRows rows;
  for (auto _ : state) {
    if (layout == kLayoutDirect) {
      DirectQuery(keys.keys.data(), vals.keys.data(), n, values, &rows);
    } else {
      HashQuery(isa, keys.keys.data(), vals.keys.data(), n, &rows);
    }
    benchmark::DoNotOptimize(rows.keys.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(n));
  state.counters["groups"] = static_cast<double>(rows.keys.size());
  state.SetLabel(layout == kLayoutDirect ? "direct"
                                         : std::string("hash_") +
                                               IsaName(isa));
}

BENCHMARK(BM_GroupByPerQuery)
    ->ArgsProduct({{kLayoutDirect, kLayoutHashScalar, kLayoutHashAvx512},
                   {1 << 10, 1 << 20},
                   {4096, 16384}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
