// Fig. 15: the three hash join variants (no / min / max partition), scalar
// vs. vector, with the per-phase breakdown (partition / build / probe) that
// the paper's stacked bars show, reported as counters in milliseconds.

#include "bench/bench_common.h"
#include "join/hash_join.h"
#include "join/sort_merge_join.h"

namespace simddb::bench {
namespace {

constexpr size_t kR = size_t{1} << 22;
constexpr size_t kS = size_t{1} << 22;

enum Variant { kNoPartition, kMinPartition, kMaxPartition, kSortMerge };

struct Workload {
  AlignedBuffer<uint32_t> r_keys, r_pays, s_keys, s_pays;
  Workload() {
    r_keys.Reset(kR + 16);
    r_pays.Reset(kR + 16);
    s_keys.Reset(kS + 16);
    s_pays.Reset(kS + 16);
    FillUniqueShuffled(r_keys.data(), kR, 1);
    FillSequential(r_pays.data(), kR, 0);
    FillProbeKeys(s_keys.data(), kS, r_keys.data(), kR, 1.0, 2);
    FillSequential(s_pays.data(), kS, 0);
  }
  static Workload& Get() {
    static Workload* w = new Workload();
    return *w;
  }
};

void BM_JoinVariant(benchmark::State& state) {
  const auto variant = static_cast<Variant>(state.range(0));
  const bool vec = state.range(1) != 0;
  if (vec && !RequireIsa(state, Isa::kAvx512)) return;
  Workload& w = Workload::Get();
  JoinRelation r{w.r_keys.data(), w.r_pays.data(), kR};
  JoinRelation s{w.s_keys.data(), w.s_pays.data(), kS};
  JoinConfig cfg;
  cfg.isa = vec ? Isa::kAvx512 : Isa::kScalar;
  // Min-partition's point is thread-private bucket ranges: the partitioned
  // variants run on 4 threads, one per vCPU of the 4-vCPU host.
  cfg.threads = variant == kNoPartition ? 1 : 4;
  AlignedBuffer<uint32_t> ok(kS + 16), orp(kS + 16), osp(kS + 16);
  JoinTimings sum;
  size_t matches = 0;
  int iters = 0;
  for (auto _ : state) {
    JoinTimings t;
    switch (variant) {
      case kNoPartition:
        matches = HashJoinNoPartition(r, s, cfg, ok.data(), orp.data(),
                                      osp.data(), &t);
        break;
      case kMinPartition:
        matches = HashJoinMinPartition(r, s, cfg, ok.data(), orp.data(),
                                       osp.data(), &t);
        break;
      case kMaxPartition:
        matches = HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(),
                                       osp.data(), &t);
        break;
      case kSortMerge:
        // §10.5.1's comparison point: "hash join is faster than sort-merge
        // join, since we sort ... alone".
        matches = SortMergeJoin(r, s, cfg, ok.data(), orp.data(), osp.data(),
                                &t);
        break;
    }
    benchmark::DoNotOptimize(matches);
    sum.partition_s += t.partition_s;
    sum.build_s += t.build_s;
    sum.probe_s += t.probe_s;
    ++iters;
  }
  SetTuplesPerSecond(state, static_cast<double>(kR + kS));
  state.counters["partition_ms"] = 1e3 * sum.partition_s / iters;
  state.counters["build_ms"] = 1e3 * sum.build_s / iters;
  state.counters["probe_ms"] = 1e3 * sum.probe_s / iters;
  state.counters["matches"] = static_cast<double>(matches);
  static const char* kNames[] = {"no_partition", "min_partition",
                                 "max_partition", "sort_merge"};
  state.SetLabel(std::string(kNames[variant]) +
                 (vec ? "_vector" : "_scalar"));
}

// Wall-clock rates: the partitioned variants run on 4 threads, and a rate
// over the main thread's CPU time would count none of the workers'.
BENCHMARK(BM_JoinVariant)
    ->ArgsProduct({{kNoPartition, kMinPartition, kMaxPartition, kSortMerge},
                   {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
