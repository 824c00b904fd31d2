// Extension benchmark: skew sensitivity. The paper's evaluation uses
// uniform data and notes (§10) that "joins, partitioning, and sorting are
// faster under skew [5, 26]" without measuring it; this binary checks that
// claim for this implementation with Zipf-distributed keys at several
// skew factors, for the radix histogram, buffered shuffle, and the
// max-partition join.

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "join/hash_join.h"
#include "partition/histogram.h"
#include "partition/parallel_partition.h"
#include "partition/shuffle.h"

namespace simddb::bench {
namespace {

constexpr size_t kTuples = size_t{1} << 22;

const AlignedBuffer<uint32_t>& SkewedKeys(int theta_x100) {
  static auto* cache =
      new std::map<int, std::unique_ptr<AlignedBuffer<uint32_t>>>();
  auto it = cache->find(theta_x100);
  if (it == cache->end()) {
    auto keys = std::make_unique<AlignedBuffer<uint32_t>>(kTuples + 16);
    if (theta_x100 == 0) {
      FillUniform(keys->data(), kTuples, 1, 1, 1u << 22);
    } else {
      FillZipf(keys->data(), kTuples, 1u << 22, theta_x100 / 100.0, 1);
    }
    it = cache->emplace(theta_x100, std::move(keys)).first;
  }
  return *it->second;
}

void BM_SkewShuffle(benchmark::State& state) {
  const int theta_x100 = static_cast<int>(state.range(0));
  if (!RequireIsa(state, Isa::kAvx512)) return;
  const auto& keys = SkewedKeys(theta_x100);
  const auto& pays = KeyPayColumns::Get(kTuples, 0, 100, 2).pays;
  PartitionFn fn = PartitionFn::Hash(256);
  std::vector<uint32_t> hist(fn.fanout), offsets(fn.fanout);
  HistogramScalar(fn, keys.data(), kTuples, hist.data());
  AlignedBuffer<uint32_t> out_k(kTuples + 16), out_p(kTuples + 16);
  ShuffleBuffers bufs;
  for (auto _ : state) {
    uint32_t sum = 0;
    for (uint32_t p = 0; p < fn.fanout; ++p) {
      offsets[p] = sum;
      sum += hist[p];
    }
    ShuffleVectorBufferedAvx512(fn, keys.data(), pays.data(), kTuples,
                                offsets.data(), out_k.data(), out_p.data(),
                                &bufs);
    benchmark::DoNotOptimize(out_k.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.SetLabel("zipf_theta_x100=" + std::to_string(theta_x100));
}

void BM_SkewHistogram(benchmark::State& state) {
  const int theta_x100 = static_cast<int>(state.range(0));
  if (!RequireIsa(state, Isa::kAvx512)) return;
  const auto& keys = SkewedKeys(theta_x100);
  PartitionFn fn = PartitionFn::Hash(1u << 10);
  AlignedBuffer<uint32_t> hist(fn.fanout);
  HistogramWorkspace ws;
  for (auto _ : state) {
    HistogramReplicatedAvx512(fn, keys.data(), kTuples, hist.data(), &ws);
    benchmark::DoNotOptimize(hist.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.SetLabel("zipf_theta_x100=" + std::to_string(theta_x100));
}

void BM_SkewJoinProbe(benchmark::State& state) {
  // Skew on the probe side only (R stays unique, as in [5]).
  const int theta_x100 = static_cast<int>(state.range(0));
  if (!RequireIsa(state, Isa::kAvx512)) return;
  const size_t r_n = 1u << 20;
  static AlignedBuffer<uint32_t>* r_keys = nullptr;
  static AlignedBuffer<uint32_t>* r_pays = nullptr;
  if (r_keys == nullptr) {
    r_keys = new AlignedBuffer<uint32_t>(r_n + 16);
    r_pays = new AlignedBuffer<uint32_t>(r_n + 16);
    FillUniqueShuffled(r_keys->data(), r_n, 5, 1);
    FillSequential(r_pays->data(), r_n, 0);
  }
  AlignedBuffer<uint32_t> s_keys(kTuples + 16), s_pays(kTuples + 16);
  if (theta_x100 == 0) {
    FillUniform(s_keys.data(), kTuples, 7, 1, static_cast<uint32_t>(r_n));
  } else {
    FillZipf(s_keys.data(), kTuples, r_n, theta_x100 / 100.0, 7);
  }
  FillSequential(s_pays.data(), kTuples, 0);
  JoinRelation r{r_keys->data(), r_pays->data(), r_n};
  JoinRelation s{s_keys.data(), s_pays.data(), kTuples};
  JoinConfig cfg;
  cfg.isa = Isa::kAvx512;
  AlignedBuffer<uint32_t> ok(kTuples + 16), orp(kTuples + 16),
      osp(kTuples + 16);
  size_t matches = 0;
  for (auto _ : state) {
    matches = HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(),
                                   osp.data());
    benchmark::DoNotOptimize(matches);
  }
  SetTuplesPerSecond(state, static_cast<double>(r_n + kTuples));
  state.SetLabel("zipf_theta_x100=" + std::to_string(theta_x100));
}

// Full parallel partition pass at 8 workers on the skewed keys, with
// TaskPool work stealing rebalancing the per-morsel cost skew.
void BM_SkewParallelPartition(benchmark::State& state) {
  const int theta_x100 = static_cast<int>(state.range(0));
  const int threads = 8;
  if (!RequireIsa(state, Isa::kAvx512)) return;
  const auto& keys = SkewedKeys(theta_x100);
  const auto& pays = KeyPayColumns::Get(kTuples, 0, 100, 2).pays;
  PartitionFn fn = PartitionFn::Hash(256);
  AlignedBuffer<uint32_t> out_k(kTuples + 16), out_p(kTuples + 16);
  ParallelPartitionResources res;
  for (auto _ : state) {
    ParallelPartitionPass(fn, keys.data(), pays.data(), kTuples, out_k.data(),
                          out_p.data(), Isa::kAvx512, threads, &res, nullptr);
    benchmark::DoNotOptimize(out_k.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.SetLabel("zipf_theta_x100=" + std::to_string(theta_x100) +
                 " sched=stealing threads=" + std::to_string(threads));
}

BENCHMARK(BM_SkewHistogram)
    ->Arg(0)->Arg(50)->Arg(75)->Arg(99)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkewShuffle)
    ->Arg(0)->Arg(50)->Arg(75)->Arg(99)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkewJoinProbe)
    ->Arg(0)->Arg(50)->Arg(75)->Arg(99)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkewParallelPartition)
    ->Arg(0)->Arg(50)->Arg(75)->Arg(99)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
