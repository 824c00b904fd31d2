// Extension benchmark: scheduler substrate. The paper's multi-core results
// (Fig. 16) assume the execution layer itself is free; this binary measures
// it. Repeated 1M-tuple partition passes at 1, 2 and 8 workers run on the
// process-lifetime TaskPool (amortized spawn, work-stealing morsels), on
// uniform and on Zipf-clustered (sorted) inputs where per-morsel shuffle
// cost is heavily skewed by conflict serialization.

#include <algorithm>
#include <memory>

#include "bench/bench_common.h"
#include "partition/parallel_partition.h"

namespace simddb::bench {
namespace {

constexpr size_t kTuples = size_t{1} << 20;  // 1M tuples per invocation
constexpr uint32_t kFanout = 256;

// clustered=true sorts Zipf-distributed keys so the hot keys pack into a few
// morsels (maximal vector-lane conflicts there, none elsewhere) — the
// positional cost skew that work stealing rebalances.
const AlignedBuffer<uint32_t>& SchedKeys(bool clustered) {
  static auto* cache =
      new std::map<bool, std::unique_ptr<AlignedBuffer<uint32_t>>>();
  auto it = cache->find(clustered);
  if (it == cache->end()) {
    auto keys = std::make_unique<AlignedBuffer<uint32_t>>(kTuples + 16);
    if (clustered) {
      FillZipf(keys->data(), kTuples, 1u << 20, 0.99, 3);
      std::sort(keys->data(), keys->data() + kTuples);
    } else {
      FillUniform(keys->data(), kTuples, 3, 0, 0xFFFFFFFFu);
    }
    it = cache->emplace(clustered, std::move(keys)).first;
  }
  return *it->second;
}

// Process-lifetime pool, work-stealing morsels.
void BM_PartitionPool(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool clustered = state.range(1) != 0;
  // Scheduler overhead is the subject, not the kernel: run the best
  // available backend so the bench produces rows (and gate metrics) on
  // hosts without AVX-512, and label the ISA that actually ran.
  const Isa isa =
      IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  const auto& keys = SchedKeys(clustered);
  const auto& pays = KeyPayColumns::Get(kTuples, 0, 100, 4).pays;
  PartitionFn fn = PartitionFn::Hash(kFanout);
  AlignedBuffer<uint32_t> out_k(kTuples + 16), out_p(kTuples + 16);
  ParallelPartitionResources res;
  for (auto _ : state) {
    ParallelPartitionPass(fn, keys.data(), pays.data(), kTuples, out_k.data(),
                          out_p.data(), isa, threads, &res, nullptr);
    benchmark::DoNotOptimize(out_k.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.SetLabel(std::string("sched=pool threads=") + std::to_string(threads) +
                 " input=" + (clustered ? "zipf_clustered" : "uniform") +
                 " isa=" + IsaName(isa));
}

// {threads, clustered}: 1000 iterations = the repeated-invocation microbench
// (1000 x 1M-tuple passes); wall-clock timed since the work is multi-thread.
BENCHMARK(BM_PartitionPool)
    ->ArgsProduct({{1, 2, 8}, {0, 1}})
    ->Iterations(1000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
