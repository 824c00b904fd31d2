// Fig. 16: thread scalability of radixsort and the max-partition hash join,
// scalar vs. vector. NOTE (hardware substitution, see DESIGN.md): the paper
// sweeps 1..244 hardware threads on a 61-core Xeon Phi; the measured host
// has 4 vCPUs, so 1, 2 and 4 threads can scale in wall-clock time, while 8
// exercises the parallel code paths (interleaved prefix sums, barriers,
// cleanup protocol) under oversubscription. Rates are per wall second
// (UseRealTime): a rate over the main thread's CPU time would count none
// of the workers'.

#include <cstring>

#include "bench/bench_common.h"
#include "join/hash_join.h"
#include "sort/radix_sort.h"

namespace simddb::bench {
namespace {

constexpr size_t kSortTuples = size_t{1} << 22;
constexpr size_t kJoinTuples = size_t{1} << 21;

void BM_SortScalability(benchmark::State& state) {
  const bool vec = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  if (vec && !RequireIsa(state, Isa::kAvx512)) return;
  const auto& cols = KeyPayColumns::Get(kSortTuples, 0, 0xFFFFFFFFu, 1);
  AlignedBuffer<uint32_t> keys(kSortTuples + 16), pays(kSortTuples + 16);
  AlignedBuffer<uint32_t> sk(kSortTuples + 16), sp(kSortTuples + 16);
  RadixSortConfig cfg;
  cfg.isa = vec ? Isa::kAvx512 : Isa::kScalar;
  cfg.threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    std::memcpy(keys.data(), cols.keys.data(),
                kSortTuples * sizeof(uint32_t));
    std::memcpy(pays.data(), cols.pays.data(),
                kSortTuples * sizeof(uint32_t));
    state.ResumeTiming();
    RadixSortPairs(keys.data(), pays.data(), sk.data(), sp.data(),
                   kSortTuples, cfg);
    benchmark::DoNotOptimize(keys.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kSortTuples));
  state.SetLabel(std::string("radixsort_") + (vec ? "vector" : "scalar") +
                 "_t" + std::to_string(threads));
}

void BM_JoinScalability(benchmark::State& state) {
  const bool vec = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  if (vec && !RequireIsa(state, Isa::kAvx512)) return;
  static AlignedBuffer<uint32_t>* r_keys = nullptr;
  static AlignedBuffer<uint32_t>* r_pays = nullptr;
  static AlignedBuffer<uint32_t>* s_keys = nullptr;
  static AlignedBuffer<uint32_t>* s_pays = nullptr;
  if (r_keys == nullptr) {
    r_keys = new AlignedBuffer<uint32_t>(kJoinTuples + 16);
    r_pays = new AlignedBuffer<uint32_t>(kJoinTuples + 16);
    s_keys = new AlignedBuffer<uint32_t>(kJoinTuples + 16);
    s_pays = new AlignedBuffer<uint32_t>(kJoinTuples + 16);
    FillUniqueShuffled(r_keys->data(), kJoinTuples, 1);
    FillSequential(r_pays->data(), kJoinTuples, 0);
    FillProbeKeys(s_keys->data(), kJoinTuples, r_keys->data(), kJoinTuples,
                  1.0, 2);
    FillSequential(s_pays->data(), kJoinTuples, 0);
  }
  JoinRelation r{r_keys->data(), r_pays->data(), kJoinTuples};
  JoinRelation s{s_keys->data(), s_pays->data(), kJoinTuples};
  JoinConfig cfg;
  cfg.isa = vec ? Isa::kAvx512 : Isa::kScalar;
  cfg.threads = threads;
  AlignedBuffer<uint32_t> ok(kJoinTuples + 16), orp(kJoinTuples + 16),
      osp(kJoinTuples + 16);
  size_t matches = 0;
  for (auto _ : state) {
    matches = HashJoinMaxPartition(r, s, cfg, ok.data(), orp.data(),
                                   osp.data());
    benchmark::DoNotOptimize(matches);
  }
  SetTuplesPerSecond(state, static_cast<double>(2 * kJoinTuples));
  state.SetLabel(std::string("hashjoin_") + (vec ? "vector" : "scalar") +
                 "_t" + std::to_string(threads));
}

BENCHMARK(BM_SortScalability)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinScalability)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
