// Extension benchmark: NUMA placement sweep. One buffered partition pass
// (1M tuples, fanout 256 — the radixsort/join inner loop) under the two
// memory placements of numa/placement.h, both with the pool's hierarchical
// stealing (a dry lane crosses nodes only once its own node is dry):
//
//   interleaved -> pages round-robin across nodes (the neutral baseline:
//                  uniform bandwidth).
//   node_local  -> output pages first-touched by the lane block that writes
//                  them.
//
// Rows carry the obs counters (steals_local / steals_remote /
// pages_first_touched) via --metrics, which scripts/check_bench_ranges.py
// gates on. On a single-node host both placements are no-ops and the two
// variants should tie; run under SIMDDB_NUMA_FAKE=2x4 to exercise the
// multi-node steal rings and touch loops (CI does), or on a real
// multi-node box to measure the actual bandwidth split. Outputs are
// byte-identical across placements by construction (the layout depends
// only on the morsel grid); numa_test asserts that, this binary measures
// the cost.

#include <string>

#include "bench/bench_common.h"
#include "numa/placement.h"
#include "numa/topology.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/shuffle.h"

namespace simddb::bench {
namespace {

constexpr size_t kTuples = size_t{1} << 20;  // 1M tuples per invocation
constexpr uint32_t kFanout = 256;

void BM_NumaPartition(benchmark::State& state) {
  const bool node_local = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  // The subject is placement, not the kernel: best available backend.
  const Isa isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512 : Isa::kScalar;
  const numa::NumaTopology& topo = numa::Topology();
  const auto& cols = KeyPayColumns::Get(kTuples, 0, 0xFFFFFFFFu, 7);
  PartitionFn fn = PartitionFn::Hash(kFanout);
  AlignedBuffer<uint32_t> out_k(ShuffleCapacity(kTuples)),
      out_p(ShuffleCapacity(kTuples));
  const numa::Placement placement = node_local
                                        ? numa::Placement::kNodeLocal
                                        : numa::Placement::kInterleaved;
  // Place the output (and re-place the inputs, value-preserving) before the
  // timed loop; the pages_first_touched counter still lands in this case's
  // row because counter deltas span everything since the previous case.
  numa::PlaceBuffer(out_k.data(), out_k.size() * sizeof(uint32_t), threads,
                    placement);
  numa::PlaceBuffer(out_p.data(), out_p.size() * sizeof(uint32_t), threads,
                    placement);
  numa::PlaceBuffer(const_cast<uint32_t*>(cols.keys.data()),
                    kTuples * sizeof(uint32_t), threads, placement);
  numa::PlaceBuffer(const_cast<uint32_t*>(cols.pays.data()),
                    kTuples * sizeof(uint32_t), threads, placement);
  ParallelPartitionResources res;
  for (auto _ : state) {
    ParallelPartitionPass(fn, cols.keys.data(), cols.pays.data(), kTuples,
                          out_k.data(), out_p.data(), isa, threads, &res,
                          nullptr);
    benchmark::DoNotOptimize(out_k.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kTuples));
  state.SetLabel(std::string(node_local ? "numa_node_local"
                                        : "numa_interleaved") +
                 " nodes=" + std::to_string(topo.node_count()) +
                 " threads=" + std::to_string(threads) +
                 " isa=" + IsaName(isa) +
                 " fake=" + (topo.fake ? "1" : "0"));
}

// {placement (0=interleaved, 1=node_local), threads}. Fixed iterations so
// the steal-counter totals are comparable across variants; wall-clock
// timed since the work is multi-thread.
BENCHMARK(BM_NumaPartition)
    ->ArgsProduct({{0, 1}, {1, 2, 8}})
    ->Iterations(200)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
