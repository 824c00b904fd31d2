#ifndef SIMDDB_PARTITION_PARALLEL_PARTITION_H_
#define SIMDDB_PARTITION_PARALLEL_PARTITION_H_

// One parallel, stable, buffered partitioning pass (§7.4 + §8): the input is
// decomposed into a fixed grid of 16K-tuple morsels, each morsel is
// histogrammed into its own row, a cross-morsel interleaved prefix sum
// assigns disjoint output sub-ranges (morsel order preserved within every
// partition, so the pass is globally stable), workers claim morsels from
// work-stealing deques to run the buffered shuffle, and after a barrier the
// buffered tails are flushed (App. F). Because the output layout depends
// only on the morsel grid — not on which worker ran which morsel — the
// result is byte-identical across thread counts and runs. Used by LSB
// radixsort and by the partitioning phases of the hash joins.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/isa.h"
#include "partition/histogram.h"
#include "partition/partition_fn.h"
#include "partition/plan.h"
#include "partition/shuffle.h"
#include "partition/swwc.h"
#include "util/aligned_buffer.h"

namespace simddb {

/// Reusable scratch for ParallelPartitionPass: shuffle (or SWWC staging)
/// buffers and a histogram row per *morsel*, histogram workspaces per
/// worker lane. Only the buffer family the pass's variant needs is
/// populated.
struct ParallelPartitionResources {
  std::vector<ShuffleBuffers> bufs;        ///< one per morsel (buffered-16)
  std::vector<SwwcBuffers> wc_bufs;        ///< one per morsel (SWWC)
  std::vector<HistogramWorkspace> hist_ws; ///< one per worker lane
  AlignedBuffer<uint32_t> hists;           ///< morsels x fanout

  void Reserve(size_t morsels, int lanes, uint32_t fanout) {
    if (bufs.size() < morsels) bufs.resize(morsels);
    if (hist_ws.size() < static_cast<size_t>(lanes)) hist_ws.resize(lanes);
    if (hists.size() < morsels * fanout) {
      hists.Reset(morsels * fanout);
    }
  }

  void ReserveSwwc(size_t morsels, int lanes, uint32_t fanout) {
    if (wc_bufs.size() < morsels) wc_bufs.resize(morsels);
    if (hist_ws.size() < static_cast<size_t>(lanes)) hist_ws.resize(lanes);
    if (hists.size() < morsels * fanout) {
      hists.Reset(morsels * fanout);
    }
  }
};

/// Partitions (keys[, pays]) of size n into (out_keys[, out_pays]); pays and
/// out_pays may be null for a key-only pass. Output arrays need capacity
/// ShuffleCapacity(n) (streaming flush overshoot; see shuffle.h). If
/// `starts` is non-null it receives fanout+1 entries: global begin offset of
/// each partition plus n. `variant` picks the shuffle kernel; kAuto resolves
/// via ChooseShuffleVariant(fn.fanout, PartitionBudget::Default()), which
/// keeps buffered-16 for every fanout within the default TLB/L1 budget.
/// `out_capacity`, when nonzero, is asserted to satisfy the
/// ShuffleCapacity(n) contract at entry. Within the buffered-16 family the
/// AVX-512 fill is used only up to kB16VectorMaxFanout
/// (UseVectorBuffered16; the scalar fill wins beyond — byte-identical
/// either way). Output buffers belong to the caller.
void ParallelPartitionPass(const PartitionFn& fn, const uint32_t* keys,
                           const uint32_t* pays, size_t n, uint32_t* out_keys,
                           uint32_t* out_pays, Isa isa, int threads,
                           ParallelPartitionResources* res, uint32_t* starts,
                           ShuffleVariant variant = ShuffleVariant::kAuto,
                           size_t out_capacity = 0);

}  // namespace simddb

#endif  // SIMDDB_PARTITION_PARALLEL_PARTITION_H_
