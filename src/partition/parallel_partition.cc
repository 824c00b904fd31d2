#include "partition/parallel_partition.h"

#include <cassert>

#include "obs/metrics.h"
#include "partition/shuffle_dispatch.h"
#include "util/prefix_sum.h"
#include "util/task_pool.h"

namespace simddb {
namespace {

// One timer per pass phase, matching the paper's Fig. 13 breakdown.
obs::PhaseTimer g_part_hist_ns("part_hist_ns");
obs::PhaseTimer g_part_shuffle_ns("part_shuffle_ns");
obs::PhaseTimer g_part_cleanup_ns("part_cleanup_ns");

}  // namespace

// Morsel-driven schedule: the input is decomposed into a fixed grid of
// kMorselTuples-sized morsels and every morsel gets its own histogram row
// and shuffle buffers. The cross-morsel interleaved prefix sum then assigns
// each (morsel, partition) pair a fixed output subrange — tuples of morsel
// m precede tuples of morsel m+1 within every partition, which keeps the
// pass globally stable AND makes the output byte-identical for every worker
// count and steal schedule (the layout depends only on the morsel grid).
// Workers claim morsels dynamically from the pool's work-stealing deques,
// so skewed per-morsel costs rebalance instead of stalling a static chunk.
void ParallelPartitionPass(const PartitionFn& fn, const uint32_t* keys,
                           const uint32_t* pays, size_t n, uint32_t* out_keys,
                           uint32_t* out_pays, Isa isa, int threads,
                           ParallelPartitionResources* res, uint32_t* starts,
                           ShuffleVariant variant, size_t out_capacity) {
  assert(out_capacity == 0 || out_capacity >= ShuffleCapacity(n));
  (void)out_capacity;
  const int t_count = threads < 1 ? 1 : threads;
  const uint32_t p_count = fn.fanout;
  const bool vec = isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const internal::ShuffleKernel kernel = internal::ChooseShuffleKernel(
      variant, isa, p_count, pays != nullptr, PartitionBudget::Default());
  const bool swwc = kernel.swwc;
  // SWWC passes run at fanouts where a 16K morsel averages only a few
  // tuples per partition — staged lines would never fill and every tuple
  // would fall to the cleanup copy. Grow the morsel so a morsel averages a
  // full line per partition; the grid still depends only on (n, fn,
  // variant), and a stable partition's output layout is independent of the
  // morsel decomposition, so determinism and variant byte-identity hold.
  size_t morsel = BoundedMorselSize(n);
  if (swwc && morsel < static_cast<size_t>(p_count) * 16) {
    morsel = static_cast<size_t>(p_count) * 16;
  }
  const MorselGrid grid(n, morsel);
  const size_t m_count = grid.count();
  if (m_count == 0) {
    if (starts != nullptr) {
      for (uint32_t p = 0; p <= p_count; ++p) starts[p] = 0;
    }
    return;
  }
  if (swwc) {
    res->ReserveSwwc(m_count, t_count, p_count);
  } else {
    res->Reserve(m_count, t_count, p_count);
  }
  uint32_t* hists = res->hists.data();
  TaskPool& pool = TaskPool::Get();

  // Phase 1: one histogram row per morsel. The serial cross-morsel prefix
  // sum rides in the same timer (cheap: m_count * fanout).
  {
    obs::ScopedPhase phase(g_part_hist_ns);
    pool.ParallelFor(m_count, t_count, [&](int worker, size_t m) {
      uint32_t* h = hists + m * p_count;
      if (vec) {
        HistogramReplicatedAvx512(fn, keys + grid.begin(m), grid.size(m), h,
                                  &res->hist_ws[worker]);
      } else {
        HistogramScalar(fn, keys + grid.begin(m), grid.size(m), h);
      }
    });
    InterleavedPrefixSum(hists, m_count, p_count);
  }
  if (starts != nullptr) {
    // Morsel 0's offsets are the global partition begin positions.
    for (uint32_t p = 0; p < p_count; ++p) starts[p] = hists[p];
    starts[p_count] = static_cast<uint32_t>(n);
  }

  // Phase 2: buffered shuffle Main per morsel. Morsel boundaries are
  // multiples of 16, so the streaming-flush alignment contract holds; the
  // aligned flushes may clobber <= 15 tuples of a neighbouring morsel's
  // still-buffered tail, repaired in phase 3 (see shuffle.h).
  {
    obs::ScopedPhase phase(g_part_shuffle_ns);
    pool.ParallelFor(m_count, t_count, [&](int, size_t m) {
      const size_t b = grid.begin(m);
      internal::ShuffleMain(kernel, fn, keys + b,
                            pays == nullptr ? nullptr : pays + b, grid.size(m),
                            hists + m * p_count, out_keys, out_pays, res->bufs,
                            res->wc_bufs, m);
    });
  }

  // Phase 3 (after the implicit barrier of the ParallelFor join): repair
  // the 16-aligned flush overshoot by writing every morsel's buffered tails.
  obs::ScopedPhase cleanup_phase(g_part_cleanup_ns);
  pool.ParallelFor(m_count, t_count, [&](int, size_t m) {
    internal::ShuffleCleanup(kernel, p_count, hists + m * p_count, res->bufs,
                             res->wc_bufs, m, out_keys, out_pays);
  });
}

}  // namespace simddb
