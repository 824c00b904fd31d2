#include "sort/radix_sort.h"

#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "partition/histogram.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/plan.h"
#include "partition/shuffle.h"
#include "util/aligned_buffer.h"
#include "util/prefix_sum.h"
#include "util/task_pool.h"

namespace simddb {
namespace {

// Multi-column sort pass phases (the pair/key-only sorts reuse the
// part_*_ns timers via ParallelPartitionPass).
obs::PhaseTimer g_sort_hist_ns("sort_hist_ns");
obs::PhaseTimer g_sort_scatter_ns("sort_scatter_ns");

void RadixSortImpl(uint32_t* keys, uint32_t* pays, uint32_t* scratch_keys,
                   uint32_t* scratch_pays, size_t n,
                   const RadixSortConfig& cfg) {
  if (n < 2) return;
  const uint32_t req =
      cfg.bits_per_pass < 1 ? 8 : static_cast<uint32_t>(cfg.bits_per_pass);
  // LSB order: the cumulative shift makes any pass-width sequence summing to
  // 32 a correct (stable) sort, so the planner's balanced split just rides.
  const PartitionPlan plan =
      PlanRadixPasses(32, PartitionBudget::Default(), req);
  ParallelPartitionResources res;

  uint32_t* in_k = keys;
  uint32_t* in_p = pays;
  uint32_t* out_k = scratch_keys;
  uint32_t* out_p = scratch_pays;
  uint32_t lo = 0;
  for (const PartitionPassPlan& pass : plan.passes) {
    PartitionFn fn = PartitionFn::Radix(pass.bits, lo);
    ParallelPartitionPass(fn, in_k, in_p, n, out_k, out_p, cfg.isa,
                          cfg.threads, &res, nullptr, pass.variant,
                          ShuffleCapacity(n));
    lo += pass.bits;
    std::swap(in_k, out_k);
    std::swap(in_p, out_p);
  }
  if (in_k != keys) {
    std::memcpy(keys, in_k, n * sizeof(uint32_t));
    if (pays != nullptr) std::memcpy(pays, in_p, n * sizeof(uint32_t));
  }
}

}  // namespace

void RadixSortPairs(uint32_t* keys, uint32_t* pays, uint32_t* scratch_keys,
                    uint32_t* scratch_pays, size_t n,
                    const RadixSortConfig& cfg) {
  RadixSortImpl(keys, pays, scratch_keys, scratch_pays, n, cfg);
}

void RadixSortKeys(uint32_t* keys, uint32_t* scratch_keys, size_t n,
                   const RadixSortConfig& cfg) {
  RadixSortImpl(keys, nullptr, scratch_keys, nullptr, n, cfg);
}

void RadixSortMultiColumn(uint32_t* keys, uint32_t* scratch_keys, size_t n,
                          SortColumn* cols, size_t n_cols,
                          const RadixSortConfig& cfg) {
  if (n < 2) return;
  const uint32_t req =
      cfg.bits_per_pass < 1 ? 8 : static_cast<uint32_t>(cfg.bits_per_pass);
  const PartitionPlan plan =
      PlanRadixPasses(32, PartitionBudget::Default(), req);
  // Widest pass comes first in the plan, so it sizes the histogram rows.
  const uint32_t max_bits = plan.passes.front().bits;
  const bool vec = cfg.isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;

  // Morsel-parallel schedule (same layout trick as ParallelPartitionPass):
  // one histogram row per morsel, a cross-morsel interleaved prefix sum,
  // then per-morsel destination computation — dest[] holds each tuple's
  // final position, so the column scatters are embarrassingly parallel over
  // morsels and the result is identical for every worker count.
  const MorselGrid grid(n, BoundedMorselSize(n));
  const size_t m_count = grid.count();
  TaskPool& pool = TaskPool::Get();
  const int lanes = TaskPool::LaneCount(m_count, t_count);
  AlignedBuffer<uint32_t> hists(m_count << max_bits);
  AlignedBuffer<uint32_t> dest(ShuffleCapacity(n));
  std::vector<HistogramWorkspace> ws(lanes);
  uint32_t* in_k = keys;
  uint32_t* out_k = scratch_keys;
  std::vector<void*> in_c(n_cols), out_c(n_cols);
  for (size_t c = 0; c < n_cols; ++c) {
    in_c[c] = cols[c].data;
    out_c[c] = cols[c].scratch;
  }

  uint32_t lo = 0;
  for (const PartitionPassPlan& pass : plan.passes) {
    PartitionFn fn = PartitionFn::Radix(pass.bits, lo);
    lo += pass.bits;
    {
      obs::ScopedPhase phase(g_sort_hist_ns);
      pool.ParallelFor(m_count, t_count, [&](int worker, size_t m) {
        uint32_t* h = hists.data() + m * fn.fanout;
        if (vec) {
          HistogramReplicatedAvx512(fn, in_k + grid.begin(m), grid.size(m), h,
                                    &ws[worker]);
        } else {
          HistogramScalar(fn, in_k + grid.begin(m), grid.size(m), h);
        }
      });
      InterleavedPrefixSum(hists.data(), m_count, fn.fanout);
    }
    // One destination computation, replayed over the key and all payload
    // columns with width-specialized scatters (the paper's temporary-array
    // scheme for multi-column shuffling).
    obs::ScopedPhase scatter_phase(g_sort_scatter_ns);
    pool.ParallelFor(m_count, t_count, [&](int, size_t m) {
      const size_t b = grid.begin(m);
      const size_t mn = grid.size(m);
      uint32_t* offsets = hists.data() + m * fn.fanout;
      if (vec) {
        ComputeDestinationsAvx512(fn, in_k + b, mn, offsets, dest.data() + b);
        ScatterColumnAvx512(in_k + b, mn, dest.data() + b, out_k, 4);
        for (size_t c = 0; c < n_cols; ++c) {
          ScatterColumnAvx512(
              static_cast<const char*>(in_c[c]) +
                  b * static_cast<size_t>(cols[c].elem_bytes),
              mn, dest.data() + b, out_c[c], cols[c].elem_bytes);
        }
      } else {
        ComputeDestinationsScalar(fn, in_k + b, mn, offsets, dest.data() + b);
        ScatterColumnScalar(in_k + b, mn, dest.data() + b, out_k, 4);
        for (size_t c = 0; c < n_cols; ++c) {
          ScatterColumnScalar(
              static_cast<const char*>(in_c[c]) +
                  b * static_cast<size_t>(cols[c].elem_bytes),
              mn, dest.data() + b, out_c[c], cols[c].elem_bytes);
        }
      }
    });
    std::swap(in_k, out_k);
    for (size_t c = 0; c < n_cols; ++c) std::swap(in_c[c], out_c[c]);
  }
  if (in_k != keys) {
    std::memcpy(keys, in_k, n * sizeof(uint32_t));
    for (size_t c = 0; c < n_cols; ++c) {
      std::memcpy(cols[c].data, in_c[c],
                  n * static_cast<size_t>(cols[c].elem_bytes));
    }
  }
}

}  // namespace simddb
