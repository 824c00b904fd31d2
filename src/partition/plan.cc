#include "partition/plan.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "partition/histogram.h"
#include "partition/parallel_partition.h"
#include "partition/shuffle.h"
#include "partition/shuffle_dispatch.h"
#include "partition/swwc.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/cpu_info.h"
#include "util/task_pool.h"

namespace simddb {
namespace {

obs::Counter g_passes_planned("passes_planned");

// Environment override, parsed at most once per process per variable.
uint32_t EnvU32(const char* name, uint32_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || v == 0 || v > 0xFFFFFFFFul) return fallback;
  return static_cast<uint32_t>(v);
}

// Largest power of two <= v, floored at 2 (a 1-way "partition" is a copy).
uint32_t FloorPow2AtLeast2(uint32_t v) {
  if (v < 2) return 2;
  return 1u << Log2Floor(v);
}

}  // namespace

PartitionBudget PartitionBudget::Default() {
  static const PartitionBudget kDefault = [] {
    PartitionBudget b;
    // Calibrate from the host before applying env overrides. Plausibility
    // floors/caps keep a misreported sysconf/CPUID value (VMs, containers)
    // from planning absurd fanouts; anything outside them keeps the
    // conservative constant.
    const CpuInfo& cpu = GetCpuInfo();
    if (cpu.l1d_bytes >= (16u << 10) && cpu.l1d_bytes <= (256u << 10)) {
      b.l1_staging_bytes = static_cast<uint32_t>(cpu.l1d_bytes);
    }
    if (cpu.l2_bytes >= (128u << 10) && cpu.l2_bytes <= (16u << 20)) {
      b.l2_staging_bytes = static_cast<uint32_t>(cpu.l2_bytes);
    }
    // Half the second-level TLB's 4K reach: the input stream, the staging
    // buffers and the stack compete for the other half.
    if (cpu.stlb_4k_entries >= 128 && cpu.stlb_4k_entries <= (64u << 10)) {
      b.tlb_partitions = static_cast<uint32_t>(cpu.stlb_4k_entries / 2);
    }
    b.l1_staging_bytes =
        EnvU32("SIMDDB_L1_STAGING_BYTES", b.l1_staging_bytes);
    b.l2_staging_bytes =
        EnvU32("SIMDDB_L2_STAGING_BYTES", b.l2_staging_bytes);
    b.tlb_partitions = EnvU32("SIMDDB_TLB_PARTITIONS", b.tlb_partitions);
    return b;
  }();
  return kDefault;
}

uint32_t PartitionBudget::MaxBuffered16Fanout() const {
  uint32_t by_l1 = l1_staging_bytes / kSwwcStageBytesPerPartition;
  uint32_t cap = tlb_partitions < by_l1 ? tlb_partitions : by_l1;
  return FloorPow2AtLeast2(cap);
}

uint32_t PartitionBudget::MaxSwwcFanout() const {
  uint32_t by_l2 =
      FloorPow2AtLeast2(l2_staging_bytes / kSwwcStageBytesPerPartition);
  uint32_t b16 = MaxBuffered16Fanout();
  return by_l2 > b16 ? by_l2 : b16;
}

uint32_t PartitionBudget::MaxBitsPerPass() const {
  return Log2Floor(MaxSwwcFanout());
}

ShuffleVariant ChooseShuffleVariant(uint32_t fanout,
                                    const PartitionBudget& budget) {
  return fanout <= budget.MaxBuffered16Fanout() ? ShuffleVariant::kBuffered16
                                                : ShuffleVariant::kSwwc;
}

bool UseVectorBuffered16(Isa isa, uint32_t fanout) {
  if (isa != Isa::kAvx512 || !IsaSupported(Isa::kAvx512)) return false;
  return fanout <= kB16VectorMaxFanout;
}

PartitionPlan PlanRadixPasses(uint32_t total_bits,
                              const PartitionBudget& budget,
                              uint32_t requested_bits_per_pass) {
  uint32_t max_bits = budget.MaxBitsPerPass();
  if (requested_bits_per_pass != 0 && requested_bits_per_pass < max_bits) {
    max_bits = requested_bits_per_pass;
  }
  if (max_bits == 0) max_bits = 1;

  PartitionPlan plan;
  plan.total_bits = total_bits;
  const uint32_t n_passes =
      total_bits == 0 ? 1 : (total_bits + max_bits - 1) / max_bits;
  // Near-equal split: the first `rem` passes get one extra bit, so
  // max - min <= 1 and no pass exceeds max_bits.
  const uint32_t base = total_bits / n_passes;
  const uint32_t rem = total_bits % n_passes;
  plan.passes.reserve(n_passes);
  for (uint32_t k = 0; k < n_passes; ++k) {
    uint32_t bits = base + (k < rem ? 1 : 0);
    assert(bits <= budget.MaxBitsPerPass());
    plan.passes.push_back(
        {bits, ChooseShuffleVariant(1u << bits, budget)});
  }
  g_passes_planned.Add(n_passes);
  return plan;
}

// Generalization of the max-partition join's second pass: every previous
// partition range is one stealable task — a self-contained histogram, a
// local prefix sum starting at the range's fixed begin offset, and a
// shuffle Main into that range. Because the output layout depends only on
// prev_bounds (never on the steal schedule), the pass is stable and
// byte-identical across thread counts. Cleanup is deferred behind the
// dispatch barrier so streaming flushes cannot race a neighbour part's
// final tuples.
void RefinePartitionsPass(const PartitionFn& fn2, uint32_t prev_count,
                          const uint32_t* prev_bounds, const uint32_t* in_keys,
                          const uint32_t* in_pays, uint32_t* out_keys,
                          uint32_t* out_pays, uint32_t* bounds_out, Isa isa,
                          int threads, ShuffleVariant variant) {
  const int t_count = threads < 1 ? 1 : threads;
  const uint32_t p2 = fn2.fanout;
  const bool vec512 = isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const internal::ShuffleKernel kernel = internal::ChooseShuffleKernel(
      variant, isa, p2, in_pays != nullptr, PartitionBudget::Default());
  const bool swwc = kernel.swwc;

  std::vector<ShuffleBuffers> bufs(swwc ? 0 : prev_count);
  std::vector<SwwcBuffers> wc_bufs(swwc ? prev_count : 0);
  std::vector<uint32_t> all_offsets(static_cast<size_t>(prev_count) * p2);
  TaskPool& pool = TaskPool::Get();
  const int lanes = TaskPool::LaneCount(prev_count, t_count);
  std::vector<HistogramWorkspace> ws(lanes);
  pool.ParallelFor(prev_count, t_count, [&](int worker, size_t task) {
    uint32_t p = static_cast<uint32_t>(task);
    uint32_t b = prev_bounds[p];
    uint32_t n_part = prev_bounds[p + 1] - b;
    uint32_t* offsets = all_offsets.data() + static_cast<size_t>(p) * p2;
    if (vec512) {
      HistogramReplicatedAvx512(fn2, in_keys + b, n_part, offsets,
                                &ws[worker]);
    } else {
      HistogramScalar(fn2, in_keys + b, n_part, offsets);
    }
    uint32_t sum = b;
    for (uint32_t q = 0; q < p2; ++q) {
      uint32_t c = offsets[q];
      offsets[q] = sum;
      bounds_out[static_cast<size_t>(p) * p2 + q] = sum;
      sum += c;
    }
    internal::ShuffleMain(kernel, fn2, in_keys + b,
                          in_pays == nullptr ? nullptr : in_pays + b, n_part,
                          offsets, out_keys, out_pays, bufs, wc_bufs, p);
  });
  // All Main calls joined; now repair the staged/buffered tails.
  pool.ParallelFor(prev_count, t_count, [&](int, size_t p) {
    internal::ShuffleCleanup(kernel, p2, all_offsets.data() + p * p2, bufs,
                             wc_bufs, p, out_keys, out_pays);
  });
}

void MultiPassPartition(const PassFnMaker& maker, uint32_t total_bits,
                        const uint32_t* keys, const uint32_t* pays, size_t n,
                        uint32_t* out_keys, uint32_t* out_pays,
                        uint32_t* scratch_keys, uint32_t* scratch_pays,
                        Isa isa, int threads, const PartitionBudget& budget,
                        uint32_t* starts, ParallelPartitionResources* res) {
  const bool has_pays = pays != nullptr;
  PartitionPlan plan = PlanRadixPasses(total_bits, budget, 0);
  const uint32_t n_passes = static_cast<uint32_t>(plan.passes.size());
  const uint32_t p_total = total_bits >= 32 ? 0u : (1u << total_bits);

  ParallelPartitionResources local_res;
  if (res == nullptr) res = &local_res;

  // Single pass: no ping-pong, no refinement machinery.
  if (n_passes == 1) {
    const PartitionFn fn = maker(total_bits, 0);
    ParallelPartitionPass(fn, keys, pays, n, out_keys, out_pays, isa, threads,
                          res, starts, plan.passes[0].variant,
                          ShuffleCapacity(n));
    return;
  }

  AlignedBuffer<uint32_t> own_sk, own_sp;
  if (scratch_keys == nullptr) {
    own_sk.Reset(ShuffleCapacity(n));
    scratch_keys = own_sk.data();
    if (has_pays) {
      own_sp.Reset(ShuffleCapacity(n));
      scratch_pays = own_sp.data();
    }
  }

  // Pass k writes to `out` when the remaining pass count (n_passes - k) is
  // odd, so the final pass always lands in out without a trailing copy.
  std::vector<uint32_t> bounds_a, bounds_b;
  uint32_t consumed = 0;  // bits already partitioned (MSB-first)
  uint32_t prev_count = 0;
  for (uint32_t k = 0; k < n_passes; ++k) {
    const uint32_t bits = plan.passes[k].bits;
    const uint32_t rem = total_bits - consumed - bits;
    const PartitionFn fn = maker(bits, rem);
    const bool to_out = ((n_passes - k) % 2) == 1;
    uint32_t* dst_keys = to_out ? out_keys : scratch_keys;
    uint32_t* dst_pays = to_out ? out_pays : scratch_pays;
    if (k == 0) {
      bounds_a.resize((static_cast<size_t>(1) << bits) + 1);
      ParallelPartitionPass(fn, keys, pays, n, dst_keys, dst_pays, isa,
                            threads, res, bounds_a.data(),
                            plan.passes[0].variant, ShuffleCapacity(n));
      prev_count = 1u << bits;
    } else {
      const uint32_t* src_keys = to_out ? scratch_keys : out_keys;
      const uint32_t* src_pays = to_out ? scratch_pays : out_pays;
      bounds_b.resize(static_cast<size_t>(prev_count) * (1u << bits) + 1);
      RefinePartitionsPass(fn, prev_count, bounds_a.data(), src_keys,
                           src_pays, dst_keys, dst_pays, bounds_b.data(), isa,
                           threads, plan.passes[k].variant);
      prev_count <<= bits;
      bounds_b[prev_count] = static_cast<uint32_t>(n);
      bounds_a.swap(bounds_b);
    }
    consumed += bits;
  }
  assert(prev_count == p_total);
  if (starts != nullptr) {
    std::memcpy(starts, bounds_a.data(),
                (static_cast<size_t>(p_total) + 1) * sizeof(uint32_t));
  }
}

void MultiPassRadixPartition(const uint32_t* keys, const uint32_t* pays,
                             size_t n, uint32_t total_bits,
                             uint32_t* out_keys, uint32_t* out_pays,
                             uint32_t* scratch_keys, uint32_t* scratch_pays,
                             Isa isa, int threads,
                             const PartitionBudget& budget, uint32_t* starts) {
  assert(total_bits <= 32);
  // Pass fn: `bits` bits of the top-total_bits partition index with
  // rem_bits still unresolved below. Radix(0, >=32) would be UB; a 0-bit
  // pass is the identity partition.
  MultiPassPartition(
      [total_bits](uint32_t bits, uint32_t rem_bits) {
        if (bits == 0) return PartitionFn::Radix(0, 0);
        return PartitionFn::Radix(bits, 32 - total_bits + rem_bits);
      },
      total_bits, keys, pays, n, out_keys, out_pays, scratch_keys,
      scratch_pays, isa, threads, budget, starts, nullptr);
}

}  // namespace simddb
