#ifndef SIMDDB_PARTITION_PLAN_H_
#define SIMDDB_PARTITION_PLAN_H_

// Fanout-aware partition-pass planning. A partitioning pass streams to one
// open output region per partition; past the TLB's reach (and the staging
// area's cache budget) every flush misses the page walk and throughput
// collapses (Fig. 13, right edge). The planner bounds the damage by
// splitting a requested radix width into multiple passes whose per-pass
// fanout fits a configurable budget, and picks the shuffle kernel per pass:
//
//   - buffered-16 (shuffle.h): the paper's Alg. 15; fastest while the
//     partition count stays within the TLB and its staging fits L1.
//   - SWWC (swwc.h): combined cacheline staging + always-streaming flushes
//     on the slid grid; tolerates an order of magnitude more partitions
//     (staging budgeted against L2) before it, too, wants a split.
//
// Budget defaults auto-calibrate from util/cpu_info's cache/TLB
// introspection (L1D/L2 sizes from sysconf, STLB geometry from CPUID) with
// plausibility floors and caps, falling back to constants targeting a
// contemporary x86 server core (32 KB L1D heavily shared with the input
// stream, 512 KB+ L2, ~1K-partition TLB reach) when the host reports
// nothing usable. Environment variables always take precedence:
// SIMDDB_L1_STAGING_BYTES, SIMDDB_L2_STAGING_BYTES, SIMDDB_TLB_PARTITIONS.
//
// MultiPassPartition executes a plan end-to-end: pass 1 is a full
// ParallelPartitionPass, later passes refine every existing partition
// range in place (RefinePartitionsPass — parts are the stealable work
// unit), ping-ponging between the output and scratch arrays so the final
// pass lands in `out`. MSB-first refinement with stable passes reproduces
// the single-pass partition order bit-for-bit, so callers can trade passes
// for fanout without changing results.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/isa.h"
#include "partition/partition_fn.h"

namespace simddb {

struct ParallelPartitionResources;  // parallel_partition.h

/// Which shuffle kernel a partitioning pass uses. kAuto resolves via
/// ChooseShuffleVariant at the dispatch site.
enum class ShuffleVariant { kAuto, kBuffered16, kSwwc };

/// Per-pass fanout budgets. Staging cost is kSwwcStageBytesPerPartition
/// (128 B) per partition for both kernel families (16 keys + 16 payloads).
struct PartitionBudget {
  uint32_t l1_staging_bytes = 32u << 10;   ///< buffered-16 staging budget
  uint32_t l2_staging_bytes = 512u << 10;  ///< SWWC staging budget
  uint32_t tlb_partitions = 512;           ///< open-page cap for buffered-16

  /// Host-calibrated defaults (cpu_info cache/TLB introspection, bounded
  /// by plausibility floors/caps) with environment overrides applied on
  /// top (parsed once per process).
  static PartitionBudget Default();

  /// Largest power-of-two fanout a buffered-16 pass may use:
  /// min(tlb_partitions, l1_staging_bytes / 128), floored to a power of
  /// two, at least 2.
  uint32_t MaxBuffered16Fanout() const;

  /// Largest power-of-two fanout an SWWC pass may use:
  /// l2_staging_bytes / 128 floored to a power of two, at least
  /// MaxBuffered16Fanout().
  uint32_t MaxSwwcFanout() const;

  /// log2(MaxSwwcFanout()) — the widest radix any planned pass gets.
  uint32_t MaxBitsPerPass() const;
};

/// Kernel choice for a single pass of the given fanout: buffered-16 while
/// it fits that kernel's budget, SWWC beyond.
ShuffleVariant ChooseShuffleVariant(uint32_t fanout,
                                    const PartitionBudget& budget);

/// Largest fanout at which the AVX-512 buffered-16 fill still beats the
/// scalar one: the gather/scatter conflict-detect cost grows with fanout,
/// and scalar wins past 2^10 on the bench host.
inline constexpr uint32_t kB16VectorMaxFanout = 1u << 10;

/// Fill choice *inside* the buffered-16 family: true when the AVX-512
/// gather/scatter fill (the paper's Alg. 15) should run, i.e. the ISA is
/// available and the fanout is at most kB16VectorMaxFanout; beyond that
/// the scalar fill wins and the vector dispatch sites fall back to it.
/// Histogram kernels are not affected — they stay vectorized at every
/// fanout. Both fills are byte-identical, so this is pure performance
/// policy.
bool UseVectorBuffered16(Isa isa, uint32_t fanout);

struct PartitionPassPlan {
  uint32_t bits;           ///< radix width of this pass (fanout = 1 << bits)
  ShuffleVariant variant;  ///< kBuffered16 or kSwwc, never kAuto
};

struct PartitionPlan {
  uint32_t total_bits = 0;
  std::vector<PartitionPassPlan> passes;  ///< bits sum to total_bits
};

/// Splits `total_bits` of radix into the fewest passes whose fanout fits
/// the budget, near-equal widths (max - min <= 1 bit). When
/// requested_bits_per_pass is nonzero it additionally caps every pass (the
/// RadixSortConfig::bits_per_pass knob). Every returned pass satisfies
/// bits <= budget.MaxBitsPerPass(). Counts obs `passes_planned`.
PartitionPlan PlanRadixPasses(uint32_t total_bits,
                              const PartitionBudget& budget,
                              uint32_t requested_bits_per_pass = 0);

/// Refines every existing partition range by fn2 (fanout p2): per part, a
/// histogram, a local prefix sum, and a buffered/SWWC shuffle into the
/// part's fixed output range, with parts as the stealable work unit and
/// the cleanup deferred behind the dispatch barrier. bounds_out receives
/// prev_count * p2 partition begin positions (the caller owns the final
/// +1 entry). Stable; output is identical for every thread count.
void RefinePartitionsPass(const PartitionFn& fn2, uint32_t prev_count,
                          const uint32_t* prev_bounds, const uint32_t* in_keys,
                          const uint32_t* in_pays, uint32_t* out_keys,
                          uint32_t* out_pays, uint32_t* bounds_out, Isa isa,
                          int threads, ShuffleVariant variant);

/// Builds the pass-k partition function: `bits` bits of the partition
/// index with `rem_bits` index bits below them still unresolved. For plain
/// radix on the top total_bits of the key this is
/// Radix(bits, 32 - total_bits + rem_bits); the hash joins plug in
/// HashRadix over one shared hash value.
using PassFnMaker =
    std::function<PartitionFn(uint32_t bits, uint32_t rem_bits)>;

/// Plans and runs a full `total_bits`-wide partition of (keys, pays) into
/// (out_keys, out_pays) under the budget, refining MSB-first across as
/// many passes as needed. All four output/scratch arrays need capacity
/// ShuffleCapacity(n); scratch_keys/scratch_pays may be null, in which
/// case scratch is allocated internally when the plan has more than one
/// pass. `starts` (may be null) receives 2^total_bits + 1 bounds. `res`
/// (may be null) lets callers reuse first-pass resources across calls.
/// Byte-identical to the equivalent single-pass partition.
void MultiPassPartition(const PassFnMaker& maker, uint32_t total_bits,
                        const uint32_t* keys, const uint32_t* pays, size_t n,
                        uint32_t* out_keys, uint32_t* out_pays,
                        uint32_t* scratch_keys, uint32_t* scratch_pays,
                        Isa isa, int threads, const PartitionBudget& budget,
                        uint32_t* starts, ParallelPartitionResources* res);

/// MultiPassPartition over the top `total_bits` of the key itself
/// (partition index = key >> (32 - total_bits)).
void MultiPassRadixPartition(const uint32_t* keys, const uint32_t* pays,
                             size_t n, uint32_t total_bits,
                             uint32_t* out_keys, uint32_t* out_pays,
                             uint32_t* scratch_keys, uint32_t* scratch_pays,
                             Isa isa, int threads,
                             const PartitionBudget& budget, uint32_t* starts);

}  // namespace simddb

#endif  // SIMDDB_PARTITION_PLAN_H_
