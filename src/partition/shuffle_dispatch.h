#ifndef SIMDDB_PARTITION_SHUFFLE_DISPATCH_H_
#define SIMDDB_PARTITION_SHUFFLE_DISPATCH_H_

// Internal shuffle-kernel dispatch shared by ParallelPartitionPass and
// RefinePartitionsPass: both drivers pick a pass's kernel with
// ChooseShuffleKernel and run it through ShuffleMain and ShuffleCleanup,
// so they agree on which kernel and fill a pass uses.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/isa.h"
#include "partition/partition_fn.h"
#include "partition/plan.h"
#include "partition/shuffle.h"
#include "partition/swwc.h"

namespace simddb::internal {

/// How an SWWC Main fills its staging lines.
enum class SwwcFill { kScalar, kAvx2, kAvx512 };

/// The AVX-512 gather/scatter fill amortizes while the staging area is
/// cache-hot at buffered-16 scale; at wider fanouts the measured winner is
/// the branch-light scalar core (the whole point of the SWWC variant), so
/// the vector fill is only picked inside the buffered-16 fanout budget.
inline SwwcFill ChooseSwwcFill(Isa isa, uint32_t fanout,
                               const PartitionBudget& budget) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512) &&
      fanout <= budget.MaxBuffered16Fanout()) {
    return SwwcFill::kAvx512;
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) return SwwcFill::kAvx2;
  return SwwcFill::kScalar;
}

/// A pass's shuffle kernel: the family, the fill inside it, and whether
/// payloads move with the keys.
struct ShuffleKernel {
  bool pairs;     ///< keys and payloads (else a key-only pass)
  bool swwc;      ///< SWWC staging (else buffered-16)
  bool vec_b16;   ///< buffered-16 with the AVX-512 fill
  SwwcFill fill;  ///< the SWWC fill
};

/// kAuto resolves by fanout (ChooseShuffleVariant). The buffered-16 fill
/// is fanout-aware (UseVectorBuffered16: the gather/scatter conflict cost
/// grows with the partition count); histograms are not affected.
inline ShuffleKernel ChooseShuffleKernel(ShuffleVariant variant, Isa isa,
                                         uint32_t fanout, bool pairs,
                                         const PartitionBudget& budget) {
  if (variant == ShuffleVariant::kAuto) {
    variant = ChooseShuffleVariant(fanout, budget);
  }
  const bool swwc = variant == ShuffleVariant::kSwwc;
  return {pairs, swwc, !swwc && UseVectorBuffered16(isa, fanout),
          ChooseSwwcFill(isa, fanout, budget)};
}

/// The shuffle Main of one morsel or part: n keys (and payloads) into the
/// outputs at `offsets`, staged in bufs[i] (buffered-16) or wc_bufs[i]
/// (SWWC).
inline void ShuffleMain(const ShuffleKernel& k, const PartitionFn& fn,
                        const uint32_t* keys, const uint32_t* pays, size_t n,
                        uint32_t* offsets, uint32_t* out_keys,
                        uint32_t* out_pays, std::vector<ShuffleBuffers>& bufs,
                        std::vector<SwwcBuffers>& wc_bufs, size_t i) {
  if (k.swwc) {
    switch (k.fill) {
      case SwwcFill::kAvx512:
        if (k.pairs) {
          ShuffleSwwcAvx512Main(fn, keys, pays, n, offsets, out_keys,
                                out_pays, &wc_bufs[i]);
        } else {
          ShuffleKeysSwwcAvx512Main(fn, keys, n, offsets, out_keys,
                                    &wc_bufs[i]);
        }
        break;
      case SwwcFill::kAvx2:
        if (k.pairs) {
          ShuffleSwwcAvx2Main(fn, keys, pays, n, offsets, out_keys, out_pays,
                              &wc_bufs[i]);
        } else {
          ShuffleKeysSwwcAvx2Main(fn, keys, n, offsets, out_keys,
                                  &wc_bufs[i]);
        }
        break;
      case SwwcFill::kScalar:
        if (k.pairs) {
          ShuffleSwwcScalarMain(fn, keys, pays, n, offsets, out_keys,
                                out_pays, &wc_bufs[i]);
        } else {
          ShuffleKeysSwwcScalarMain(fn, keys, n, offsets, out_keys,
                                    &wc_bufs[i]);
        }
        break;
    }
  } else if (k.vec_b16) {
    if (k.pairs) {
      ShuffleVectorBufferedMainAvx512(fn, keys, pays, n, offsets, out_keys,
                                      out_pays, &bufs[i]);
    } else {
      ShuffleKeysVectorBufferedMainAvx512(fn, keys, n, offsets, out_keys,
                                          &bufs[i]);
    }
  } else if (k.pairs) {
    ShuffleScalarBufferedMain(fn, keys, pays, n, offsets, out_keys, out_pays,
                              &bufs[i]);
  } else {
    ShuffleKeysScalarBufferedMain(fn, keys, n, offsets, out_keys, &bufs[i]);
  }
}

/// Writes the tails ShuffleMain left staged in bufs[i] or wc_bufs[i]. Runs
/// after every Main of the pass has returned: a Main's aligned flushes may
/// clobber up to 15 tuples of a neighbour's still-staged tail.
inline void ShuffleCleanup(const ShuffleKernel& k, uint32_t fanout,
                           const uint32_t* offsets,
                           const std::vector<ShuffleBuffers>& bufs,
                           const std::vector<SwwcBuffers>& wc_bufs, size_t i,
                           uint32_t* out_keys, uint32_t* out_pays) {
  if (k.pairs) {
    if (k.swwc) {
      ShuffleSwwcCleanup(fanout, offsets, wc_bufs[i], out_keys, out_pays);
    } else {
      ShuffleBufferedCleanup(fanout, offsets, bufs[i], out_keys, out_pays);
    }
  } else if (k.swwc) {
    ShuffleKeysSwwcCleanup(fanout, offsets, wc_bufs[i], out_keys);
  } else {
    ShuffleKeysBufferedCleanup(fanout, offsets, bufs[i], out_keys);
  }
}

}  // namespace simddb::internal

#endif  // SIMDDB_PARTITION_SHUFFLE_DISPATCH_H_
