#include "partition/histogram.h"

namespace simddb {

void HistogramScalar(const PartitionFn& fn, const uint32_t* keys, size_t n,
                     uint32_t* hist) {
  for (uint32_t p = 0; p < fn.fanout; ++p) hist[p] = 0;
  if (fn.kind == PartitionFn::Kind::kRadix) {
    const uint32_t shift = fn.shift;
    const uint32_t mask = fn.fanout - 1;
    for (size_t i = 0; i < n; ++i) {
      ++hist[(keys[i] >> shift) & mask];
    }
  } else if (fn.shift == 0 && fn.total == fn.fanout) {
    // Plain multiplicative hashing (fanout may be non-power-of-two).
    const uint32_t factor = fn.factor;
    const uint32_t fanout = fn.fanout;
    for (size_t i = 0; i < n; ++i) {
      ++hist[scalar::MultHash(keys[i], factor, fanout)];
    }
  } else {
    // General hash-radix form (multi-pass hash partitioning).
    for (size_t i = 0; i < n; ++i) {
      ++hist[fn(keys[i])];
    }
  }
}

}  // namespace simddb
