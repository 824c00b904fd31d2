#include "sort/range_sort.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "partition/range.h"
#include "partition/shuffle.h"
#include "sort/radix_sort.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/rng.h"

namespace simddb {

void RangeSortPairs(uint32_t* keys, uint32_t* pays, uint32_t* scratch_keys,
                    uint32_t* scratch_pays, size_t n,
                    const RangeSortConfig& cfg) {
  if (n < 2) return;
  const bool vec = cfg.isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const uint32_t fanout = cfg.fanout < 2 ? 2 : cfg.fanout;

  // 1. Sample and pick equi-depth splitters.
  Pcg32 rng(cfg.seed);
  size_t sample_n = std::min(cfg.sample_size, n);
  std::vector<uint32_t> sample(sample_n);
  for (size_t i = 0; i < sample_n; ++i) {
    sample[i] = keys[rng.NextBounded(static_cast<uint32_t>(n))];
  }
  std::sort(sample.begin(), sample.end());
  std::vector<uint32_t> splitters;
  splitters.reserve(fanout - 1);
  for (uint32_t p = 1; p < fanout; ++p) {
    splitters.push_back(sample[sample_n * p / fanout]);
  }

  // 2. Map every key to its range partition with the SIMD tree index.
  RangeIndex index(splitters, 16);
  AlignedBuffer<uint32_t> part(n + 16);
  if (vec) {
    index.LookupAvx512(keys, n, part.data());
  } else {
    index.LookupScalar(keys, n, part.data());
  }

  // 3. Histogram over partition ids, then scatter tuples to contiguous
  //    partitions (destinations computed once, replayed on both columns).
  std::vector<uint32_t> offsets(fanout, 0);
  for (size_t i = 0; i < n; ++i) ++offsets[part[i]];
  uint32_t sum = 0;
  std::vector<uint32_t> starts(fanout + 1);
  for (uint32_t p = 0; p < fanout; ++p) {
    starts[p] = sum;
    uint32_t c = offsets[p];
    offsets[p] = sum;
    sum += c;
  }
  starts[fanout] = static_cast<uint32_t>(n);
  AlignedBuffer<uint32_t> dest(n + 16);
  // Identity on part ids: a radix function whose mask covers [0, fanout).
  PartitionFn id_fn = PartitionFn::Radix(Log2Ceil(fanout), 0);
  if (vec) {
    ComputeDestinationsAvx512(id_fn, part.data(), n, offsets.data(),
                              dest.data());
    ScatterColumnAvx512(keys, n, dest.data(), scratch_keys, 4);
    ScatterColumnAvx512(pays, n, dest.data(), scratch_pays, 4);
  } else {
    ComputeDestinationsScalar(id_fn, part.data(), n, offsets.data(),
                              dest.data());
    ScatterColumnScalar(keys, n, dest.data(), scratch_keys, 4);
    ScatterColumnScalar(pays, n, dest.data(), scratch_pays, 4);
  }

  // 4. Finish each partition with LSB radixsort (partitions are ordered by
  //    value, so concatenation is the sorted output). Each part sorts with
  //    a dedicated scratch buffer: sorting in place between adjacent parts
  //    would let the buffered shuffle's 16-aligned flush overshoot clobber
  //    the next, still-unsorted part.
  RadixSortConfig rs;
  rs.isa = cfg.isa;
  uint32_t max_part = 0;
  for (uint32_t p = 0; p < fanout; ++p) {
    max_part = std::max(max_part, starts[p + 1] - starts[p]);
  }
  AlignedBuffer<uint32_t> tmp_k(max_part + 16), tmp_p(max_part + 16);
  for (uint32_t p = 0; p < fanout; ++p) {
    uint32_t b = starts[p];
    uint32_t e = starts[p + 1];
    if (e - b > 1) {
      std::memcpy(tmp_k.data(), scratch_keys + b, (e - b) * sizeof(uint32_t));
      std::memcpy(tmp_p.data(), scratch_pays + b, (e - b) * sizeof(uint32_t));
      RadixSortPairs(tmp_k.data(), tmp_p.data(), keys + b, pays + b, e - b,
                     rs);
      std::memcpy(scratch_keys + b, tmp_k.data(), (e - b) * sizeof(uint32_t));
      std::memcpy(scratch_pays + b, tmp_p.data(), (e - b) * sizeof(uint32_t));
    }
  }
  std::memcpy(keys, scratch_keys, n * sizeof(uint32_t));
  std::memcpy(pays, scratch_pays, n * sizeof(uint32_t));
}

}  // namespace simddb
