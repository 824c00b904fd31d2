#include "agg/group_by.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "hash/hash_table.h"
#include "util/bits.h"

namespace simddb {

GroupByAggregator::GroupByAggregator(size_t max_groups, uint64_t seed)
    : n_buckets_(NextPowerOfTwo(max_groups * 2 + 32)),
      factor_(HashFactor(seed, 0)) {
  gkeys_.Reset(n_buckets_);
  sums_.Reset(n_buckets_);
  counts_.Reset(n_buckets_);
  mins_.Reset(n_buckets_);
  maxs_.Reset(n_buckets_);
  Clear();
}

void GroupByAggregator::Clear() {
  std::memset(gkeys_.data(), 0xFF, n_buckets_ * sizeof(uint32_t));
  sums_.Clear();
  counts_.Clear();
  mins_.Clear();
  maxs_.Clear();
  n_groups_ = 0;
}

uint32_t GroupByAggregator::FindOrClaim(uint32_t key) {
  for (;;) {
    const uint32_t nb = static_cast<uint32_t>(n_buckets_);
    uint32_t h = scalar::MultHash(key, factor_, nb);
    for (;;) {
      if (gkeys_[h] == key) return h;
      if (gkeys_[h] == kEmptyKey) {
        if (n_groups_ >= grow_limit()) break;  // double first, then claim
        gkeys_[h] = key;
        mins_[h] = 0xFFFFFFFFu;
        maxs_[h] = 0;
        ++n_groups_;
        return h;
      }
      if (++h == nb) h = 0;
    }
    Grow();
  }
}

void GroupByAggregator::Grow() {
  AlignedBuffer<uint32_t> old_keys = std::move(gkeys_);
  AlignedBuffer<uint64_t> old_sums = std::move(sums_);
  AlignedBuffer<uint32_t> old_counts = std::move(counts_);
  AlignedBuffer<uint32_t> old_mins = std::move(mins_);
  AlignedBuffer<uint32_t> old_maxs = std::move(maxs_);
  const size_t old_nb = n_buckets_;
  n_buckets_ *= 2;
  gkeys_.Reset(n_buckets_);
  sums_.Reset(n_buckets_);
  counts_.Reset(n_buckets_);
  mins_.Reset(n_buckets_);
  maxs_.Reset(n_buckets_);
  std::memset(gkeys_.data(), 0xFF, n_buckets_ * sizeof(uint32_t));
  sums_.Clear();
  counts_.Clear();
  mins_.Clear();
  maxs_.Clear();
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  for (size_t i = 0; i < old_nb; ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    uint32_t h = scalar::MultHash(old_keys[i], factor_, nb);
    while (gkeys_[h] != kEmptyKey) {
      if (++h == nb) h = 0;
    }
    gkeys_[h] = old_keys[i];
    sums_[h] = old_sums[i];
    counts_[h] = old_counts[i];
    mins_[h] = old_mins[i];
    maxs_[h] = old_maxs[i];
  }
}

void GroupByAggregator::FoldScalar(uint32_t key, uint32_t val) {
  const uint32_t h = FindOrClaim(key);
  sums_[h] += val;
  counts_[h] += 1;
  if (val < mins_[h]) mins_[h] = val;
  if (val > maxs_[h]) maxs_[h] = val;
}

void GroupByAggregator::AccumulateScalar(const uint32_t* keys,
                                         const uint32_t* vals, size_t n) {
  for (size_t i = 0; i < n; ++i) FoldScalar(keys[i], vals[i]);
}

void GroupByAggregator::FoldMerge(uint32_t key, uint64_t sum, uint32_t count,
                                  uint32_t min, uint32_t max) {
  const uint32_t h = FindOrClaim(key);
  sums_[h] += sum;
  counts_[h] += count;
  if (min < mins_[h]) mins_[h] = min;
  if (max > maxs_[h]) maxs_[h] = max;
}

void GroupByAggregator::MergeFrom(const GroupByAggregator& other) {
  for (size_t h = 0; h < other.n_buckets_; ++h) {
    if (other.gkeys_[h] == kEmptyKey) continue;
    FoldMerge(other.gkeys_[h], other.sums_[h], other.counts_[h],
              other.mins_[h], other.maxs_[h]);
  }
}

void GroupByAggregator::Accumulate(Isa isa, const uint32_t* keys,
                                   const uint32_t* vals, size_t n) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    AccumulateAvx512(keys, vals, n);
    return;
  }
  AccumulateScalar(keys, vals, n);
}

size_t GroupByAggregator::ExtractScalar(uint32_t* out_keys,
                                        uint64_t* out_sums,
                                        uint32_t* out_counts,
                                        uint32_t* out_mins,
                                        uint32_t* out_maxs) const {
  size_t j = 0;
  for (size_t h = 0; h < n_buckets_; ++h) {
    if (gkeys_[h] == kEmptyKey) continue;
    if (out_keys != nullptr) out_keys[j] = gkeys_[h];
    if (out_sums != nullptr) out_sums[j] = sums_[h];
    if (out_counts != nullptr) out_counts[j] = counts_[h];
    if (out_mins != nullptr) out_mins[j] = mins_[h];
    if (out_maxs != nullptr) out_maxs[j] = maxs_[h];
    ++j;
  }
  return j;
}

size_t GroupByAggregator::Extract(Isa isa, uint32_t* out_keys,
                                  uint64_t* out_sums, uint32_t* out_counts,
                                  uint32_t* out_mins,
                                  uint32_t* out_maxs) const {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return ExtractAvx512(out_keys, out_sums, out_counts, out_mins, out_maxs);
  }
  return ExtractScalar(out_keys, out_sums, out_counts, out_mins, out_maxs);
}

DirectGroupBy::DirectGroupBy(uint32_t lo, size_t width)
    : lo_(lo),
      width_(width),
      sums_(width),
      counts_(width),
      mins_(width),
      maxs_(width) {
  sums_.Clear();
  counts_.Clear();
  std::fill(mins_.begin(), mins_.end(), 0xFFFFFFFFu);
  maxs_.Clear();
}

void DirectGroupBy::Accumulate(const uint32_t* keys, const uint32_t* vals,
                               size_t n) {
  const uint32_t lo = lo_;
  uint64_t* sums = sums_.data();
  uint32_t* counts = counts_.data();
  uint32_t* mins = mins_.data();
  uint32_t* maxs = maxs_.data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t g = keys[i] - lo;
    const uint32_t v = vals[i];
    sums[g] += v;
    counts[g] += 1;
    mins[g] = std::min(mins[g], v);
    maxs[g] = std::max(maxs[g], v);
  }
}

void DirectGroupBy::MergeFrom(const DirectGroupBy& other) {
  assert(other.lo_ == lo_ && other.width_ == width_);
  for (size_t g = 0; g < width_; ++g) {
    sums_[g] += other.sums_[g];
    counts_[g] += other.counts_[g];
    mins_[g] = std::min(mins_[g], other.mins_[g]);
    maxs_[g] = std::max(maxs_[g], other.maxs_[g]);
  }
}

size_t DirectGroupBy::num_groups() const {
  size_t n = 0;
  for (size_t g = 0; g < width_; ++g) n += counts_[g] != 0;
  return n;
}

size_t DirectGroupBy::Extract(uint32_t* out_keys, uint64_t* out_sums,
                              uint32_t* out_counts, uint32_t* out_mins,
                              uint32_t* out_maxs) const {
  size_t j = 0;
  for (size_t g = 0; g < width_; ++g) {
    if (counts_[g] == 0) continue;
    if (out_keys != nullptr) out_keys[j] = lo_ + static_cast<uint32_t>(g);
    if (out_sums != nullptr) out_sums[j] = sums_[g];
    if (out_counts != nullptr) out_counts[j] = counts_[g];
    if (out_mins != nullptr) out_mins[j] = mins_[g];
    if (out_maxs != nullptr) out_maxs[j] = maxs_[g];
    ++j;
  }
  return j;
}

}  // namespace simddb
