#ifndef SIMDDB_AGG_GROUP_BY_H_
#define SIMDDB_AGG_GROUP_BY_H_

// Hash-based group-by aggregation — the second use of hash tables the paper
// names (§5: "map tuples to unique group ids or insert and update partial
// aggregates"; cf. [25]). Maintains COUNT, SUM (64-bit), MIN and MAX per
// 32-bit group key in an open-addressing (linear probing) table. When the
// keys span a narrow known domain, DirectGroupBy (below) keeps the same
// aggregates in arrays indexed by key instead.
//
// The vectorized accumulate processes one input tuple per lane, gathers the
// group buckets, and resolves the two conflict kinds the paper's designs
// deal with:
//   - bucket claiming: lanes that found an empty bucket claim it via the
//     scatter + gather-back idiom (Alg. 7);
//   - aggregate update: among lanes updating the same bucket in one vector,
//     only the scatter-winner applies its delta; the others retry in the
//     next iteration (the retry-on-conflict pattern of §7.4), so no update
//     is ever lost or double-applied.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "util/aligned_buffer.h"

namespace simddb {

class GroupByAggregator {
 public:
  /// Aggregates for up to max_groups distinct keys (table sized 2x, power
  /// of two). Keys must differ from kEmptyKey (0xFFFFFFFF). max_groups is
  /// a sizing hint, not a hard limit: if more distinct keys arrive, the
  /// table grows (doubling + rehash) in every build mode — the previous
  /// assert-only headroom check made a release build probe forever once
  /// the table filled up.
  explicit GroupByAggregator(size_t max_groups, uint64_t seed = 42);

  /// Drops all groups.
  void Clear();

  /// Folds n (group key, value) pairs into the aggregates.
  void Accumulate(Isa isa, const uint32_t* keys, const uint32_t* vals,
                  size_t n);
  void AccumulateScalar(const uint32_t* keys, const uint32_t* vals, size_t n);
  void AccumulateAvx512(const uint32_t* keys, const uint32_t* vals, size_t n);

  /// Folds every group of `other` into this table (the merge step of
  /// executor sinks that keep one partial per worker lane). Aggregates are
  /// commutative and exact, so any merge order yields the same per-group
  /// values.
  void MergeFrom(const GroupByAggregator& other);

  /// Number of distinct groups accumulated so far.
  size_t num_groups() const { return n_groups_; }

  /// Extracts all groups (in table order) into caller buffers sized
  /// num_groups(); any output pointer may be null to skip that aggregate.
  /// Returns the group count. The AVX-512 path compacts occupied buckets
  /// with selective stores.
  size_t Extract(Isa isa, uint32_t* out_keys, uint64_t* out_sums,
                 uint32_t* out_counts, uint32_t* out_mins,
                 uint32_t* out_maxs) const;

  size_t num_buckets() const { return n_buckets_; }

 private:
  size_t ExtractScalar(uint32_t* out_keys, uint64_t* out_sums,
                       uint32_t* out_counts, uint32_t* out_mins,
                       uint32_t* out_maxs) const;
  size_t ExtractAvx512(uint32_t* out_keys, uint64_t* out_sums,
                       uint32_t* out_counts, uint32_t* out_mins,
                       uint32_t* out_maxs) const;
  void FoldScalar(uint32_t key, uint32_t val);
  void FoldMerge(uint32_t key, uint64_t sum, uint32_t count, uint32_t min,
                 uint32_t max);

  /// Returns key's bucket, claiming (and initializing min/max sentinels
  /// for) a fresh one when absent; doubles the table first whenever a new
  /// claim would exceed the 50% load limit, so probe chains always hit an
  /// empty bucket and terminate regardless of build mode.
  uint32_t FindOrClaim(uint32_t key);
  void Grow();

  /// New groups are only claimed while n_groups_ < grow_limit_; the AVX-512
  /// accumulate drains to the (growable) scalar path when a vector of 16
  /// potential claims could cross it.
  size_t grow_limit() const { return n_buckets_ / 2; }

  AlignedBuffer<uint32_t> gkeys_;
  AlignedBuffer<uint64_t> sums_;
  AlignedBuffer<uint32_t> counts_;
  AlignedBuffer<uint32_t> mins_;
  AlignedBuffer<uint32_t> maxs_;
  size_t n_buckets_;
  size_t n_groups_ = 0;
  uint32_t factor_;
};

/// Direct-indexed group-by over a narrow key domain [lo, lo + width): the
/// aggregates of key k live at index k - lo of four arrays (COUNT, SUM,
/// MIN, MAX; 20 bytes per domain value), so folding a tuple is one indexed
/// update with no hashing, probing or claim conflicts, and groups come out
/// in ascending key order. The fold does not check its keys: every key
/// must lie in the domain (the executor takes the domain from the build
/// side that supplies the keys, exec::GroupByState).
class DirectGroupBy {
 public:
  DirectGroupBy(uint32_t lo, size_t width);

  /// Folds n (group key, value) pairs into the aggregates. Scalar on every
  /// ISA.
  void Accumulate(const uint32_t* keys, const uint32_t* vals, size_t n);

  /// Folds every group of `other`, which must cover the same domain.
  void MergeFrom(const DirectGroupBy& other);

  /// Number of domain values that received at least one tuple.
  size_t num_groups() const;

  /// Extracts the groups in ascending key order into caller buffers sized
  /// num_groups(); any output pointer may be null. Returns the group count.
  size_t Extract(uint32_t* out_keys, uint64_t* out_sums, uint32_t* out_counts,
                 uint32_t* out_mins, uint32_t* out_maxs) const;

 private:
  uint32_t lo_;
  size_t width_;
  AlignedBuffer<uint64_t> sums_;
  AlignedBuffer<uint32_t> counts_;
  AlignedBuffer<uint32_t> mins_;
  AlignedBuffer<uint32_t> maxs_;
};

}  // namespace simddb

#endif  // SIMDDB_AGG_GROUP_BY_H_
