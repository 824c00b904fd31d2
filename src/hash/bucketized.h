#ifndef SIMDDB_HASH_BUCKETIZED_H_
#define SIMDDB_HASH_BUCKETIZED_H_

// Bucketized hash tables for *horizontal* vectorization — the prior state
// of the art the paper compares against ([30], Figs. 6-7). A bucket is 16
// contiguous slots (one 512-bit vector of keys); probing broadcasts one
// input key and compares it against a whole bucket with a single vector
// comparison. Open addressing advances bucket-by-bucket (linear or
// double-hashing step); the cuckoo variant has two candidate buckets and
// displaces victims when both are full.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "util/aligned_buffer.h"

namespace simddb {

/// Probe-chain advancement scheme for BucketizedTable.
enum class BucketScheme {
  kLinear,  ///< next bucket = b + 1
  kDouble,  ///< next bucket = b + step(k), step odd, bucket count power of 2
};

/// Open-addressing table with 16-slot buckets and horizontal SIMD probing.
class BucketizedTable {
 public:
  /// num_slots is rounded up to a multiple of 16 (and to a power-of-two
  /// bucket count for the kDouble scheme).
  BucketizedTable(size_t num_slots, BucketScheme scheme, uint64_t seed = 42);

  void Clear();

  /// Inserts n tuples (duplicate keys allowed).
  void BuildScalar(const uint32_t* keys, const uint32_t* pays, size_t n);

  /// Probes; emits (key, probe payload, table payload) per match.
  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  /// One vector comparison per bucket (horizontal vectorization).
  size_t ProbeHorizontalAvx512(const uint32_t* keys, const uint32_t* pays,
                               size_t n, uint32_t* out_keys,
                               uint32_t* out_spays, uint32_t* out_rpays) const;

  size_t num_slots() const { return n_buckets_ * 16; }
  size_t num_buckets() const { return n_buckets_; }
  size_t size() const { return count_; }

 private:
  uint32_t BucketFor(uint32_t k) const {
    return scalar::MultHash(k, factor1_, static_cast<uint32_t>(n_buckets_));
  }
  uint32_t StepFor(uint32_t k) const {
    if (scheme_ == BucketScheme::kLinear) return 1u;
    const uint32_t nb1 = static_cast<uint32_t>(n_buckets_ - 1);
    return (1u + scalar::MultHash(k, factor2_, nb1)) | 1u;
  }

  AlignedBuffer<uint32_t> keys_;
  AlignedBuffer<uint32_t> pays_;
  size_t n_buckets_;
  size_t count_ = 0;
  BucketScheme scheme_;
  uint32_t factor1_;
  uint32_t factor2_;
};

/// Bucketized cuckoo table [30]: two candidate 16-slot buckets per key,
/// displacement when both are full. Build keys must be unique.
class BucketizedCuckooTable {
 public:
  explicit BucketizedCuckooTable(size_t num_slots, uint64_t seed = 42);

  void Clear();

  /// Returns false if insertion failed even after rehashing.
  bool BuildScalar(const uint32_t* keys, const uint32_t* pays, size_t n);

  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  size_t ProbeHorizontalAvx512(const uint32_t* keys, const uint32_t* pays,
                               size_t n, uint32_t* out_keys,
                               uint32_t* out_spays, uint32_t* out_rpays) const;

  size_t num_slots() const { return n_buckets_ * 16; }
  size_t size() const { return count_; }

 private:
  uint32_t Bucket1(uint32_t k) const {
    return scalar::MultHash(k, factor1_, static_cast<uint32_t>(n_buckets_));
  }
  uint32_t Bucket2(uint32_t k) const {
    return scalar::MultHash(k, factor2_, static_cast<uint32_t>(n_buckets_));
  }
  bool Insert(uint32_t k, uint32_t v, uint32_t* rng_state);
  void Reseed();

  AlignedBuffer<uint32_t> keys_;
  AlignedBuffer<uint32_t> pays_;
  size_t n_buckets_;
  size_t count_ = 0;
  uint64_t seed_;
  int reseed_count_ = 0;
  uint32_t factor1_;
  uint32_t factor2_;
};

}  // namespace simddb

#endif  // SIMDDB_HASH_BUCKETIZED_H_
