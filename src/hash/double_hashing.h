#ifndef SIMDDB_HASH_DOUBLE_HASHING_H_
#define SIMDDB_HASH_DOUBLE_HASHING_H_

// Double-hashing hash table (§5.2): open addressing where the probe step is
// itself a hash of the key, so duplicate keys do not cluster in one region
// the way they do under linear probing (Alg. 8).
//
// Probe sequence: h0 = MultHash(k, f1, |T|),
// step = (1 + MultHash(k, f2, |T|-1)) | 1, h_{i+1} = (h_i + step) mod |T|.
//
// Deviation from the paper, documented: the paper guarantees full-cycle
// probing by making |T| prime; we instead round |T| up to a power of two and
// force the step odd (gcd(step, 2^k) = 1 gives the same full-cycle
// guarantee with cheaper arithmetic and power-of-two-friendly sizing).

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "util/aligned_buffer.h"

namespace simddb {

class DoubleHashingTable {
 public:
  /// Creates a table; num_buckets is rounded up to a power of two (>= 16).
  explicit DoubleHashingTable(size_t num_buckets, uint64_t seed = 42);

  /// Empties the table.
  void Clear();

  void Build(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n);
  void BuildScalar(const uint32_t* keys, const uint32_t* pays, size_t n);
  void BuildAvx512(const uint32_t* keys, const uint32_t* pays, size_t n);

  /// Emits (key, probe payload, table payload) per match; returns the count.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_spays,
               uint32_t* out_rpays) const;
  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  size_t ProbeAvx512(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  size_t ProbeAvx2(const uint32_t* keys, const uint32_t* pays, size_t n,
                   uint32_t* out_keys, uint32_t* out_spays,
                   uint32_t* out_rpays) const;

  size_t num_buckets() const { return n_buckets_; }
  size_t size() const { return count_; }
  const uint32_t* bucket_keys() const { return keys_.data(); }
  const uint32_t* bucket_pays() const { return pays_.data(); }

  /// Probe step for key k (odd, in [1, num_buckets)).
  uint32_t StepFor(uint32_t k) const {
    return (1u + scalar::MultHash(k, factor2_,
                                  static_cast<uint32_t>(n_buckets_ - 1))) |
           1u;
  }
  /// First bucket probed for key k.
  uint32_t HashFor(uint32_t k) const {
    return scalar::MultHash(k, factor1_, static_cast<uint32_t>(n_buckets_));
  }

 private:
  AlignedBuffer<uint32_t> keys_;
  AlignedBuffer<uint32_t> pays_;
  size_t n_buckets_;
  size_t count_ = 0;
  uint32_t factor1_;
  uint32_t factor2_;
};

}  // namespace simddb

#endif  // SIMDDB_HASH_DOUBLE_HASHING_H_
