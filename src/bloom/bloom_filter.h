#ifndef SIMDDB_BLOOM_BLOOM_FILTER_H_
#define SIMDDB_BLOOM_BLOOM_FILTER_H_

// Bloom filter with k multiplicative hash functions (§6), used to apply
// selective conditions across tables before joining them (semi-join).
// Probing aborts a key as soon as one bit test fails — most non-qualifying
// keys fail after one or two tests — which the vectorized probe preserves
// by refilling failed lanes from the input with selective loads, the design
// of [27] that this paper evaluates on 512-bit vectors.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "core/scalar_ops.h"
#include "util/aligned_buffer.h"

namespace simddb {

class BloomFilter {
 public:
  static constexpr int kMaxFunctions = 8;

  /// Creates a filter with at least n_bits bits (rounded up to a power of
  /// two, minimum 512) and k hash functions (1..kMaxFunctions).
  BloomFilter(size_t n_bits, int k, uint64_t seed = 42);

  /// Convenience sizing: bits_per_item * n_items bits.
  static BloomFilter ForItems(size_t n_items, int bits_per_item, int k,
                              uint64_t seed = 42) {
    return BloomFilter(n_items * static_cast<size_t>(bits_per_item), k, seed);
  }

  /// Clears all bits.
  void Clear();

  /// Inserts n keys (sets k bits per key).
  void Add(const uint32_t* keys, size_t n);

  /// True if key may have been inserted (false positives possible, false
  /// negatives impossible).
  bool MightContain(uint32_t key) const;

  /// Filters (key, payload) pairs, keeping those whose k bits are all set.
  /// Returns the number of qualifying tuples. The vector variants emit
  /// qualifiers out of input order.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_pays) const;
  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_pays) const;
  size_t ProbeAvx512(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_pays) const;
  size_t ProbeAvx2(const uint32_t* keys, const uint32_t* pays, size_t n,
                   uint32_t* out_keys, uint32_t* out_pays) const;

  size_t n_bits() const { return n_bits_; }
  int k() const { return k_; }
  const uint32_t* words() const { return words_.data(); }
  const uint32_t* factors() const { return factors_; }

  /// Bit index of hash function fi for key (fi in [0, k)).
  uint32_t BitFor(uint32_t key, int fi) const {
    return scalar::MultHash(key, factors_[fi], static_cast<uint32_t>(n_bits_));
  }

 private:
  AlignedBuffer<uint32_t> words_;
  size_t n_bits_;
  int k_;
  uint32_t factors_[kMaxFunctions];
};

}  // namespace simddb

#endif  // SIMDDB_BLOOM_BLOOM_FILTER_H_
