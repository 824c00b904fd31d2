#ifndef SIMDDB_PARTITION_PARTITION_FN_H_
#define SIMDDB_PARTITION_PARTITION_FN_H_

// Partition functions (§7): radix (shift+mask) and hash (multiplicative).
// Range partitioning has its own machinery in range.h since it needs a
// splitter array.

#include <cstdint>

#include "hash/hash_table.h"

namespace simddb {

/// A radix or hash partition function over 32-bit keys.
///
/// kRadix:  partition = (key >> shift) & (fanout - 1)
/// kHash:   partition = (MultHash(key, factor, total) >> shift) & (fanout - 1)
///          with total == fanout and shift == 0 this is plain multiplicative
///          hashing (fanout need not be a power of two); the general form
///          lets multi-pass hash partitioning (max-partition join, §9) take
///          different bit ranges of one hash value per pass.
struct PartitionFn {
  enum class Kind { kRadix, kHash };

  Kind kind = Kind::kRadix;
  uint32_t fanout = 1;
  uint32_t shift = 0;
  uint32_t factor = 1;
  uint32_t total = 1;  ///< kHash: range of the underlying hash value

  /// Radix function extracting `bits` bits starting at `shift`.
  static PartitionFn Radix(uint32_t bits, uint32_t shift_amount) {
    PartitionFn fn;
    fn.kind = Kind::kRadix;
    fn.fanout = 1u << bits;
    fn.shift = shift_amount;
    return fn;
  }

  /// Multiplicative hash function with `fanout` partitions.
  static PartitionFn Hash(uint32_t fanout, uint64_t seed = 42) {
    PartitionFn fn;
    fn.kind = Kind::kHash;
    fn.fanout = fanout;
    fn.total = fanout;
    fn.factor = HashFactor(seed, 0);
    return fn;
  }

  /// Pass `pass_bits` bits at `shift_amount` of a hash value in [0, total);
  /// total must be a power of two covering all passes' bits.
  static PartitionFn HashRadix(uint32_t pass_bits, uint32_t shift_amount,
                               uint32_t total, uint64_t seed = 42) {
    PartitionFn fn;
    fn.kind = Kind::kHash;
    fn.fanout = 1u << pass_bits;
    fn.shift = shift_amount;
    fn.total = total;
    fn.factor = HashFactor(seed, 0);
    return fn;
  }

  uint32_t operator()(uint32_t key) const {
    if (kind == Kind::kRadix) return (key >> shift) & (fanout - 1);
    uint32_t h = scalar::MultHash(key, factor, total);
    // Plain multiplicative hashing already lands in [0, fanout); masking
    // would corrupt non-power-of-two fanouts.
    if (shift == 0 && total == fanout) return h;
    return (h >> shift) & (fanout - 1);
  }
};

}  // namespace simddb

#endif  // SIMDDB_PARTITION_PARTITION_FN_H_
