#ifndef SIMDDB_HASH_HASH_TABLE_H_
#define SIMDDB_HASH_HASH_TABLE_H_

// Shared definitions for the hash-table operators of §5. All tables store
// 32-bit keys with 32-bit payloads in split (SoA) bucket arrays, hash with
// scalar::MultHash (the paper's multiply + mulhi of §5 behind a
// multiply-xorshift-multiply mix) and its vector mirrors, and mark empty
// buckets with a reserved key value.

#include <cstdint>

#include "core/scalar_ops.h"
#include "util/rng.h"

namespace simddb {

/// Reserved key marking an empty bucket; no input tuple may use it.
inline constexpr uint32_t kEmptyKey = 0xFFFFFFFFu;

/// Derives the i-th odd multiplicative hash factor from a seed.
inline uint32_t HashFactor(uint64_t seed, int i) {
  return static_cast<uint32_t>(SplitMix64(seed + 0x1234u * i + 1)) | 1u;
}

}  // namespace simddb

#endif  // SIMDDB_HASH_HASH_TABLE_H_
