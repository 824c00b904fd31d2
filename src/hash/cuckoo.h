#ifndef SIMDDB_HASH_CUCKOO_H_
#define SIMDDB_HASH_CUCKOO_H_

// Cuckoo hash table with two hash functions (§5.3, [23]). Every key resides
// in exactly one of its two candidate buckets, so probing needs at most two
// accesses and emits at most one match per probe key. Duplicate build keys
// are not supported (the paper: "cuckoo tables do not directly support key
// repeats").
//
// Probe variants (Fig. 7):
//   scalar branching    check bucket 2 only if bucket 1 missed.
//   scalar branchless   always load both buckets, blend with bitwise ops [42].
//   vertical select     Alg. 9 — gather bucket 1, selectively gather bucket 2
//                       for the lanes that missed.
//   vertical blend      gather both buckets for all lanes, then blend.
// Build variants:
//   scalar              displacement loop with a kick bound; on failure the
//                       whole build retries with fresh hash factors.
//   vector (Alg. 10)    lanes carry new, conflicting, or displaced tuples;
//                       scatter + gather-back detects conflicts.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "util/aligned_buffer.h"

namespace simddb {

class CuckooTable {
 public:
  /// Creates a table with num_buckets single-slot buckets (>= 32). Keep the
  /// load factor at or below ~50% for reliable insertion.
  explicit CuckooTable(size_t num_buckets, uint64_t seed = 42);

  /// Empties the table (hash factors are kept).
  void Clear();

  /// Inserts n tuples with unique keys. Returns false only if insertion
  /// failed repeatedly even after rehashing with fresh factors (table too
  /// full); the table is left cleared in that case.
  bool Build(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n);
  bool BuildScalar(const uint32_t* keys, const uint32_t* pays, size_t n);
  bool BuildAvx512(const uint32_t* keys, const uint32_t* pays, size_t n);

  /// Probe variants; all write (key, probe payload, table payload) per match
  /// and return the match count.
  size_t ProbeScalarBranching(const uint32_t* keys, const uint32_t* pays,
                              size_t n, uint32_t* out_keys,
                              uint32_t* out_spays, uint32_t* out_rpays) const;
  size_t ProbeScalarBranchless(const uint32_t* keys, const uint32_t* pays,
                               size_t n, uint32_t* out_keys,
                               uint32_t* out_spays,
                               uint32_t* out_rpays) const;
  size_t ProbeVerticalSelectAvx512(const uint32_t* keys, const uint32_t* pays,
                                   size_t n, uint32_t* out_keys,
                                   uint32_t* out_spays,
                                   uint32_t* out_rpays) const;
  size_t ProbeVerticalBlendAvx512(const uint32_t* keys, const uint32_t* pays,
                                  size_t n, uint32_t* out_keys,
                                  uint32_t* out_spays,
                                  uint32_t* out_rpays) const;
  size_t ProbeAvx2(const uint32_t* keys, const uint32_t* pays, size_t n,
                   uint32_t* out_keys, uint32_t* out_spays,
                   uint32_t* out_rpays) const;

  size_t num_buckets() const { return n_buckets_; }
  size_t size() const { return count_; }
  const uint32_t* bucket_keys() const { return keys_.data(); }
  const uint32_t* bucket_pays() const { return pays_.data(); }
  uint32_t Hash1(uint32_t k) const {
    return scalar::MultHash(k, factor1_, static_cast<uint32_t>(n_buckets_));
  }
  uint32_t Hash2(uint32_t k) const {
    return scalar::MultHash(k, factor2_, static_cast<uint32_t>(n_buckets_));
  }

 private:
  /// One scalar insertion attempt with bounded displacements.
  bool InsertScalar(uint32_t k, uint32_t v);
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

#endif  // SIMDDB_HASH_CUCKOO_H_
