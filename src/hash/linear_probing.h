#ifndef SIMDDB_HASH_LINEAR_PROBING_H_
#define SIMDDB_HASH_LINEAR_PROBING_H_

// Linear-probing hash table (§5.1): open addressing, no pointers, traverse
// linearly until an empty bucket. Build and probe exist in three forms:
//
//   scalar       Alg. 4 / Alg. 6 — the paper's baseline.
//   vertical     Alg. 5 / Alg. 7 — one input key per vector lane, gathers
//                into the table, lane refill via selective loads, conflict
//                detection on build via scatter + gather-back.
//   horizontal   one probe key compared against W consecutive buckets with
//                one vector comparison (the prior state of the art [30];
//                see also bucketized.h for the bucket-aligned variant).
//
// Two multi-core builds serve §9's joins. BuildPartitioned, the executor's
// and the min-partition join's (§7's partitioning feeding per-thread
// builds): hash-partitioning the input with the table's own hash factor
// into P ranges of home buckets lets P tasks insert with the scalar walk,
// each into a bucket range no other task touches, so no atomics are
// needed. BuildShared, the no-partition join's: every lane inserts
// anywhere, claiming buckets by atomic compare-and-swap.
//
// Duplicate keys are allowed; Probe* returns every match. Every build
// checks whether the key it inserts is already present (unique_keys()).
// While no build since the last Clear() found a repeat, each probe key
// stops at its match instead of walking on to the first empty bucket; a
// table with repeats keeps the full-chain probe. The table must keep at
// least one empty bucket (load factor < 1) or probing of an absent key
// would not terminate.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "util/aligned_buffer.h"

namespace simddb {

class LinearProbingTable {
 public:
  /// Creates a table with `num_buckets` buckets (must be >= 16). The seed
  /// determines the hash factor.
  explicit LinearProbingTable(size_t num_buckets, uint64_t seed = 42);

  /// Empties the table.
  void Clear();

  /// Inserts n (key, payload) tuples. Keys must differ from kEmptyKey and
  /// total occupancy must stay below num_buckets(). A key equal to one
  /// already in the table (from this call or an earlier one) is inserted
  /// too, and clears unique_keys().
  void Build(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n);
  void BuildScalar(const uint32_t* keys, const uint32_t* pays, size_t n);
  /// Alg. 7. If assume_unique_keys is true, uses the paper's optimization of
  /// scattering the keys themselves to detect conflicts (saves one scatter)
  /// and trusts the caller: the vector loop does not check for repeats.
  void BuildAvx512(const uint32_t* keys, const uint32_t* pays, size_t n,
                   bool assume_unique_keys = false);

  /// Inserts n tuples like BuildScalar, on up to `threads` TaskPool lanes,
  /// split into `partitions` (P, a power of two) home-bucket ranges. P == 1
  /// is exactly BuildScalar. For P > 1, num_buckets() must be a power of
  /// two >= P: the input is hash-partitioned (ParallelPartitionPass; `isa`
  /// picks its kernels) so that partition j holds the keys whose home
  /// bucket lies in [j*nb/P, (j+1)*nb/P), and one task per partition
  /// inserts them with the scalar walk, confined to that range. A key whose
  /// walk reaches the end of its range is set aside; afterwards BuildScalar
  /// inserts the set-aside keys with the wrap-around walk. Equal keys share
  /// a home bucket, hence a task, so a repeat still meets its earlier copy
  /// in some walk and clears unique_keys(). The layout depends on the input
  /// and P, never on `threads`. Returns the number of set-aside keys. If
  /// `partition_s` is non-null it receives the partition pass's wall
  /// seconds (0 for P == 1).
  size_t BuildPartitioned(Isa isa, const uint32_t* keys, const uint32_t* pays,
                          size_t n, int threads, uint32_t partitions,
                          double* partition_s = nullptr);

  /// Inserts n tuples into an empty table on up to `threads` TaskPool
  /// lanes and leaves the layout BuildScalar leaves, at every lane count.
  /// The keys are trusted to be unique, as BuildAvx512(..., true) trusts
  /// them: several lanes check nothing. One lane runs BuildScalar. Several
  /// lanes claim buckets by atomic compare-and-swap with row ids, earlier
  /// rows first: a row that meets a later row's claim takes the bucket and
  /// carries the later row on, which ends in the serial layout whatever the
  /// interleaving (Shun and Blelloch's phase-concurrent linear probing); a
  /// pass over the buckets then swaps each id for its key and payload. A
  /// key equal to kEmptyKey claims no bucket (BuildScalar writes it as an
  /// empty one). Several lanes run two ParallelFor calls, over n's morsel
  /// grid and then over the buckets'.
  void BuildShared(const uint32_t* keys, const uint32_t* pays, size_t n,
                   int threads);

  /// The executor's P for BuildPartitioned on `lanes` lanes: 1 on one lane;
  /// otherwise the smallest power of two giving at least two partitions per
  /// lane and at most 256 KB of buckets per range, capped so that a range
  /// keeps at least 16 buckets.
  static uint32_t BuildPartitions(size_t num_buckets, int lanes);

  /// True while no key was inserted twice since construction or Clear().
  /// Probes then stop each key at its (only) match.
  bool unique_keys() const { return unique_keys_; }

  /// Probes n (key, payload) tuples; writes one output tuple
  /// (key, probe payload, table payload) per match and returns the match
  /// count. Output buffers must have room for all matches (at most n when
  /// unique_keys()). Vertical variants emit matches out of input order (the
  /// paper's "unstable" probing); the scalar and horizontal variants are
  /// stable. A probe key equal to kEmptyKey matches nothing in any variant.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_spays,
               uint32_t* out_rpays) const;
  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  /// Alg. 5 with two independent 16-lane vectors per loop iteration, so
  /// one vector's gathers overlap the other's refill and hashing; a 16-31
  /// key remainder runs on one vector.
  size_t ProbeAvx512(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  size_t ProbeAvx2(const uint32_t* keys, const uint32_t* pays, size_t n,
                   uint32_t* out_keys, uint32_t* out_spays,
                   uint32_t* out_rpays) const;
  /// Horizontal vectorization: each probe key is compared against 16
  /// consecutive buckets per step (wrap-around handled via a 16-bucket
  /// mirror pad).
  size_t ProbeHorizontalAvx512(const uint32_t* keys, const uint32_t* pays,
                               size_t n, uint32_t* out_keys,
                               uint32_t* out_spays, uint32_t* out_rpays) const;

  size_t num_buckets() const { return n_buckets_; }
  size_t size() const { return count_; }
  uint32_t factor() const { return factor_; }
  const uint32_t* bucket_keys() const { return keys_.data(); }
  const uint32_t* bucket_pays() const { return pays_.data(); }

 private:
  // Mirrors buckets [0, 16) after the end of the arrays so horizontal
  // probing can read a full window at any starting bucket.
  void SyncWrapPad();

  // Walks key k's chain from bucket h, appending one output tuple per match
  // at index j; stops at the first match when unique_keys_. Returns the new
  // output count. The scalar probe and the vector probes' in-flight lanes
  // share it.
  size_t ProbeFrom(uint32_t k, uint32_t spay, uint32_t h, uint32_t* out_keys,
                   uint32_t* out_spays, uint32_t* out_rpays, size_t j) const {
    const uint32_t nb = static_cast<uint32_t>(n_buckets_);
    while (keys_[h] != kEmptyKey) {
      if (keys_[h] == k) {
        out_rpays[j] = pays_[h];
        out_spays[j] = spay;
        out_keys[j] = k;
        ++j;
        if (unique_keys_) break;
      }
      if (++h == nb) h = 0;
    }
    return j;
  }

  AlignedBuffer<uint32_t> keys_;
  AlignedBuffer<uint32_t> pays_;
  size_t n_buckets_;
  size_t count_ = 0;
  uint64_t seed_;
  uint32_t factor_;
  bool unique_keys_ = true;
};

}  // namespace simddb

#endif  // SIMDDB_HASH_LINEAR_PROBING_H_
