#ifndef SIMDDB_HASH_DIRECT_TABLE_H_
#define SIMDDB_HASH_DIRECT_TABLE_H_

// Direct-indexed join table for dense build keys: the payload of key k
// lives at slot k - key_min of one array, and kEmptyKey marks the domain
// values no build key holds. A probe is a range check and one load (one
// masked gather per vector): no hashing, no cluster walk, and no second
// access for the payload, because the key itself is the slot. A slot is
// 4 bytes against a LinearProbingTable bucket's 8 (key + payload), so over
// a key range of at most twice the table's bucket count (Fits) the array
// holds no more memory than the hash table it replaces.
//
// Payloads must differ from kEmptyKey, which marks absent keys, and every
// build key must lie in the domain. The build does not check either; the
// executor takes the domain from the build side's own key range and
// rejects the reserved value before it chooses this layout
// (exec::HashBuildOp).
//
// A table either owns its array or is a Window of another table's: a
// read-only view of the slots of a sub-range of keys, through which a
// catalog's join index (exec::JoinIndex) serves each query's r= window
// without copying it.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "hash/hash_table.h"
#include "util/aligned_buffer.h"

namespace simddb {

class DirectJoinTable {
 public:
  /// True when [key_min, key_max] is non-empty and spans at most
  /// 2 * buckets values, and at most 2^31 (the reach of a gather's signed
  /// 32-bit index). `buckets` is the size of the LinearProbingTable the
  /// array would replace.
  static bool Fits(uint32_t key_min, uint32_t key_max, size_t buckets);

  /// An empty table over the domain [key_min, key_min + width). width must
  /// be at least 1, and the domain must end below kEmptyKey.
  DirectJoinTable(uint32_t key_min, size_t width);

  /// A view of `whole`'s slots for the keys [lo, hi], which must lie in
  /// its domain: it probes as `whole` would with every key outside [lo, hi]
  /// removed. It borrows `whole`'s array, which must outlive it, and
  /// cannot Build.
  static DirectJoinTable Window(const DirectJoinTable& whole, uint32_t lo,
                                uint32_t hi);

  /// Stores n (key, payload) tuples, serially, into a table that owns its
  /// array. Returns false when a key repeats, within this call or against
  /// an earlier one; the later payload then replaces the earlier.
  bool Build(const uint32_t* keys, const uint32_t* pays, size_t n);

  /// Probes n (key, payload) tuples; writes one output tuple (key, probe
  /// payload, table payload) per match, in input order, and returns the
  /// match count. Output buffers must have room for n tuples. A key
  /// outside the domain, kEmptyKey among them, matches nothing.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_spays,
               uint32_t* out_rpays) const;
  size_t ProbeScalar(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;
  size_t ProbeAvx2(const uint32_t* keys, const uint32_t* pays, size_t n,
                   uint32_t* out_keys, uint32_t* out_spays,
                   uint32_t* out_rpays) const;
  size_t ProbeAvx512(const uint32_t* keys, const uint32_t* pays, size_t n,
                     uint32_t* out_keys, uint32_t* out_spays,
                     uint32_t* out_rpays) const;

  /// The slot of key key_min() + i is slots()[i], for i < width().
  const uint32_t* slots() const { return base_; }
  uint32_t key_min() const { return key_min_; }
  size_t width() const { return width_; }

 private:
  DirectJoinTable(const uint32_t* base, uint32_t key_min, size_t width)
      : base_(base), key_min_(key_min), width_(width) {}

  AlignedBuffer<uint32_t> owned_;  // empty in a Window
  const uint32_t* base_;           // owned_.data(), or the viewed slots
  uint32_t key_min_;
  size_t width_;
};

}  // namespace simddb

#endif  // SIMDDB_HASH_DIRECT_TABLE_H_
