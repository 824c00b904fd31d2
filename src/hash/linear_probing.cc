#include "hash/linear_probing.h"

#include <cassert>
#include <cstring>

namespace simddb {

LinearProbingTable::LinearProbingTable(size_t num_buckets, uint64_t seed)
    : keys_(num_buckets + 16),
      pays_(num_buckets + 16),
      n_buckets_(num_buckets),
      factor_(HashFactor(seed, 0)) {
  assert(num_buckets >= 16);
  Clear();
}

void LinearProbingTable::Clear() {
  std::memset(keys_.data(), 0xFF, keys_.size() * sizeof(uint32_t));
  std::memset(pays_.data(), 0, pays_.size() * sizeof(uint32_t));
  count_ = 0;
  unique_keys_ = true;
}

void LinearProbingTable::SyncWrapPad() {
  std::memcpy(keys_.data() + n_buckets_, keys_.data(), 16 * sizeof(uint32_t));
  std::memcpy(pays_.data() + n_buckets_, pays_.data(), 16 * sizeof(uint32_t));
}

void LinearProbingTable::Build(Isa isa, const uint32_t* keys,
                               const uint32_t* pays, size_t n) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    BuildAvx512(keys, pays, n);
    return;
  }
  // AVX2 has no scatters, so its build is scalar (§9, App. B).
  BuildScalar(keys, pays, n);
}

// Alg. 6: traverse linearly from the hash bucket to the first empty bucket.
// Any earlier copy of the key lies on that walk, so comparing each bucket
// passed is the uniqueness check.
void LinearProbingTable::BuildScalar(const uint32_t* keys,
                                     const uint32_t* pays, size_t n) {
  assert(count_ + n < n_buckets_);
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  bool unique = true;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t h = scalar::MultHash(k, factor_, nb);
    while (keys_[h] != kEmptyKey) {
      unique &= keys_[h] != k;
      if (++h == nb) h = 0;
    }
    keys_[h] = k;
    pays_[h] = pays[i];
  }
  count_ += n;
  unique_keys_ = unique_keys_ && unique;
  SyncWrapPad();
}

// Alg. 4: probe every input key, emitting all matches (the only one when
// the table's keys are unique).
size_t LinearProbingTable::ProbeScalar(const uint32_t* keys,
                                       const uint32_t* pays, size_t n,
                                       uint32_t* out_keys, uint32_t* out_spays,
                                       uint32_t* out_rpays) const {
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    j = ProbeFrom(keys[i], pays[i], scalar::MultHash(keys[i], factor_, nb),
                  out_keys, out_spays, out_rpays, j);
  }
  return j;
}

size_t LinearProbingTable::Probe(Isa isa, const uint32_t* keys,
                                 const uint32_t* pays, size_t n,
                                 uint32_t* out_keys, uint32_t* out_spays,
                                 uint32_t* out_rpays) const {
  switch (isa) {
    case Isa::kAvx512:
      if (IsaSupported(Isa::kAvx512)) {
        return ProbeAvx512(keys, pays, n, out_keys, out_spays, out_rpays);
      }
      break;
    case Isa::kAvx2:
      if (IsaSupported(Isa::kAvx2)) {
        return ProbeAvx2(keys, pays, n, out_keys, out_spays, out_rpays);
      }
      break;
    case Isa::kScalar:
      break;
  }
  return ProbeScalar(keys, pays, n, out_keys, out_spays, out_rpays);
}

}  // namespace simddb
