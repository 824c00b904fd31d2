#include "bloom/bloom_filter.h"

#include <cassert>

#include "hash/hash_table.h"
#include "util/bits.h"

namespace simddb {

BloomFilter::BloomFilter(size_t n_bits, int k, uint64_t seed)
    : n_bits_(NextPowerOfTwo(n_bits < 512 ? 512 : n_bits)), k_(k) {
  assert(k >= 1 && k <= kMaxFunctions);
  assert(n_bits_ <= (size_t{1} << 31));
  words_.Reset(n_bits_ / 32);
  for (int i = 0; i < kMaxFunctions; ++i) factors_[i] = HashFactor(seed, i);
  Clear();
}

void BloomFilter::Clear() { words_.Clear(); }

void BloomFilter::Add(const uint32_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    for (int fi = 0; fi < k_; ++fi) {
      uint32_t b = BitFor(keys[i], fi);
      words_[b >> 5] |= 1u << (b & 31);
    }
  }
}

bool BloomFilter::MightContain(uint32_t key) const {
  for (int fi = 0; fi < k_; ++fi) {
    uint32_t b = BitFor(key, fi);
    if ((words_[b >> 5] & (1u << (b & 31))) == 0) return false;
  }
  return true;
}

size_t BloomFilter::ProbeScalar(const uint32_t* keys, const uint32_t* pays,
                                size_t n, uint32_t* out_keys,
                                uint32_t* out_pays) const {
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (MightContain(keys[i])) {
      out_keys[j] = keys[i];
      out_pays[j] = pays[i];
      ++j;
    }
  }
  return j;
}

size_t BloomFilter::Probe(Isa isa, const uint32_t* keys, const uint32_t* pays,
                          size_t n, uint32_t* out_keys,
                          uint32_t* out_pays) const {
  switch (isa) {
    case Isa::kAvx512:
      if (IsaSupported(Isa::kAvx512)) {
        return ProbeAvx512(keys, pays, n, out_keys, out_pays);
      }
      break;
    case Isa::kAvx2:
      if (IsaSupported(Isa::kAvx2)) {
        return ProbeAvx2(keys, pays, n, out_keys, out_pays);
      }
      break;
    case Isa::kScalar:
      break;
  }
  return ProbeScalar(keys, pays, n, out_keys, out_pays);
}

}  // namespace simddb
