// AVX2 direct-indexed join probe: 8 keys per vector, one range compare,
// one masked gather of their slots, and emulated selective stores of the
// matches. The rows past the last full vector take the scalar probe.

#include "core/avx2_ops.h"
#include "hash/direct_table.h"

namespace simddb {

size_t DirectJoinTable::ProbeAvx2(const uint32_t* keys, const uint32_t* pays,
                                  size_t n, uint32_t* out_keys,
                                  uint32_t* out_spays,
                                  uint32_t* out_rpays) const {
  namespace v = simddb::avx2;
  const __m256i key_min = _mm256_set1_epi32(static_cast<int>(key_min_));
  // AVX2 has no unsigned compare: k - key_min lies in the domain exactly
  // when min(k - key_min, width - 1) leaves it unchanged.
  const __m256i last = _mm256_set1_epi32(static_cast<int>(width_ - 1));
  const __m256i empty = _mm256_set1_epi32(static_cast<int>(kEmptyKey));
  const int* slots = reinterpret_cast<const int*>(base_);
  size_t i = 0;
  size_t j = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i idx = _mm256_sub_epi32(k, key_min);
    const __m256i in = _mm256_cmpeq_epi32(_mm256_min_epu32(idx, last), idx);
    // Lanes outside the domain keep kEmptyKey and read no memory.
    const __m256i pay = _mm256_mask_i32gather_epi32(empty, slots, idx, in, 4);
    const uint32_t match =
        ~v::MoveMask(_mm256_cmpeq_epi32(pay, empty)) & 0xFFu;
    v::SelectiveStore(out_keys + j, match, k);
    v::SelectiveStore(
        out_spays + j, match,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pays + i)));
    v::SelectiveStore(out_rpays + j, match, pay);
    j += static_cast<size_t>(__builtin_popcount(match));
  }
  return j + ProbeScalar(keys + i, pays + i, n - i, out_keys + j,
                         out_spays + j, out_rpays + j);
}

}  // namespace simddb
