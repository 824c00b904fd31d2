// AVX2 vertical linear-probing probe (the paper's Haswell variant, App. E):
// native gathers, emulated selective loads/stores, 8 keys per vector.

#include "core/avx2_ops.h"
#include "hash/linear_probing.h"

namespace simddb {

size_t LinearProbingTable::ProbeAvx2(const uint32_t* keys,
                                     const uint32_t* pays, size_t n,
                                     uint32_t* out_keys, uint32_t* out_spays,
                                     uint32_t* out_rpays) const {
  namespace v = simddb::avx2;
  const __m256i factor = _mm256_set1_epi32(static_cast<int>(factor_));
  const __m256i nb = _mm256_set1_epi32(static_cast<int>(n_buckets_));
  const __m256i empty = _mm256_set1_epi32(static_cast<int>(kEmptyKey));
  const __m256i one = _mm256_set1_epi32(1);
  // All-ones when the build verified unique keys: a lane then finishes at
  // its match as well as at an empty bucket.
  const __m256i stop_at_match = _mm256_set1_epi32(unique_keys_ ? -1 : 0);
  __m256i key = _mm256_setzero_si256();
  __m256i pay = _mm256_setzero_si256();
  __m256i off = _mm256_setzero_si256();
  uint32_t need = 0xFF;
  size_t i = 0;
  size_t j = 0;
  while (i + 8 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m256i h = v::MultHash(key, factor, nb);
    h = _mm256_add_epi32(h, off);
    // Wrap h into [0, nb): h and nb are < 2^31 in practice, so a signed
    // compare is safe here.
    __m256i over = _mm256_cmpgt_epi32(nb, h);
    h = _mm256_sub_epi32(h, _mm256_andnot_si256(over, nb));
    __m256i table_key = v::Gather(keys_.data(), h);
    // An empty bucket never matches, not even a probe key equal to the
    // empty marker.
    const __m256i at_empty = _mm256_cmpeq_epi32(table_key, empty);
    __m256i match_v =
        _mm256_andnot_si256(at_empty, _mm256_cmpeq_epi32(table_key, key));
    uint32_t match = v::MoveMask(match_v);
    if (match != 0) {
      __m256i table_pay = v::MaskGather(table_key, match, pays_.data(), h);
      v::SelectiveStore(out_keys + j, match, key);
      v::SelectiveStore(out_spays + j, match, pay);
      v::SelectiveStore(out_rpays + j, match, table_pay);
      j += __builtin_popcount(match);
    }
    __m256i done = _mm256_or_si256(at_empty,
                                   _mm256_and_si256(match_v, stop_at_match));
    need = v::MoveMask(done);
    // off = need ? 0 : off + 1.
    off = _mm256_andnot_si256(done, _mm256_add_epi32(off, one));
  }
  // Drain in-flight lanes, then the input tail, with scalar code.
  alignas(32) uint32_t lk[8], lv[8], lo[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lk), key);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lv), pay);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lo), off);
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (int lane = 0; lane < 8; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t h = scalar::MultHash(lk[lane], factor_, nb_s) + lo[lane];
    if (h >= nb_s) h -= nb_s;
    j = ProbeFrom(lk[lane], lv[lane], h, out_keys, out_spays, out_rpays, j);
  }
  j += ProbeScalar(keys + i, pays + i, n - i, out_keys + j, out_spays + j,
                   out_rpays + j);
  return j;
}

}  // namespace simddb
