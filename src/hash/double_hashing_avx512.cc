// AVX-512 vertical double-hashing kernels (§5.2, Alg. 8): identical lane
// management to linear probing, but each lane advances by its own key-
// derived odd step instead of +1, so collision chains of duplicate keys
// spread across the table.

#include <cassert>

#include "core/avx512_ops.h"
#include "hash/double_hashing.h"

namespace simddb {
namespace {

namespace v = simddb::avx512;

// step = (1 + MultHash(k, f2, nb-1)) | 1.
inline __m512i StepVec(__m512i key, __m512i factor2, __m512i nb_minus_1,
                       __m512i one) {
  __m512i s = _mm512_add_epi32(v::MultHash(key, factor2, nb_minus_1), one);
  return _mm512_or_si512(s, one);
}

inline __m512i WrapBucket(__m512i h, __m512i nb) {
  __mmask16 over = _mm512_cmpge_epu32_mask(h, nb);
  return _mm512_mask_sub_epi32(h, over, h, nb);
}

}  // namespace

size_t DoubleHashingTable::ProbeAvx512(const uint32_t* keys,
                                       const uint32_t* pays, size_t n,
                                       uint32_t* out_keys, uint32_t* out_spays,
                                       uint32_t* out_rpays) const {
  const __m512i f1 = _mm512_set1_epi32(static_cast<int>(factor1_));
  const __m512i f2 = _mm512_set1_epi32(static_cast<int>(factor2_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i nb1 = _mm512_set1_epi32(static_cast<int>(n_buckets_ - 1));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i h = _mm512_setzero_si512();
  __m512i step = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;
  size_t i = 0;
  size_t j = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    // Reloaded lanes recompute h and step; survivors advance by their step.
    __m512i h0 = v::MultHash(key, f1, nb);
    step = _mm512_mask_mov_epi32(step, need, StepVec(key, f2, nb1, one));
    __m512i advanced = WrapBucket(_mm512_add_epi32(h, step), nb);
    h = _mm512_mask_blend_epi32(need, advanced, h0);
    __m512i table_key = v::Gather(keys_.data(), h);
    __mmask16 match = _mm512_cmpeq_epi32_mask(table_key, key);
    if (match != 0) {
      __m512i table_pay = v::MaskGather(table_key, match, pays_.data(), h);
      v::SelectiveStore(out_keys + j, match, key);
      v::SelectiveStore(out_spays + j, match, pay);
      v::SelectiveStore(out_rpays + j, match, table_pay);
      j += __builtin_popcount(match);
    }
    need = _mm512_cmpeq_epi32_mask(table_key, empty);
  }
  // Drain in-flight lanes: continue each one scalar from its current bucket.
  alignas(64) uint32_t lk[16], lv[16], lh[16], ls[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  _mm512_store_si512(lh, h);
  _mm512_store_si512(ls, step);
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t k = lk[lane];
    uint32_t bucket = lh[lane] + ls[lane];
    if (bucket >= nb_s) bucket -= nb_s;
    while (keys_[bucket] != kEmptyKey) {
      if (keys_[bucket] == k) {
        out_rpays[j] = pays_[bucket];
        out_spays[j] = lv[lane];
        out_keys[j] = k;
        ++j;
      }
      bucket += ls[lane];
      if (bucket >= nb_s) bucket -= nb_s;
    }
  }
  j += ProbeScalar(keys + i, pays + i, n - i, out_keys + j, out_spays + j,
                   out_rpays + j);
  return j;
}

void DoubleHashingTable::BuildAvx512(const uint32_t* keys,
                                     const uint32_t* pays, size_t n) {
  assert(count_ + n < n_buckets_);
  const __m512i f1 = _mm512_set1_epi32(static_cast<int>(factor1_));
  const __m512i f2 = _mm512_set1_epi32(static_cast<int>(factor2_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i nb1 = _mm512_set1_epi32(static_cast<int>(n_buckets_ - 1));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i lane_ids =
      _mm512_set_epi32(16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i h = _mm512_setzero_si512();
  __m512i step = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;
  size_t i = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m512i h0 = v::MultHash(key, f1, nb);
    step = _mm512_mask_mov_epi32(step, need, StepVec(key, f2, nb1, one));
    __m512i advanced = WrapBucket(_mm512_add_epi32(h, step), nb);
    h = _mm512_mask_blend_epi32(need, advanced, h0);
    __m512i table_key = v::Gather(keys_.data(), h);
    __mmask16 at_empty = _mm512_cmpeq_epi32_mask(table_key, empty);
    v::MaskScatter(keys_.data(), at_empty, h, lane_ids);
    __m512i back = v::MaskGather(lane_ids, at_empty, keys_.data(), h);
    __mmask16 win = _mm512_mask_cmpeq_epi32_mask(at_empty, back, lane_ids);
    v::MaskScatter(keys_.data(), win, h, key);
    v::MaskScatter(pays_.data(), win, h, pay);
    need = win;
  }
  count_ += i;
  alignas(64) uint32_t lk[16], lv[16], lh[16], ls[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  _mm512_store_si512(lh, h);
  _mm512_store_si512(ls, step);
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t bucket = lh[lane] + ls[lane];
    if (bucket >= nb_s) bucket -= nb_s;
    while (keys_[bucket] != kEmptyKey) {
      bucket += ls[lane];
      if (bucket >= nb_s) bucket -= nb_s;
    }
    keys_[bucket] = lk[lane];
    pays_[bucket] = lv[lane];
  }
  BuildScalar(keys + i, pays + i, n - i);
}

}  // namespace simddb
