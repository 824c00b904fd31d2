// AVX-512 linear-probing kernels: vertical probe (Alg. 5), vertical build
// (Alg. 7) with scatter/gather-back conflict detection, and the horizontal
// (one-key-vs-W-buckets) probe used as the prior-art comparison point.

#include <cassert>

#include "core/avx512_ops.h"
#include "hash/linear_probing.h"

namespace simddb {
namespace {

namespace v = simddb::avx512;

// h in [0, 2*nb) -> h mod nb with one conditional subtract.
inline __m512i WrapBucket(__m512i h, __m512i nb) {
  __mmask16 over = _mm512_cmpge_epu32_mask(h, nb);
  return _mm512_mask_sub_epi32(h, over, h, nb);
}

}  // namespace

// Alg. 5: one probe key per lane; finished lanes are refilled from the
// input with selective loads, so every lane stays busy regardless of how
// long each key's probe chain is.
size_t LinearProbingTable::ProbeAvx512(const uint32_t* keys,
                                       const uint32_t* pays, size_t n,
                                       uint32_t* out_keys, uint32_t* out_spays,
                                       uint32_t* out_rpays) const {
  const __m512i factor = _mm512_set1_epi32(static_cast<int>(factor_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;  // lanes whose key is finished (need a reload)
  size_t i = 0;
  size_t j = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m512i h = v::MultHash(key, factor, nb);
    h = WrapBucket(_mm512_add_epi32(h, off), nb);
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
    // off = need ? 0 : off + 1 (reloaded lanes restart at their hash bucket).
    off = _mm512_maskz_add_epi32(static_cast<__mmask16>(~need), off, one);
  }
  // Finish the up-to-16 in-flight lanes with scalar code (§5.1).
  alignas(64) uint32_t lk[16], lv[16], lo[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  _mm512_store_si512(lo, off);
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t k = lk[lane];
    uint32_t h = scalar::MultHash(k, factor_, nb_s) + lo[lane];
    if (h >= nb_s) h -= nb_s;
    while (keys_[h] != kEmptyKey) {
      if (keys_[h] == k) {
        out_rpays[j] = pays_[h];
        out_spays[j] = lv[lane];
        out_keys[j] = k;
        ++j;
      }
      if (++h == nb_s) h = 0;
    }
  }
  // Scalar tail of the input.
  j += ProbeScalar(keys + i, pays + i, n - i, out_keys + j, out_spays + j,
                   out_rpays + j);
  return j;
}

// Alg. 7: vertical build. Lanes gather their bucket; lanes that found an
// empty bucket must agree on a single writer per bucket, detected by
// scattering unique lane ids and gathering them back (or, with unique keys,
// scattering the keys themselves — the paper's §5.1 optimization).
void LinearProbingTable::BuildAvx512(const uint32_t* keys,
                                     const uint32_t* pays, size_t n,
                                     bool assume_unique_keys) {
  assert(count_ + n < n_buckets_);
  const __m512i factor = _mm512_set1_epi32(static_cast<int>(factor_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i lane_ids =
      _mm512_set_epi32(16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;  // lanes whose tuple has been inserted
  size_t i = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m512i h = v::MultHash(key, factor, nb);
    h = WrapBucket(_mm512_add_epi32(h, off), nb);
    __m512i table_key = v::Gather(keys_.data(), h);
    __mmask16 at_empty = _mm512_cmpeq_epi32_mask(table_key, empty);
    __mmask16 win;
    if (assume_unique_keys) {
      // Scatter the keys themselves and gather back: the surviving lane of
      // each bucket reads its own (unique) key.
      v::MaskScatter(keys_.data(), at_empty, h, key);
      __m512i back = v::MaskGather(key, at_empty, keys_.data(), h);
      win = _mm512_mask_cmpeq_epi32_mask(at_empty, back, key);
      v::MaskScatter(pays_.data(), win, h, pay);
    } else {
      // Scatter unique lane ids into the key array, gather back, and let the
      // surviving lane write the real tuple.
      v::MaskScatter(keys_.data(), at_empty, h, lane_ids);
      __m512i back = v::MaskGather(lane_ids, at_empty, keys_.data(), h);
      win = _mm512_mask_cmpeq_epi32_mask(at_empty, back, lane_ids);
      v::MaskScatter(keys_.data(), win, h, key);
      v::MaskScatter(pays_.data(), win, h, pay);
      // Losing lanes left lane ids behind only in buckets that a winner is
      // about to overwrite, so the table is consistent again here.
    }
    need = win;
    off = _mm512_maskz_add_epi32(static_cast<__mmask16>(~need), off, one);
  }
  count_ += i;
  // Insert the in-flight lanes and the input tail with scalar code.
  alignas(64) uint32_t lk[16], lv[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t h = scalar::MultHash(lk[lane], factor_, nb_s);
    while (keys_[h] != kEmptyKey) {
      if (++h == nb_s) h = 0;
    }
    keys_[h] = lk[lane];
    pays_[h] = lv[lane];
  }
  BuildScalar(keys + i, pays + i, n - i);  // also refreshes the wrap pad
}

// Horizontal probing: broadcast one key, compare against a 16-bucket window,
// and advance window by window until an empty bucket appears.
size_t LinearProbingTable::ProbeHorizontalAvx512(
    const uint32_t* keys, const uint32_t* pays, size_t n, uint32_t* out_keys,
    uint32_t* out_spays, uint32_t* out_rpays) const {
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t s_pay = pays[i];
    const __m512i kv = _mm512_set1_epi32(static_cast<int>(k));
    uint32_t h = scalar::MultHash(k, factor_, nb);
    for (;;) {
      // The wrap pad mirrors buckets [0,16) past the end, so an unaligned
      // window read at any h < nb stays in bounds.
      __m512i w = _mm512_loadu_si512(keys_.data() + h);
      uint32_t match = _mm512_cmpeq_epi32_mask(w, kv);
      uint32_t at_empty = _mm512_cmpeq_epi32_mask(w, empty);
      if (at_empty != 0) {
        // Matches past the first empty bucket are stale cluster remnants.
        match &= (1u << __builtin_ctz(at_empty)) - 1;
      }
      while (match != 0) {
        uint32_t t = static_cast<uint32_t>(__builtin_ctz(match));
        out_rpays[j] = pays_[h + t];
        out_spays[j] = s_pay;
        out_keys[j] = k;
        ++j;
        match &= match - 1;
      }
      if (at_empty != 0) break;
      h += 16;
      if (h >= nb) h -= nb;
    }
  }
  return j;
}

}  // namespace simddb
