// AVX-512 kernels for the hash join variants: a vertical probe over a bank
// of linear-probing tables (per-lane table selection via the partition
// hash), and a flat-region vectorized LP build.

#include "core/avx512_ops.h"
#include "hash/hash_table.h"
#include "join/hash_join.h"

namespace simddb::detail {
namespace {

namespace v = simddb::avx512;

inline __m512i WrapBucket(__m512i h, __m512i nb) {
  __mmask16 over = _mm512_cmpge_epu32_mask(h, nb);
  return _mm512_mask_sub_epi32(h, over, h, nb);
}

}  // namespace

size_t ProbeTableBankAvx512(const uint32_t* table_keys,
                            const uint32_t* table_pays, const uint32_t* base,
                            const uint32_t* size, uint32_t hash_factor,
                            uint32_t part_factor, uint32_t part_count,
                            const uint32_t* keys, const uint32_t* pays,
                            size_t n, uint32_t* out_keys, uint32_t* out_spays,
                            uint32_t* out_rpays) {
  const __m512i hf = _mm512_set1_epi32(static_cast<int>(hash_factor));
  const __m512i pf = _mm512_set1_epi32(static_cast<int>(part_factor));
  const __m512i pc = _mm512_set1_epi32(static_cast<int>(part_count));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  const bool single = part_count == 1;
  const __m512i base0 = _mm512_set1_epi32(static_cast<int>(base[0]));
  const __m512i size0 = _mm512_set1_epi32(static_cast<int>(size[0]));
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();
  __m512i tbase = base0;
  __m512i tsize = size0;
  __mmask16 need = 0xFFFF;
  size_t i = 0;
  size_t j = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    if (!single) {
      // Reloaded lanes pick their table by the partition hash.
      __m512i part = v::MultHash(key, pf, pc);
      tbase = _mm512_mask_i32gather_epi32(tbase, need, part,
                                          reinterpret_cast<const int*>(base),
                                          4);
      tsize = _mm512_mask_i32gather_epi32(tsize, need, part,
                                          reinterpret_cast<const int*>(size),
                                          4);
    }
    __m512i h = v::MultHash(key, hf, tsize);
    h = WrapBucket(_mm512_add_epi32(h, off), tsize);
    __m512i slot = _mm512_add_epi32(tbase, h);
    __m512i table_key = v::Gather(table_keys, slot);
    __mmask16 match = _mm512_cmpeq_epi32_mask(table_key, key);
    if (match != 0) {
      __m512i table_pay = v::MaskGather(table_key, match, table_pays, slot);
      v::SelectiveStore(out_keys + j, match, key);
      v::SelectiveStore(out_spays + j, match, pay);
      v::SelectiveStore(out_rpays + j, match, table_pay);
      j += __builtin_popcount(match);
    }
    need = _mm512_cmpeq_epi32_mask(table_key, empty);
    off = _mm512_maskz_add_epi32(static_cast<__mmask16>(~need), off, one);
  }
  // Scalar drain of in-flight lanes, then the input tail.
  alignas(64) uint32_t lk[16], lv[16], lo[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  _mm512_store_si512(lo, off);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t k = lk[lane];
    uint32_t part = single ? 0 : scalar::MultHash(k, part_factor, part_count);
    uint32_t nb = size[part];
    uint32_t b = base[part];
    uint32_t h = scalar::MultHash(k, hash_factor, nb) + lo[lane];
    if (h >= nb) h -= nb;
    while (table_keys[b + h] != kEmptyKey) {
      if (table_keys[b + h] == k) {
        out_rpays[j] = table_pays[b + h];
        out_spays[j] = lv[lane];
        out_keys[j] = k;
        ++j;
      }
      if (++h == nb) h = 0;
    }
  }
  j += ProbeTableBankScalar(table_keys, table_pays, base, size, hash_factor,
                            part_factor, part_count, keys + i, pays + i,
                            n - i, out_keys + j, out_spays + j, out_rpays + j);
  return j;
}

// Vectorized LP build into a flat pre-cleared region (Alg. 7 with the
// unique-keys conflict-detection optimization: keys are scattered directly
// and gathered back).
void BuildFlatAvx512(uint32_t* table_keys, uint32_t* table_pays, uint32_t nb,
                     uint32_t hash_factor, const uint32_t* keys,
                     const uint32_t* pays, size_t n) {
  const __m512i hf = _mm512_set1_epi32(static_cast<int>(hash_factor));
  const __m512i nbv = _mm512_set1_epi32(static_cast<int>(nb));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;
  size_t i = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m512i h = v::MultHash(key, hf, nbv);
    h = WrapBucket(_mm512_add_epi32(h, off), nbv);
    __m512i table_key = v::Gather(table_keys, h);
    __mmask16 at_empty = _mm512_cmpeq_epi32_mask(table_key, empty);
    v::MaskScatter(table_keys, at_empty, h, key);
    __m512i back = v::MaskGather(key, at_empty, table_keys, h);
    __mmask16 win = _mm512_mask_cmpeq_epi32_mask(at_empty, back, key);
    v::MaskScatter(table_pays, win, h, pay);
    need = win;
    off = _mm512_maskz_add_epi32(static_cast<__mmask16>(~need), off, one);
  }
  alignas(64) uint32_t lk[16], lv[16];
  _mm512_store_si512(lk, key);
  _mm512_store_si512(lv, pay);
  for (int lane = 0; lane < 16; ++lane) {
    if (need & (1u << lane)) continue;
    uint32_t h = scalar::MultHash(lk[lane], hash_factor, nb);
    while (table_keys[h] != kEmptyKey) {
      if (++h == nb) h = 0;
    }
    table_keys[h] = lk[lane];
    table_pays[h] = lv[lane];
  }
  for (; i < n; ++i) {
    uint32_t h = scalar::MultHash(keys[i], hash_factor, nb);
    while (table_keys[h] != kEmptyKey) {
      if (++h == nb) h = 0;
    }
    table_keys[h] = keys[i];
    table_pays[h] = pays[i];
  }
}

}  // namespace simddb::detail
