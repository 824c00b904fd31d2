// AVX-512 chunk converter kernels. bitmap -> selection runs in two levels:
// vpopcntq over 8-word blocks gives positional population counts whose
// prefix sum yields each word's output offset up front (the words of a
// block could then be expanded independently — the structure of the
// positional-popcount/prefix-sum decomposition in PAPERS.md); within a
// word, each 16-bit group compress-stores a lane-index vector with the
// group bits as the write mask, which is exactly the selection scan's
// bit-extract-indirect idiom pointed at indexes instead of values.
// ColumnMinMax keeps vpminud/vpmaxud accumulators with a masked tail.

#include "exec/chunk.h"

#include <immintrin.h>

namespace simddb::exec::detail {
namespace {

/// Compressed index store of one 64-bit word's set bits at sel[out];
/// returns the word's popcount.
inline size_t ExpandWord(uint64_t bits, uint32_t base, uint32_t* sel,
                         size_t out) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  __m512i idx = _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(base)));
  const __m512i step = _mm512_set1_epi32(16);
  size_t o = out;
  for (int g = 0; g < 4; ++g) {
    const __mmask16 m = static_cast<__mmask16>(bits >> (g * 16));
    _mm512_mask_compressstoreu_epi32(sel + o, m, idx);
    o += static_cast<size_t>(__builtin_popcount(m));
    idx = _mm512_add_epi32(idx, step);
  }
  return o - out;
}

}  // namespace

size_t BitmapToSelectionAvx512(const uint64_t* bitmap, size_t n,
                               uint32_t* sel) {
  const size_t words = ChunkBitmapWords(n);
  size_t out = 0;
  size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    // Positional popcount of the block, prefix-summed into per-word
    // offsets so every word knows its destination before expansion.
    const __m512i wv =
        _mm512_loadu_si512(reinterpret_cast<const void*>(bitmap + w));
    alignas(64) uint64_t counts[8];
    _mm512_store_si512(counts, _mm512_popcnt_epi64(wv));
    uint64_t offs[8];
    uint64_t acc = out;
    for (int i = 0; i < 8; ++i) {
      offs[i] = acc;
      acc += counts[i];
    }
    for (int i = 0; i < 8; ++i) {
      if (counts[i] == 0) continue;
      ExpandWord(bitmap[w + i], static_cast<uint32_t>((w + i) << 6), sel,
                 offs[i]);
    }
    out = acc;
  }
  for (; w < words; ++w) {
    out += ExpandWord(bitmap[w], static_cast<uint32_t>(w << 6), sel, out);
  }
  return out;
}

size_t RangePredicateBitmapAvx512(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap) {
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vhi = _mm512_set1_epi32(static_cast<int>(hi));
  size_t cnt = 0;
  size_t i = 0;
  size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    uint64_t word = 0;
    for (int g = 0; g < 4; ++g) {
      const __m512i k = _mm512_loadu_si512(
          reinterpret_cast<const void*>(keys + i + 16 * g));
      const __mmask16 ge = _mm512_cmp_epu32_mask(k, vlo, _MM_CMPINT_NLT);
      const __mmask16 le = _mm512_cmp_epu32_mask(k, vhi, _MM_CMPINT_LE);
      word |= static_cast<uint64_t>(static_cast<uint16_t>(ge & le))
              << (g * 16);
    }
    bitmap[w] = word;
    cnt += static_cast<size_t>(__builtin_popcountll(word));
  }
  if (i < n) {
    uint64_t word = 0;
    for (size_t j = i; j < n; ++j) {
      const uint32_t k = keys[j];
      const uint64_t q =
          static_cast<uint64_t>(k >= lo) & static_cast<uint64_t>(k <= hi);
      word |= q << (j - i);
      cnt += q;
    }
    bitmap[w] = word;
  }
  return cnt;
}

ColumnRange ColumnMinMaxAvx512(const uint32_t* vals, size_t n) {
  __m512i lo = _mm512_set1_epi32(-1);
  __m512i hi = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x = _mm512_loadu_si512(vals + i);
    lo = _mm512_min_epu32(lo, x);
    hi = _mm512_max_epu32(hi, x);
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i x = _mm512_maskz_loadu_epi32(m, vals + i);
    lo = _mm512_mask_min_epu32(lo, m, lo, x);
    hi = _mm512_mask_max_epu32(hi, m, hi, x);
  }
  ColumnRange r;
  r.min = _mm512_reduce_min_epu32(lo);
  r.max = _mm512_reduce_max_epu32(hi);
  return r;
}

}  // namespace simddb::exec::detail
