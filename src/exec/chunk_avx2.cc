// AVX2 chunk converter kernels. Without compressed stores, bitmap ->
// selection expands one byte of the word per step with the App. D
// permutation-table selective store: the byte indexes a compress
// permutation, the permuted lane-index vector is stored full-width, and
// the output cursor advances by the byte's popcount (the overshoot is
// covered by the ChunkCapacity slack). The range predicate uses the
// sign-bias trick for unsigned compares, packing 8-bit movemasks into
// bitmap words. ColumnMinMax keeps vpminud/vpmaxud accumulators.

#include "exec/chunk.h"

#include <immintrin.h>

#include <cstdint>

#include "core/avx2_ops.h"

namespace simddb::exec::detail {
namespace {

namespace v = simddb::avx2;

inline __m256i BiasSign(__m256i x) {
  return _mm256_xor_si256(x, _mm256_set1_epi32(INT32_MIN));
}

}  // namespace

size_t BitmapToSelectionAvx2(const uint64_t* bitmap, size_t n,
                             uint32_t* sel) {
  const size_t words = ChunkBitmapWords(n);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  size_t out = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    __m256i idx = _mm256_add_epi32(
        iota, _mm256_set1_epi32(static_cast<int>(w << 6)));
    for (int b = 0; b < 8; ++b) {
      const uint32_t m = static_cast<uint32_t>(bits) & 0xFFu;
      bits >>= 8;
      if (m != 0) {
        const __m256i perm = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            v::internal::kCompress[m].data()));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + out),
                            _mm256_permutevar8x32_epi32(idx, perm));
        out += static_cast<size_t>(__builtin_popcount(m));
      }
      idx = _mm256_add_epi32(idx, step);
    }
  }
  return out;
}

size_t RangePredicateBitmapAvx2(const uint32_t* keys, size_t n, uint32_t lo,
                                uint32_t hi, uint64_t* bitmap) {
  const __m256i lo_m1 =
      BiasSign(_mm256_set1_epi32(static_cast<int>(lo - 1)));  // k > lo-1
  const __m256i hi_p1 =
      BiasSign(_mm256_set1_epi32(static_cast<int>(hi + 1)));  // k < hi+1
  size_t cnt = 0;
  size_t i = 0;
  size_t w = 0;
  // lo == 0 / hi == UINT32_MAX wrap the biased bounds; fall back to the
  // scalar kernel for those degenerate (unbounded) predicates.
  if (lo == 0 || hi == 0xFFFFFFFFu) {
    return RangePredicateBitmapScalar(keys, n, lo, hi, bitmap);
  }
  for (; i + 64 <= n; i += 64, ++w) {
    uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i k = BiasSign(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + i + 8 * g)));
      const __m256i gt_lo = _mm256_cmpgt_epi32(k, lo_m1);
      const __m256i lt_hi = _mm256_cmpgt_epi32(hi_p1, k);
      word |= static_cast<uint64_t>(
                  v::MoveMask(_mm256_and_si256(gt_lo, lt_hi)))
              << (g * 8);
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

ColumnRange ColumnMinMaxAvx2(const uint32_t* vals, size_t n) {
  __m256i lo = _mm256_set1_epi32(-1);
  __m256i hi = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    lo = _mm256_min_epu32(lo, x);
    hi = _mm256_max_epu32(hi, x);
  }
  alignas(32) uint32_t los[8], his[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(los), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(his), hi);
  ColumnRange r = ColumnMinMaxScalar(vals + i, n - i);
  for (int l = 0; l < 8; ++l) {
    r.min = los[l] < r.min ? los[l] : r.min;
    r.max = his[l] > r.max ? his[l] : r.max;
  }
  return r;
}

}  // namespace simddb::exec::detail
