#include "core/avx2_ops.h"
#include "core/fundamental.h"

namespace simddb::fundamental::detail {

namespace v = simddb::avx2;

size_t SelectiveLoad16Avx2(uint32_t v16[16], uint32_t mask,
                           const uint32_t* src) {
  uint32_t m_lo = mask & 0xFF;
  uint32_t m_hi = (mask >> 8) & 0xFF;
  __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[0]));
  __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[8]));
  lo = v::SelectiveLoad(lo, m_lo, src);
  size_t consumed = __builtin_popcount(m_lo);
  hi = v::SelectiveLoad(hi, m_hi, src + consumed);
  consumed += __builtin_popcount(m_hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&v16[0]), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&v16[8]), hi);
  return consumed;
}

size_t SelectiveStore16Avx2(uint32_t* dst, uint32_t mask,
                            const uint32_t v16[16]) {
  uint32_t m_lo = mask & 0xFF;
  uint32_t m_hi = (mask >> 8) & 0xFF;
  __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[0]));
  __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[8]));
  v::SelectiveStore(dst, m_lo, lo);
  size_t written = __builtin_popcount(m_lo);
  v::SelectiveStore(dst + written, m_hi, hi);
  written += __builtin_popcount(m_hi);
  return written;
}

void Gather16Avx2(uint32_t v16[16], uint32_t mask, const uint32_t* base,
                  const uint32_t idx[16]) {
  __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[0]));
  __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&v16[8]));
  __m256i idx_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&idx[0]));
  __m256i idx_hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&idx[8]));
  lo = v::MaskGather(lo, mask & 0xFF, base, idx_lo);
  hi = v::MaskGather(hi, (mask >> 8) & 0xFF, base, idx_hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&v16[0]), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&v16[8]), hi);
}

void MultHashBatchAvx2(uint32_t* out, const uint32_t* keys, size_t n,
                       uint32_t factor, uint32_t buckets) {
  const __m256i vf = _mm256_set1_epi32(static_cast<int>(factor));
  const __m256i vb = _mm256_set1_epi32(static_cast<int>(buckets));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        v::MultHash(k, vf, vb));
  }
  for (; i < n; ++i) out[i] = scalar::MultHash(keys[i], factor, buckets);
}

}  // namespace simddb::fundamental::detail
