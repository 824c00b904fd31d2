#ifndef SIMDDB_CORE_AVX2_OPS_H_
#define SIMDDB_CORE_AVX2_OPS_H_

// AVX2 (Haswell-class) realizations of the paper's fundamental vector
// operations. Gathers are native; selective loads and stores are emulated
// with pre-generated permutation tables exactly as in App. C/D ("the lane
// selection mask is extracted as a bitmask and used as an array index to
// load a permutation mask from a pre-generated table"); scatters do not
// exist on this ISA, which is why build-side operators stay scalar on AVX2.
//
// Only include from translation units compiled with SIMDDB_AVX2_FLAGS.

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstdint>

#include "core/scalar_ops.h"

namespace simddb::avx2 {

/// Number of 32-bit lanes per 256-bit vector.
inline constexpr int kLanes = 8;

namespace internal {

/// perm[m][k]: compress permutation — lane k of the result takes source lane
/// perm[m][k], where the source lanes set in m are packed first (in order),
/// followed by the unset lanes.
constexpr std::array<std::array<uint32_t, 8>, 256> MakeCompressTable() {
  std::array<std::array<uint32_t, 8>, 256> t{};
  for (uint32_t m = 0; m < 256; ++m) {
    uint32_t k = 0;
    for (uint32_t i = 0; i < 8; ++i) {
      if (m & (1u << i)) t[m][k++] = i;
    }
    for (uint32_t i = 0; i < 8; ++i) {
      if (!(m & (1u << i))) t[m][k++] = i;
    }
  }
  return t;
}

/// expand[m][lane]: lane (if set in m) takes the next packed source element,
/// i.e., expand[m][lane] = rank of lane among the set bits of m.
constexpr std::array<std::array<uint32_t, 8>, 256> MakeExpandTable() {
  std::array<std::array<uint32_t, 8>, 256> t{};
  for (uint32_t m = 0; m < 256; ++m) {
    uint32_t rank = 0;
    for (uint32_t i = 0; i < 8; ++i) {
      t[m][i] = (m & (1u << i)) ? rank++ : 0;
    }
  }
  return t;
}

alignas(64) inline constexpr auto kCompress = MakeCompressTable();
alignas(64) inline constexpr auto kExpand = MakeExpandTable();

/// kFirstK[k]: vector mask with the first k lanes all-ones (for maskstore).
inline __m256i FirstK(uint32_t k) {
  alignas(32) static const int32_t kOnes[16] = {-1, -1, -1, -1, -1, -1, -1,
                                                -1, 0,  0,  0,  0,  0,  0,
                                                0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(&kOnes[8 - (k & 15)]));
}

}  // namespace internal

/// Extracts the 8-bit lane mask from a full-width comparison result.
inline uint32_t MoveMask(__m256i cmp) {
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
}

/// Selective store, emulated: permutes the active lanes of v to the front
/// and maskstores popcount(m) elements at p (App. D).
inline void SelectiveStore(uint32_t* p, uint32_t m, __m256i v) {
  const __m256i perm = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(internal::kCompress[m & 0xFF].data()));
  __m256i packed = _mm256_permutevar8x32_epi32(v, perm);
  _mm256_maskstore_epi32(reinterpret_cast<int32_t*>(p),
                         internal::FirstK(__builtin_popcount(m & 0xFF)),
                         packed);
}

/// Selective load, emulated: loads 8 contiguous values at p, routes value k
/// to the k-th set lane of m, and blends with `old` for the unset lanes.
/// p must have at least 8 readable elements (buffers are padded).
inline __m256i SelectiveLoad(__m256i old, uint32_t m, const uint32_t* p) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i perm = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(internal::kExpand[m & 0xFF].data()));
  __m256i routed = _mm256_permutevar8x32_epi32(v, perm);
  // blendv selects from routed where the mask lane's top bit is set.
  alignas(32) int32_t mask_lanes[8];
  for (int i = 0; i < 8; ++i) mask_lanes[i] = (m >> i) & 1 ? -1 : 0;
  __m256i vm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_lanes));
  return _mm256_blendv_epi8(old, routed, vm);
}

/// Native gather: v[i] = base[idx[i]].
inline __m256i Gather(const uint32_t* base, __m256i idx) {
  return _mm256_i32gather_epi32(reinterpret_cast<const int32_t*>(base), idx,
                                4);
}

/// Selective gather via the mask-vector gather form.
inline __m256i MaskGather(__m256i src, uint32_t m, const uint32_t* base,
                          __m256i idx) {
  alignas(32) int32_t mask_lanes[8];
  for (int i = 0; i < 8; ++i) mask_lanes[i] = (m >> i) & 1 ? -1 : 0;
  __m256i vm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_lanes));
  return _mm256_mask_i32gather_epi32(src, reinterpret_cast<const int32_t*>(base),
                                     idx, vm, 4);
}

/// Scatter, emulated lane-by-lane (AVX2 has no scatter instruction; this
/// exists so tests can exercise the dispatch surface, not for hot loops).
inline void Scatter(uint32_t* base, __m256i idx, __m256i v) {
  alignas(32) uint32_t ai[8], av[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ai), idx);
  _mm256_store_si256(reinterpret_cast<__m256i*>(av), v);
  for (int i = 0; i < 8; ++i) base[ai[i]] = av[i];
}

/// Upper 32 bits of the 8 unsigned 32x32→64-bit products.
inline __m256i MulHi(__m256i a, __m256i b) {
  __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
  __m256i odd =
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), _mm256_srli_epi64(b, 32));
  return _mm256_blend_epi32(even, odd, 0xAA);
}

/// Multiplicative hashing behind the mix of scalar::MultHash:
/// x = k * factor; x ^= x >> 16; x *= kHashMixMul; h = mulhi(x, buckets).
inline __m256i MultHash(__m256i keys, __m256i factor, __m256i buckets) {
  __m256i x = _mm256_mullo_epi32(keys, factor);
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
  x = _mm256_mullo_epi32(
      x, _mm256_set1_epi32(static_cast<int>(scalar::kHashMixMul)));
  return MulHi(x, buckets);
}

}  // namespace simddb::avx2

#endif  // __AVX2__
#endif  // SIMDDB_CORE_AVX2_OPS_H_
