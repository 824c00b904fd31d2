#ifndef SIMDDB_CORE_AVX512_OPS_H_
#define SIMDDB_CORE_AVX512_OPS_H_

// Inline wrappers around the AVX-512 instructions that realize the paper's
// fundamental vector operations (§3): selective load, selective store,
// gather, scatter, plus the building blocks reused across every operator
// (multiplicative hashing, conflict serialization, interleaved key-value
// access, streaming stores).
//
// This header may only be included from translation units compiled with the
// SIMDDB_AVX512_FLAGS (it requires AVX-512 F/CD/DQ/BW/VL/VPOPCNTDQ).

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstdint>

#include "core/scalar_ops.h"

namespace simddb::avx512 {

/// Number of 32-bit lanes per 512-bit vector (the paper's W).
inline constexpr int kLanes = 16;

// ---------------------------------------------------------------------------
// Fundamental operations (§3)
// ---------------------------------------------------------------------------

/// Selective load (Fig. 2): lanes set in m receive the next contiguous
/// values from p (in lane order); other lanes keep their value from `old`.
inline __m512i SelectiveLoad(__m512i old, __mmask16 m, const uint32_t* p) {
  return _mm512_mask_expandloadu_epi32(old, m, p);
}

/// Selective store (Fig. 1): writes the lanes set in m contiguously to p.
/// The caller advances p by popcount(m).
inline void SelectiveStore(uint32_t* p, __mmask16 m, __m512i v) {
  _mm512_mask_compressstoreu_epi32(p, m, v);
}

/// Gather (Fig. 3): v[i] = base[idx[i]].
inline __m512i Gather(const uint32_t* base, __m512i idx) {
  return _mm512_i32gather_epi32(idx, base, 4);
}

/// Gather emulated without the gather instruction (App. B: "emulating
/// gathers is possible at a performance penalty, which is small if done
/// carefully"): indexes are spilled once and lanes filled with scalar
/// loads. Exists for the ablation benchmark and for chips without gathers.
inline __m512i GatherEmulated(const uint32_t* base, __m512i idx) {
  alignas(64) uint32_t lanes[16];
  alignas(64) uint32_t values[16];
  _mm512_store_si512(lanes, idx);
  for (int i = 0; i < 16; ++i) values[i] = base[lanes[i]];
  return _mm512_load_si512(values);
}

/// Selective gather: active lanes load base[idx[i]], inactive keep src.
inline __m512i MaskGather(__m512i src, __mmask16 m, const uint32_t* base,
                          __m512i idx) {
  return _mm512_mask_i32gather_epi32(src, m, idx, base, 4);
}

/// Scatter (Fig. 4): base[idx[i]] = v[i]; on index collisions the
/// rightmost (highest) lane wins, as the paper assumes.
inline void Scatter(uint32_t* base, __m512i idx, __m512i v) {
  _mm512_i32scatter_epi32(base, idx, v, 4);
}

/// Selective scatter: stores only the lanes set in m.
inline void MaskScatter(uint32_t* base, __mmask16 m, __m512i idx, __m512i v) {
  _mm512_mask_i32scatter_epi32(base, m, idx, v, 4);
}

// ---------------------------------------------------------------------------
// Arithmetic helpers
// ---------------------------------------------------------------------------

/// Upper 32 bits of the 16 unsigned 32x32→64-bit products ("×↑" in the
/// paper's notation).
inline __m512i MulHi(__m512i a, __m512i b) {
  __m512i even = _mm512_srli_epi64(_mm512_mul_epu32(a, b), 32);
  __m512i odd =
      _mm512_mul_epu32(_mm512_srli_epi64(a, 32), _mm512_srli_epi64(b, 32));
  return _mm512_mask_blend_epi32(0xAAAA, even, odd);
}

/// Multiplicative hashing (§5) behind the mix of scalar::MultHash:
/// x = k * factor; x ^= x >> 16; x *= kHashMixMul;
/// h = mulhi(x, buckets) ∈ [0, buckets).
inline __m512i MultHash(__m512i keys, __m512i factor, __m512i buckets) {
  __m512i x = _mm512_mullo_epi32(keys, factor);
  x = _mm512_xor_si512(x, _mm512_srli_epi32(x, 16));
  x = _mm512_mullo_epi32(
      x, _mm512_set1_epi32(static_cast<int>(scalar::kHashMixMul)));
  return MulHi(x, buckets);
}

// ---------------------------------------------------------------------------
// Conflict detection & serialization (§5.1, §7.3)
// ---------------------------------------------------------------------------

/// Per-lane count of lower-indexed lanes with an equal index value, computed
/// with vpconflictd + vpopcntd (the instructions the paper anticipates as
/// "AVX 3", §5.1). out[i] = |{j < i : idx[j] == idx[i]}|. This is exactly
/// the serialization offset of Alg. 13 and preserves input order (stable).
inline __m512i SerializeConflicts(__m512i idx) {
  return _mm512_popcnt_epi32(_mm512_conflict_epi32(idx));
}

/// Mask of lanes that would win a scatter to idx (i.e., lanes with no
/// higher-indexed duplicate). Used by vectorized hash-table build (Alg. 7).
inline __mmask16 ScatterWinners(__m512i idx) {
  uint32_t later = static_cast<uint32_t>(
      _mm512_reduce_or_epi32(_mm512_conflict_epi32(idx)));
  return static_cast<__mmask16>(~later & 0xFFFFu);
}

/// The reversing permutation {15, 14, ..., 0} (Alg. 13's ~l).
inline __m512i ReverseLanes(__m512i v) {
  const __m512i rev = _mm512_set_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                       12, 13, 14, 15);
  return _mm512_permutexvar_epi32(rev, v);
}

/// The paper's Alg. 13 verbatim: iterative scatter/gather-back conflict
/// serialization using a caller-provided scratch array that must have one
/// slot per possible index value. Produces the same result as
/// SerializeConflicts(); kept as the portable idiom for chips without
/// conflict-detection instructions and for the ablation benchmark.
inline __m512i SerializeConflictsIterative(__m512i h, uint32_t* scratch) {
  const __m512i lane_ids =
      _mm512_set_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m512i rh = ReverseLanes(h);  // reverse so earliest tuple wins
  __m512i c = _mm512_setzero_si512();
  __mmask16 m = 0xFFFF;
  do {
    _mm512_mask_i32scatter_epi32(scratch, m, rh, lane_ids, 4);
    __m512i back = _mm512_mask_i32gather_epi32(lane_ids, m, rh, scratch, 4);
    m = _mm512_mask_cmpneq_epi32_mask(m, back, lane_ids);
    c = _mm512_mask_add_epi32(c, m, c, _mm512_set1_epi32(1));
  } while (m != 0);
  return ReverseLanes(c);
}

// ---------------------------------------------------------------------------
// Interleaved key-value access (App. E)
// ---------------------------------------------------------------------------

/// Gathers 16 interleaved (key, payload) pairs from a uint64 bucket array
/// with two 8-way 64-bit gathers and splits them back into key and payload
/// vectors. Halves the number of cache accesses vs. two 32-bit gathers.
inline void GatherPairs(const uint64_t* table, __m512i idx, __m512i* keys,
                        __m512i* pays) {
  __m256i idx_lo = _mm512_castsi512_si256(idx);
  __m256i idx_hi = _mm512_extracti64x4_epi64(idx, 1);
  __m512i lo = _mm512_i32gather_epi64(
      idx_lo, reinterpret_cast<const long long*>(table), 8);
  __m512i hi = _mm512_i32gather_epi64(
      idx_hi, reinterpret_cast<const long long*>(table), 8);
  const __m512i even = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14,
                                        12, 10, 8, 6, 4, 2, 0);
  const __m512i odd = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13,
                                       11, 9, 7, 5, 3, 1);
  *keys = _mm512_permutex2var_epi32(lo, even, hi);
  *pays = _mm512_permutex2var_epi32(lo, odd, hi);
}

/// Scatters 16 (key, payload) pairs to an interleaved uint64 bucket array
/// with two masked 8-way 64-bit scatters (the inverse of GatherPairs).
inline void ScatterPairs(uint64_t* table, __mmask16 m, __m512i idx,
                         __m512i keys, __m512i pays) {
  __m512i keys_lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(keys));
  __m512i pays_lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(pays));
  __m512i pair_lo = _mm512_or_si512(keys_lo, _mm512_slli_epi64(pays_lo, 32));
  _mm512_mask_i32scatter_epi64(table, static_cast<__mmask8>(m & 0xFF),
                               _mm512_castsi512_si256(idx), pair_lo, 8);
  __m512i keys_hi =
      _mm512_cvtepu32_epi64(_mm512_extracti32x8_epi32(keys, 1));
  __m512i pays_hi =
      _mm512_cvtepu32_epi64(_mm512_extracti32x8_epi32(pays, 1));
  __m512i pair_hi = _mm512_or_si512(keys_hi, _mm512_slli_epi64(pays_hi, 32));
  _mm512_mask_i32scatter_epi64(table, static_cast<__mmask8>(m >> 8),
                               _mm512_extracti64x4_epi64(idx, 1), pair_hi, 8);
}

// ---------------------------------------------------------------------------
// Streaming stores (§4)
// ---------------------------------------------------------------------------

/// Non-temporal 64-byte store; p must be 64-byte aligned. Used when flushing
/// in-cache buffers to RAM-resident outputs so output data does not pollute
/// the cache.
inline void StreamStore(uint32_t* p, __m512i v) {
  _mm512_stream_si512(reinterpret_cast<__m512i*>(p), v);
}

/// True when p is 64-byte aligned (eligible for StreamStore).
inline bool IsStreamAligned(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & 63u) == 0;
}

}  // namespace simddb::avx512

#endif  // __AVX512F__
#endif  // SIMDDB_CORE_AVX512_OPS_H_
