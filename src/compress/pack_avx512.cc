// AVX-512 horizontal unpack: 16 values per iteration, width-generic.
//
// Each lane computes its bit position p = i*bits, turns it into a 32-bit
// word index (p >> 5) and an in-word shift (p & 31), and the kernel
// gathers a 64-bit window per lane at 4-byte granularity
// (_mm512_i32gather_epi64 with scale 4 — the vector form of the scalar
// baseline's unaligned 64-bit read). vpsrlvq aligns each lane's value to
// bit 0, vpmovqd narrows the windows back to 32-bit lanes, and one
// mask+add applies the width mask and the FOR reference. No per-width
// shuffle tables: the same loop body serves every width 1..32.
//
// Stores are full 16-lane vectors (out has PackedCapacity(n) elements)
// and the overshooting lanes of the last iteration gather at most
// kPackedPadWords words past the payload — the pack.h buffer contracts.

#include "compress/pack.h"

#include <immintrin.h>

namespace simddb::compress::detail {

void UnpackAvx512(const uint32_t* packed, size_t n, uint32_t ref,
                  unsigned bits, uint32_t* out) {
  const uint32_t mask =
      bits == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << bits) - 1);
  const __m512i vmask = _mm512_set1_epi32(static_cast<int>(mask));
  const __m512i vref = _mm512_set1_epi32(static_cast<int>(ref));
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i lane_bits =
      _mm512_mullo_epi32(iota, _mm512_set1_epi32(static_cast<int>(bits)));
  const __m512i v31 = _mm512_set1_epi32(31);
  for (size_t i = 0; i < n; i += 16) {
    const __m512i pos = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(i * bits)), lane_bits);
    const __m512i word = _mm512_srli_epi32(pos, 5);
    const __m512i shift = _mm512_and_si512(pos, v31);
    __m512i g_lo =
        _mm512_i32gather_epi64(_mm512_castsi512_si256(word), packed, 4);
    __m512i g_hi = _mm512_i32gather_epi64(_mm512_extracti64x4_epi64(word, 1),
                                          packed, 4);
    g_lo = _mm512_srlv_epi64(
        g_lo, _mm512_cvtepu32_epi64(_mm512_castsi512_si256(shift)));
    g_hi = _mm512_srlv_epi64(
        g_hi, _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(shift, 1)));
    __m512i v = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(g_lo)),
        _mm512_cvtepi64_epi32(g_hi), 1);
    v = _mm512_add_epi32(_mm512_and_si512(v, vmask), vref);
    _mm512_storeu_si512(reinterpret_cast<void*>(out + i), v);
  }
}

}  // namespace simddb::compress::detail
