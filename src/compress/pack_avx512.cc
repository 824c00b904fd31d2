// AVX-512 horizontal unpack without gathers: 32 values per group,
// width-generic, with the delta decode of kDeltaFor blocks in registers.
//
// 32 values at width b fill exactly b words, and every group starts on a
// word boundary, so each lane's place in its group repeats from group to
// group: value j sits at bit p = j*b, in word w = p >> 5 at shift
// s = p & 31, and reaches into word w + 1 when s + b > 32. The kernel
// builds the word indexes and shifts of one group once per call, then per
// group:
//   - loads the group's payload words into two registers with masked loads
//     (words 0..15 and 16..31; a short last group loads only the words its
//     values occupy, so no load leaves the payload);
//   - moves each lane's low word (w) and high word (w + 1) into place with
//     two-source permutes (vpermt2d over the 32 loaded words);
//   - aligns the value with a variable right shift of the low word ORed
//     with a variable left shift (by 32 - s) of the high word, then applies
//     the width mask.
// A high word that holds none of the lane's bits is harmless: its bits land
// at or above bit 32 - s >= b and the width mask clears them, and at s == 0
// the left shift by 32 yields 0. That covers the one index past the loaded
// words (w + 1 == 32, value 31 at width 32, which the permute wraps to
// word 0) and the words past a short group's payload, which load as 0.
//
// FOR blocks then add the reference. Delta blocks instead run an inclusive
// prefix sum over the 16 lanes in four shift-and-add steps (lane i gains
// lane i - 1, i - 2, i - 4, i - 8) and add the running total of the values
// before the vector, which starts at the reference and grows by each
// vector's last lane — a one-add chain between vectors.
//
// Stores are full 16-lane vectors: out has PackedCapacity(n) elements, and
// a short last group stores its second half only when it holds values.

#include "compress/pack.h"

#include <immintrin.h>

namespace simddb::compress::detail {
namespace {

/// Lane i of v shifted up to lane i + k; lanes below k read 0.
template <int kLanes>
__m512i ShiftLanesUp(__m512i v) {
  return _mm512_alignr_epi32(v, _mm512_setzero_si512(), 16 - kLanes);
}

template <bool kDelta>
void Unpack(const uint32_t* packed, size_t n, uint32_t ref, unsigned bits,
            uint32_t* out) {
  const __m512i vmask = _mm512_set1_epi32(static_cast<int>(
      bits == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << bits) - 1)));
  const __m512i vref = _mm512_set1_epi32(static_cast<int>(ref));
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i last_lane = _mm512_set1_epi32(15);
  __m512i lo_word[2], hi_word[2], rshift[2], lshift[2];
  for (int h = 0; h < 2; ++h) {
    // Bit positions of the group's values 16h .. 16h + 15.
    const __m512i pos = _mm512_mullo_epi32(
        _mm512_add_epi32(iota, _mm512_set1_epi32(16 * h)),
        _mm512_set1_epi32(static_cast<int>(bits)));
    lo_word[h] = _mm512_srli_epi32(pos, 5);
    hi_word[h] = _mm512_add_epi32(lo_word[h], _mm512_set1_epi32(1));
    rshift[h] = _mm512_and_si512(pos, _mm512_set1_epi32(31));
    lshift[h] = _mm512_sub_epi32(_mm512_set1_epi32(32), rshift[h]);
  }
  __m512i total = vref;  // delta: the sum of every value before the vector

  // Decodes values 16h..16h+15 of the group held in words w0:w1 to out.
  auto half = [&](__m512i w0, __m512i w1, int h, uint32_t* dst) {
    const __m512i lo = _mm512_permutex2var_epi32(w0, lo_word[h], w1);
    const __m512i hi = _mm512_permutex2var_epi32(w0, hi_word[h], w1);
    __m512i v = _mm512_and_si512(
        _mm512_or_si512(_mm512_srlv_epi32(lo, rshift[h]),
                        _mm512_sllv_epi32(hi, lshift[h])),
        vmask);
    if constexpr (kDelta) {
      v = _mm512_add_epi32(v, ShiftLanesUp<1>(v));
      v = _mm512_add_epi32(v, ShiftLanesUp<2>(v));
      v = _mm512_add_epi32(v, ShiftLanesUp<4>(v));
      v = _mm512_add_epi32(v, ShiftLanesUp<8>(v));
      const __m512i sum = _mm512_permutexvar_epi32(last_lane, v);
      v = _mm512_add_epi32(v, total);
      total = _mm512_add_epi32(total, sum);
    } else {
      v = _mm512_add_epi32(v, vref);
    }
    _mm512_storeu_si512(reinterpret_cast<void*>(dst), v);
  };

  // Decodes the t <= 32 values of the group whose words start at src.
  auto group = [&](const uint32_t* src, size_t t, uint32_t* dst) {
    const unsigned words = static_cast<unsigned>(PackedWords(t, bits));
    const uint32_t load = words == 32 ? 0xFFFFFFFFu : (1u << words) - 1;
    const __m512i w0 =
        _mm512_maskz_loadu_epi32(static_cast<__mmask16>(load), src);
    const __m512i w1 =
        _mm512_maskz_loadu_epi32(static_cast<__mmask16>(load >> 16), src + 16);
    half(w0, w1, 0, dst);
    if (t > 16) half(w0, w1, 1, dst + 16);
  };

  const size_t full = n / 32;
  for (size_t g = 0; g < full; ++g) {
    group(packed + g * bits, 32, out + g * 32);
  }
  if (full * 32 < n) {
    group(packed + full * bits, n - full * 32, out + full * 32);
  }
}

}  // namespace

void UnpackAvx512(const uint32_t* packed, size_t n, uint32_t ref,
                  unsigned bits, uint32_t* out) {
  Unpack<false>(packed, n, ref, bits, out);
}

void UnpackDeltaAvx512(const uint32_t* packed, size_t n, uint32_t ref,
                       unsigned bits, uint32_t* out) {
  Unpack<true>(packed, n, ref, bits, out);
}

}  // namespace simddb::compress::detail
