// AVX-512 direct-indexed join probe: 16 keys per vector, one range compare,
// one masked gather of their slots, and selective stores of the matches.

#include "core/avx512_ops.h"
#include "hash/direct_table.h"

namespace simddb {

size_t DirectJoinTable::ProbeAvx512(const uint32_t* keys, const uint32_t* pays,
                                    size_t n, uint32_t* out_keys,
                                    uint32_t* out_spays,
                                    uint32_t* out_rpays) const {
  namespace v = simddb::avx512;
  const __m512i key_min = _mm512_set1_epi32(static_cast<int>(key_min_));
  const __m512i width = _mm512_set1_epi32(static_cast<int>(width_));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const uint32_t* slots = base_;
  size_t j = 0;
  for (size_t i = 0; i < n; i += 16) {
    // The last vector loads only the rows left; masked-off lanes read no
    // memory, in the loads as in the gather.
    const __mmask16 rows =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i k = _mm512_maskz_loadu_epi32(rows, keys + i);
    // Unsigned k - key_min < width: keys below the domain wrap past it.
    const __m512i idx = _mm512_sub_epi32(k, key_min);
    const __mmask16 in = _mm512_mask_cmplt_epu32_mask(rows, idx, width);
    const __m512i pay = v::MaskGather(empty, in, slots, idx);
    const __mmask16 match = _mm512_cmpneq_epi32_mask(pay, empty);
    v::SelectiveStore(out_keys + j, match, k);
    v::SelectiveStore(out_spays + j, match,
                      _mm512_maskz_loadu_epi32(rows, pays + i));
    v::SelectiveStore(out_rpays + j, match, pay);
    j += static_cast<size_t>(__builtin_popcount(match));
  }
  return j;
}

}  // namespace simddb
