// AVX-512 backend TU for the template-fused pipelines: anchors the
// RunFusedProbe<kAvx512> instantiation and the fused two-column gather.
// The tail is fully masked (maskz index load -> masked gather -> masked
// store), so no lane ever dereferences an index beyond `cnt`.

#include "exec/fused.h"

#include <immintrin.h>

#include <cstdint>

namespace simddb::exec {

namespace detail {

void GatherPairAvx512(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b) {
  size_t i = 0;
  for (; i + 16 <= cnt; i += 16) {
    const __m512i idx = _mm512_loadu_si512(sel + i);
    _mm512_storeu_si512(out_a + i, _mm512_i32gather_epi32(idx, a, 4));
    _mm512_storeu_si512(out_b + i, _mm512_i32gather_epi32(idx, b, 4));
  }
  const size_t rem = cnt - i;
  if (rem != 0) {
    const __mmask16 m = static_cast<__mmask16>((1u << rem) - 1);
    const __m512i idx = _mm512_maskz_loadu_epi32(m, sel + i);
    const __m512i zero = _mm512_setzero_si512();
    _mm512_mask_storeu_epi32(out_a + i, m,
                             _mm512_mask_i32gather_epi32(zero, m, idx, a, 4));
    _mm512_mask_storeu_epi32(out_b + i, m,
                             _mm512_mask_i32gather_epi32(zero, m, idx, b, 4));
  }
}

}  // namespace detail

template FusedProbeResult RunFusedProbe<Isa::kAvx512>(const FusedProbeSpec&,
                                                      const ExecConfig&);

}  // namespace simddb::exec
