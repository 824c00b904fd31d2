// AVX2 backend TU for the template-fused pipelines: anchors the
// RunFusedProbe<kAvx2> instantiation (so the fused stage loops compile
// under the AVX2 flags) and the fused two-column gather. Haswell has native
// gathers (vpgatherdd) but no masked 32-bit loads worth using here, so the
// tail stays scalar — reading past `cnt` would gather through garbage
// indexes.

#include "exec/fused.h"

#include <immintrin.h>

#include <cstdint>

namespace simddb::exec {

namespace detail {

void GatherPairAvx2(const uint32_t* a, const uint32_t* b, const uint32_t* sel,
                    size_t cnt, uint32_t* out_a, uint32_t* out_b) {
  size_t i = 0;
  for (; i + 8 <= cnt; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i va =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(a), idx, 4);
    const __m256i vb =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(b), idx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_a + i), va);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_b + i), vb);
  }
  for (; i < cnt; ++i) {
    const uint32_t s = sel[i];
    out_a[i] = a[s];
    out_b[i] = b[s];
  }
}

}  // namespace detail

template FusedProbeResult RunFusedProbe<Isa::kAvx2>(const FusedProbeSpec&,
                                                    const ExecConfig&);

}  // namespace simddb::exec
