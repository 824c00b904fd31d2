// AVX-512 backend TU for the executor: anchors the RunFusedBuild<kAvx512>
// and RunFusedProbe<kAvx512> instantiations and the ColumnMinMax kernel
// the build breaker runs per staged chunk (vpminud/vpmaxud accumulators
// with a masked tail).

#include "exec/fused.h"

#include <immintrin.h>

#include <cstdint>

namespace simddb::exec {

namespace detail {

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

}  // namespace detail

template void RunFusedBuild<Isa::kAvx512>(const ScanJoinAggregatePlan&,
                                          const ExecConfig&, HashBuildOp*);
template QueryResult RunFusedProbe<Isa::kAvx512>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);

}  // namespace simddb::exec
