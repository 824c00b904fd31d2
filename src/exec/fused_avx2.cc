// AVX2 backend TU for the executor: anchors the RunFusedBuild<kAvx2> and
// RunFusedProbe<kAvx2> instantiations (so the fused stage loops compile
// under the AVX2 flags) and the ColumnMinMax kernel the build breaker runs
// per staged chunk (vpminud/vpmaxud accumulators, scalar tail).

#include "exec/fused.h"

#include <immintrin.h>

#include <cstdint>

namespace simddb::exec {

namespace detail {

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

}  // namespace detail

template void RunFusedBuild<Isa::kAvx2>(const ScanJoinAggregatePlan&,
                                        const ExecConfig&, HashBuildOp*);
template QueryResult RunFusedProbe<Isa::kAvx2>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);

}  // namespace simddb::exec
