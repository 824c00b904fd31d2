// Scalar backend + runtime dispatch for the template-fused pipelines.
// The AVX2/AVX-512 instantiations live in fused_avx2.cc / fused_avx512.cc
// so their inner loops compile under the backend's ISA flags, mirroring the
// kernel TU layout (scan/selection_scan_avx2.cc etc.).

#include "exec/fused.h"

#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so the counter must have static storage.
obs::Counter g_pipelines_fused("pipelines_fused");

}  // namespace

namespace detail {

void GatherPairScalar(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b) {
  for (size_t i = 0; i < cnt; ++i) {
    const uint32_t s = sel[i];
    out_a[i] = a[s];
    out_b[i] = b[s];
  }
}

}  // namespace detail

template FusedProbeResult RunFusedProbe<Isa::kScalar>(const FusedProbeSpec&,
                                                      const ExecConfig&);

FusedProbeResult RunFusedProbePipeline(const FusedProbeSpec& spec,
                                       const ExecConfig& cfg) {
  g_pipelines_fused.Add(1);
  // One ISA switch per pipeline — the only dispatch the fused path pays.
  switch (cfg.isa) {
    case Isa::kAvx512:
      return RunFusedProbe<Isa::kAvx512>(spec, cfg);
    case Isa::kAvx2:
      return RunFusedProbe<Isa::kAvx2>(spec, cfg);
    default:
      return RunFusedProbe<Isa::kScalar>(spec, cfg);
  }
}

}  // namespace simddb::exec
