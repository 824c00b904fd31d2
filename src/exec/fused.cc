// Scalar backend + runtime dispatch for the template-fused pipelines.
// The AVX2/AVX-512 instantiations live in fused_avx2.cc / fused_avx512.cc
// so their inner loops compile under the backend's ISA flags, mirroring the
// kernel TU layout (scan/selection_scan_avx2.cc etc.).

#include "exec/fused.h"

#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so instruments must have static storage.
obs::Counter g_chunks_pushed("chunks_pushed");
obs::Counter g_pipelines_fused("pipelines_fused");
obs::PhaseTimer g_build_ns("exec_build_ns");

}  // namespace

namespace detail {

void CountPipeline(size_t n_chunks) {
  g_chunks_pushed.Add(n_chunks);
  g_pipelines_fused.Add(1);
}

}  // namespace detail

template void RunFusedBuild<Isa::kScalar>(const ScanJoinAggregatePlan&,
                                          const ExecConfig&, HashBuildOp*);
template QueryResult RunFusedProbe<Isa::kScalar>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);

void RunFusedBuildPipeline(const ScanJoinAggregatePlan& plan,
                           const ExecConfig& cfg, HashBuildOp* build) {
  obs::ScopedPhase t(g_build_ns);
  if (plan.r_index != nullptr) {
    build->Borrow(cfg, *plan.r_index, plan.r_lo, plan.r_hi);
    return;
  }
  switch (cfg.isa) {
    case Isa::kAvx512:
      RunFusedBuild<Isa::kAvx512>(plan, cfg, build);
      break;
    case Isa::kAvx2:
      RunFusedBuild<Isa::kAvx2>(plan, cfg, build);
      break;
    default:
      RunFusedBuild<Isa::kScalar>(plan, cfg, build);
      break;
  }
  build->Finish();
}

QueryResult RunFusedProbePipeline(const ScanJoinAggregatePlan& plan,
                                  const HashBuildOp& build,
                                  const ExecConfig& cfg) {
  switch (cfg.isa) {
    case Isa::kAvx512:
      return RunFusedProbe<Isa::kAvx512>(plan, build, cfg);
    case Isa::kAvx2:
      return RunFusedProbe<Isa::kAvx2>(plan, build, cfg);
    default:
      return RunFusedProbe<Isa::kScalar>(plan, build, cfg);
  }
}

}  // namespace simddb::exec
