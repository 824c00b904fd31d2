#include "exec/query.h"

#include "exec/fused.h"
#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers: static storage required.
// Whole-query wall time (the build plus the probe pipeline), recorded on
// the submitting thread.
obs::PhaseTimer g_fused_ns("exec_fused_ns");

// Plan-build sanitization: never trust the requested ISA — an unsupported
// request degrades to the best supported backend instead of SIGILLing in
// the first kernel (see EffectiveIsa).
ExecConfig Sanitized(const ExecConfig& cfg) {
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);
  return run_cfg;
}

}  // namespace

void Query::Run(const ExecConfig& cfg) {
  RunFusedBuildPipeline(plan_, Sanitized(cfg), &build_);
}

HashBuildOp* AddBuildPipeline(Query& q, const ScanJoinAggregatePlan& plan) {
  q.plan_ = plan;
  return &q.build_;
}

QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg) {
  obs::ScopedPhase t(g_fused_ns);
  const ExecConfig run_cfg = Sanitized(cfg);
  // The breaker needs its Finish (or borrowed window) before any probe
  // chunk flows.
  HashBuildOp build;
  RunFusedBuildPipeline(plan, run_cfg, &build);
  QueryResult res = RunFusedProbePipeline(plan, build, run_cfg);
  res.rows_build = build.build_rows();
  return res;
}

}  // namespace simddb::exec
