#include "exec/query.h"

#include <cassert>
#include <utility>

#include "exec/fused.h"
#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers: static storage required.
// Whole-executor wall time (every build plus the probe sweep), recorded on
// the submitting thread.
obs::PhaseTimer g_fused_ns("exec_fused_ns");
obs::Counter g_shared_sweeps("shared_sweeps");    // shared-scan dispatches
obs::Counter g_shared_members("shared_members");  // consumers fed by sweeps

// Plan-build sanitization: never trust the requested ISA — an unsupported
// request degrades to the best supported backend instead of SIGILLing in
// the first kernel (see EffectiveIsa).
ExecConfig Sanitized(const ExecConfig& cfg) {
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);
  return run_cfg;
}

// The one driver behind every query: each plan's build pipeline, member by
// member (breakers need their Finish before any probe chunk flows), then
// every plan's probe pipeline as a member of one grid.
std::vector<QueryResult> RunPlans(
    const std::vector<ScanJoinAggregatePlan>& plans, const ExecConfig& cfg) {
  obs::ScopedPhase t(g_fused_ns);
  const ExecConfig run_cfg = Sanitized(cfg);
  std::vector<HashBuildOp> builds(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    RunFusedBuildPipeline(plans[i], run_cfg, &builds[i]);
  }
  std::vector<QueryResult> results = RunFusedProbePipelines(
      plans.data(), builds.data(), plans.size(), run_cfg);
  for (size_t i = 0; i < plans.size(); ++i) {
    results[i].rows_build = builds[i].build_rows();
  }
  return results;
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
  return std::move(RunPlans({plan}, cfg).front());
}

bool SharedProbeSupported(const std::vector<ScanJoinAggregatePlan>& plans) {
  if (plans.empty()) return false;
  const ScanJoinAggregatePlan& first = plans.front();
  if (first.s_fks == nullptr || first.s_fks_c != nullptr) return false;
  for (const ScanJoinAggregatePlan& p : plans) {
    if (p.s_fks != first.s_fks || p.s_vals != first.s_vals ||
        p.n_s != first.n_s) {
      return false;
    }
    if (p.s_fks_c != nullptr || p.s_vals_c != nullptr) return false;
  }
  return true;
}

std::vector<QueryResult> RunSharedProbe(
    const std::vector<ScanJoinAggregatePlan>& plans, const ExecConfig& cfg) {
  assert(SharedProbeSupported(plans));
  std::vector<QueryResult> results = RunPlans(plans, cfg);
  if (plans.front().n_s > 0) {
    g_shared_sweeps.Add(1);
    g_shared_members.Add(plans.size());
  }
  return results;
}

}  // namespace simddb::exec
