#include "exec/query.h"

#include "exec/fused.h"
#include "obs/metrics.h"

namespace simddb::exec {
namespace {

// Whole-query wall time per executor path, recorded on the submitting
// thread. Both spans cover the full plan (build pipeline + probe side), so
// exec_fused_ns / exec_dynamic_ns measured on the same plan are directly
// comparable — the ratio the bench gate in scripts/bench_baselines.json
// checks. Registry keeps raw pointers: static storage required.
obs::PhaseTimer g_fused_ns("exec_fused_ns");
obs::PhaseTimer g_dynamic_ns("exec_dynamic_ns");

}  // namespace

// Pipeline 0 of every plan — the build side materializes through Chunk
// staging on both executor paths, so the fused path probes the exact table
// and Bloom filter the dynamic path builds.
HashBuildOp* AddBuildPipeline(Query& q, const ScanJoinAggregatePlan& plan) {
  Operator* r_scan =
      plan.r_keys_c != nullptr
          ? static_cast<Operator*>(q.Add<CompressedScanOp>(
                plan.r_keys_c, plan.r_attrs_c, plan.r_lo, plan.r_hi,
                /*filter_on_vals=*/false, plan.scan_mode))
          : q.Add<ScanOp>(plan.r_keys, plan.r_attrs, plan.n_r, plan.r_lo,
                          plan.r_hi,
                          /*filter_on_vals=*/false, plan.scan_mode);
  HashBuildOp* build =
      q.Add<HashBuildOp>(plan.bloom_bits_per_key, plan.bloom_k);
  std::vector<Operator*> ops{r_scan};
  if (plan.scan_mode == ScanMode::kBitmap) ops.push_back(q.Add<MaterializeOp>());
  ops.push_back(build);
  q.AddPipeline(std::move(ops));
  return build;
}

namespace {

QueryResult RunDynamic(const ScanJoinAggregatePlan& plan,
                       const ExecConfig& cfg) {
  obs::ScopedPhase t(g_dynamic_ns);
  Query q;
  HashBuildOp* build = AddBuildPipeline(q, plan);

  // Probe side: S scan -> [materialize] -> [bloom] -> join probe ->
  // group-by sink. The scan filters on S.val, emitting chunks with col 0 =
  // fk, col 1 = val; the join probe appends col 2 = R.attr; the sink groups
  // col 2 aggregating col 1.
  Operator* s_scan =
      plan.s_fks_c != nullptr
          ? static_cast<Operator*>(q.Add<CompressedScanOp>(
                plan.s_fks_c, plan.s_vals_c, plan.s_lo, plan.s_hi,
                /*filter_on_vals=*/true, plan.scan_mode))
          : q.Add<ScanOp>(plan.s_fks, plan.s_vals, plan.n_s, plan.s_lo,
                          plan.s_hi,
                          /*filter_on_vals=*/true, plan.scan_mode);
  BloomProbeOp* bloom =
      plan.bloom_bits_per_key > 0 ? q.Add<BloomProbeOp>(build) : nullptr;
  HashJoinProbeOp* probe = q.Add<HashJoinProbeOp>(build);
  GroupBySink* sink = q.Add<GroupBySink>(build, /*key_col=*/2, /*val_col=*/1);
  std::vector<Operator*> ops{s_scan};
  if (plan.scan_mode == ScanMode::kBitmap) ops.push_back(q.Add<MaterializeOp>());
  if (bloom != nullptr) ops.push_back(bloom);
  ops.push_back(probe);
  ops.push_back(sink);
  q.AddPipeline(std::move(ops));

  q.Run(cfg);

  QueryResult res;
  res.group_keys = sink->keys();
  res.sums = sink->sums();
  res.counts = sink->counts();
  res.mins = sink->mins();
  res.maxs = sink->maxs();
  res.rows_build = build->build_rows();
  res.rows_scanned = s_scan->rows_out();
  res.rows_bloomed = bloom != nullptr ? bloom->rows_out() : res.rows_scanned;
  res.rows_joined = probe->rows_out();
  return res;
}

QueryResult RunFused(const ScanJoinAggregatePlan& plan, const ExecConfig& cfg) {
  obs::ScopedPhase t(g_fused_ns);
  // The build breaker still runs through the dynamic Chunk machinery (it
  // materializes state, the one thing fusion cannot elide), so a fused
  // query counts one dynamic pipeline (the build) plus one fused pipeline.
  Query q;
  HashBuildOp* build = AddBuildPipeline(q, plan);
  q.Run(cfg);

  FusedProbeSpec spec;
  spec.fks = plan.s_fks;
  spec.vals = plan.s_vals;
  spec.fks_c = plan.s_fks_c;
  spec.vals_c = plan.s_vals_c;
  spec.n = plan.s_fks_c != nullptr ? plan.s_fks_c->size() : plan.n_s;
  spec.lo = plan.s_lo;
  spec.hi = plan.s_hi;
  spec.scan_mode = plan.scan_mode;
  // build->bloom() is null when the filter is disabled or the build side
  // is empty; the fused bloom stage forwards batches untouched in that
  // case, exactly like the dynamic BloomProbeOp.
  spec.build = build;
  FusedProbeResult fr = RunFusedProbePipeline(spec, cfg);

  QueryResult res;
  res.group_keys = std::move(fr.group_keys);
  res.sums = std::move(fr.sums);
  res.counts = std::move(fr.counts);
  res.mins = std::move(fr.mins);
  res.maxs = std::move(fr.maxs);
  res.rows_build = build->build_rows();
  res.rows_scanned = fr.rows_scanned;
  res.rows_bloomed = fr.rows_bloomed;
  res.rows_joined = fr.rows_joined;
  res.used_fused = true;
  return res;
}

}  // namespace

QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg) {
  // Plan-build sanitization: never trust the requested ISA — an unsupported
  // request degrades to the best supported backend instead of SIGILLing in
  // the first kernel (see EffectiveIsa).
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);
  return run_cfg.pipeline_mode == PipelineMode::kFused
             ? RunFused(plan, run_cfg)
             : RunDynamic(plan, run_cfg);
}

}  // namespace simddb::exec
