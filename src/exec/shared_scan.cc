#include "exec/shared_scan.h"

#include <cassert>
#include <memory>

#include "obs/metrics.h"
#include "util/task_pool.h"

namespace simddb::exec {
namespace {

obs::Counter g_shared_sweeps("shared_sweeps");    // shared-scan dispatches
obs::Counter g_shared_members("shared_members");  // consumers fed by sweeps

// One member's probe-side chain, assembled like RunDynamic's but driven
// externally by the shared sweep instead of its own Pipeline::Run.
struct Member {
  Query q;  // owns every operator (build + probe side)
  ScanOp* scan = nullptr;
  HashBuildOp* build = nullptr;
  BloomProbeOp* bloom = nullptr;
  HashJoinProbeOp* probe = nullptr;
  GroupBySink* sink = nullptr;
  std::vector<Operator*> chain;  // scan .. sink, in push order
};

}  // namespace

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
  ExecConfig run_cfg = cfg;
  run_cfg.isa = EffectiveIsa(cfg.isa);

  const size_t n_members = plans.size();
  std::vector<std::unique_ptr<Member>> members;
  members.reserve(n_members);

  // Build sides first, member by member: breakers need their barrier phase
  // complete before any probe chunk flows.
  for (const ScanJoinAggregatePlan& plan : plans) {
    auto m = std::make_unique<Member>();
    m->build = AddBuildPipeline(m->q, plan);
    m->q.Run(run_cfg);

    m->scan = m->q.Add<ScanOp>(plan.s_fks, plan.s_vals, plan.n_s, plan.s_lo,
                               plan.s_hi,
                               /*filter_on_vals=*/true, plan.scan_mode);
    m->scan->set_skip_empty(true);
    m->chain.push_back(m->scan);
    if (plan.scan_mode == ScanMode::kBitmap) {
      m->chain.push_back(m->q.Add<MaterializeOp>());
    }
    if (plan.bloom_bits_per_key > 0) {
      m->bloom = m->q.Add<BloomProbeOp>(m->build);
      m->chain.push_back(m->bloom);
    }
    m->probe = m->q.Add<HashJoinProbeOp>(m->build);
    m->chain.push_back(m->probe);
    m->sink = m->q.Add<GroupBySink>(m->build, /*key_col=*/2, /*val_col=*/1);
    m->chain.push_back(m->sink);
    members.push_back(std::move(m));
  }

  // One grid for everyone: the probe relation and chunk size are shared, so
  // every member sees exactly the chunk boundaries its solo pipeline would.
  const size_t n_chunks = members.front()->scan->SourceChunks(run_cfg);
  int lanes = TaskPool::LaneCount(n_chunks, run_cfg.threads);
  if (lanes < 1) lanes = 1;
  for (auto& m : members) {
    for (size_t i = 0; i + 1 < m->chain.size(); ++i) {
      m->chain[i]->set_next(m->chain[i + 1]);
    }
    m->chain.back()->set_next(nullptr);
    m->chain.front()->OpenSource(run_cfg, lanes);
    for (size_t i = 1; i < m->chain.size(); ++i) {
      m->chain[i]->Open(run_cfg, lanes, n_chunks);
    }
  }

  if (n_chunks > 0) {
    g_shared_sweeps.Add(1);
    g_shared_members.Add(n_members);
    TaskPool::Get().ParallelFor(
        n_chunks, run_cfg.threads, [&](int worker, size_t chunk) {
          // Back-to-back production keeps the chunk's base-column window
          // cache-hot across members — the one sweep that feeds N chains.
          for (auto& m : members) m->scan->Produce(chunk, worker);
        });
  }
  for (auto& m : members) {
    for (size_t i = 1; i < m->chain.size(); ++i) m->chain[i]->Finish();
  }

  std::vector<QueryResult> results;
  results.reserve(n_members);
  for (size_t i = 0; i < n_members; ++i) {
    Member& m = *members[i];
    QueryResult res;
    res.group_keys = m.sink->keys();
    res.sums = m.sink->sums();
    res.counts = m.sink->counts();
    res.mins = m.sink->mins();
    res.maxs = m.sink->maxs();
    res.rows_build = m.build->build_rows();
    res.rows_scanned = m.scan->rows_out();
    res.rows_bloomed =
        m.bloom != nullptr ? m.bloom->rows_out() : res.rows_scanned;
    res.rows_joined = m.probe->rows_out();
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace simddb::exec
