#include "server/scheduler.h"

#include <limits>
#include <memory>

#include "obs/metrics.h"
#include "util/task_pool.h"

namespace simddb::server {
namespace {

// Serving-layer instruments (static storage: the registry keeps pointers).
obs::Counter g_queries_completed("queries_completed");
obs::Counter g_queries_rejected("queries_rejected");
obs::Counter g_queries_aborted("queries_aborted");
obs::Counter g_admission_wait_ns("admission_wait_ns");

}  // namespace

bool BindQuery(const Catalog& catalog, const QuerySpec& spec,
               exec::ScanJoinAggregatePlan* plan, std::string* error) {
  const Table* r = catalog.Find(spec.build_table);
  if (r == nullptr) {
    if (error != nullptr) *error = "unknown build table: " + spec.build_table;
    return false;
  }
  const Table* s = catalog.Find(spec.probe_table);
  if (s == nullptr) {
    if (error != nullptr) *error = "unknown probe table: " + spec.probe_table;
    return false;
  }
  if (spec.prefer_compressed &&
      (r->keys_compressed() == nullptr || s->keys_compressed() == nullptr)) {
    if (error != nullptr) {
      *error = "compressed plan requested but a table is uncompressed";
    }
    return false;
  }
  *plan = exec::ScanJoinAggregatePlan{};
  if (spec.prefer_compressed) {
    plan->r_keys_c = r->keys_compressed();
    plan->r_attrs_c = r->vals_compressed();
    plan->s_fks_c = s->keys_compressed();
    plan->s_vals_c = s->vals_compressed();
  } else {
    plan->r_keys = r->keys();
    plan->r_attrs = r->vals();
    plan->n_r = r->rows();
    plan->s_fks = s->keys();
    plan->s_vals = s->vals();
    plan->n_s = s->rows();
  }
  plan->r_index = r->join_index();
  plan->r_lo = spec.r_lo;
  plan->r_hi = spec.r_hi;
  plan->s_lo = spec.s_lo;
  plan->s_hi = spec.s_hi;
  return true;
}

QueryScheduler::QueryScheduler(const Catalog* catalog,
                               const SchedulerOptions& opts)
    : catalog_(catalog),
      opts_(opts),
      max_inflight_(opts.max_inflight >= 1
                        ? opts.max_inflight
                        : std::numeric_limits<int>::max()) {}

bool QueryScheduler::Admit(uint64_t* waited_ns) {
  *waited_ns = 0;
  std::unique_lock<std::mutex> lock(admit_mu_);
  if (inflight_ < max_inflight_) {
    ++inflight_;
    return true;
  }
  if (opts_.policy == AdmissionPolicy::kReject) {
    ++rejected_;
    g_queries_rejected.Add(1);
    return false;
  }
  const uint64_t t0 = obs::NowNs();
  admit_cv_.wait(lock, [&] { return inflight_ < max_inflight_; });
  ++inflight_;
  *waited_ns = obs::NowNs() - t0;
  g_admission_wait_ns.Add(*waited_ns);
  return true;
}

void QueryScheduler::Release() {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --inflight_;
    ++completed_;
  }
  admit_cv_.notify_one();
}

uint64_t QueryScheduler::queries_completed() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  return completed_;
}

uint64_t QueryScheduler::queries_rejected() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  return rejected_;
}

ResultSet QueryScheduler::Run(const QuerySpec& spec,
                              const exec::ExecConfig& cfg, uint64_t weight) {
  ResultSet rs;
  exec::ScanJoinAggregatePlan plan;
  if (!BindQuery(*catalog_, spec, &plan, &rs.error)) return rs;

  if (!Admit(&rs.stats.queue_wait_ns)) {
    rs.error = "admission rejected: " + std::to_string(max_inflight_) +
               " queries already in flight";
    rs.stats.rejected = true;
    return rs;
  }

  TaskPool& pool = TaskPool::Get();
  const uint64_t tag = pool.RegisterQueryTag(weight);
  rs.stats.tag = tag;
  // Per-query instrument attribution: while this thread (and every worker
  // lane of its dispatches) runs, instrument updates are also credited to
  // this sink — concurrent queries' metrics stay separable.
  std::unique_ptr<obs::QueryMetricSink> sink;
  if (obs::MetricsEnabled()) sink = std::make_unique<obs::QueryMetricSink>();

  const uint64_t e0 = obs::NowNs();
  try {
    TaskPool::QueryTagScope tag_scope(tag);
    obs::ScopedMetricSink sink_scope(sink.get());
    rs.result = exec::RunScanJoinAggregate(plan, cfg);
    rs.ok = true;
  } catch (const QueryAborted&) {
    rs.stats.aborted = true;
    rs.error = "query aborted";
    g_queries_aborted.Add(1);
  } catch (const exec::QueryError& e) {
    rs.error = e.what();
  }
  rs.stats.exec_ns = obs::NowNs() - e0;
  rs.stats.morsels_drained = pool.QueryTagMorsels(tag);
  if (sink != nullptr) {
    for (const obs::MetricSample& s : sink->Samples()) {
      rs.stats.metrics[s.name] = s.value;
    }
  }
  pool.UnregisterQueryTag(tag);
  Release();
  if (rs.ok) g_queries_completed.Add(1);
  return rs;
}

}  // namespace simddb::server
