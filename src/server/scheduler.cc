#include "server/scheduler.h"

#include <chrono>
#include <cstdlib>
#include <limits>

#include "obs/metrics.h"
#include "util/task_pool.h"

namespace simddb::server {
namespace {

// Serving-layer instruments (static storage: the registry keeps pointers).
obs::Counter g_queries_completed("queries_completed");
obs::Counter g_queries_rejected("queries_rejected");
obs::Counter g_queries_aborted("queries_aborted");
obs::Counter g_admission_wait_ns("admission_wait_ns");
obs::Counter g_shared_groups("shared_groups");  // gathers closed

int MaxInflightFromEnv() {
  if (const char* env = std::getenv("SIMDDB_MAX_INFLIGHT")) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return std::numeric_limits<int>::max();
}

// Plans probing the same raw catalog table through the same executor shape
// may share a sweep; the gather key pins everything the common chunk grid
// depends on.
std::string GatherKey(const QuerySpec& spec, const exec::ExecConfig& cfg) {
  return spec.probe_table + "|t" + std::to_string(cfg.threads) + "|c" +
         std::to_string(cfg.chunk_tuples) + "|i" +
         std::to_string(static_cast<int>(cfg.isa));
}

// How a failed gather surfaces in every member's Run: an executor refusal
// as the same QueryError (so each client gets the reason), an abort as
// QueryAborted.
[[noreturn]] void ThrowGatherFailure(const std::string& error, uint64_t tag) {
  if (!error.empty()) throw exec::QueryError(error);
  throw QueryAborted{tag};
}

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

// One shared-scan gather: concurrent eligible queries on one key collect
// here until the group closes (member count hits the hint, or a member
// times out waiting), then exactly one member — the closer — runs the
// single sweep and publishes every member's result.
struct QueryScheduler::Gather {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<exec::ScanJoinAggregatePlan> plans;
  std::vector<exec::QueryResult> results;  // one per plan, set by the closer
  uint64_t group_morsels = 0;
  bool closed = false;  // no longer accepting members
  bool done = false;    // results published
  bool failed = false;  // the closer's sweep aborted or was refused
  std::string error;    // the executor's refusal (QueryError), if any
};

QueryScheduler::QueryScheduler(const Catalog* catalog,
                               const SchedulerOptions& opts)
    : catalog_(catalog), opts_(opts) {
  max_inflight_ =
      opts.max_inflight >= 1 ? opts.max_inflight : MaxInflightFromEnv();
}

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

  const bool share = opts_.shared_scans && plan.s_fks != nullptr;
  const uint64_t e0 = obs::NowNs();
  try {
    TaskPool::QueryTagScope tag_scope(tag);
    obs::ScopedMetricSink sink_scope(sink.get());
    if (share) {
      rs.result = RunShared(GatherKey(spec, cfg), plan, cfg, tag, &rs.stats);
      rs.stats.shared_scan = true;
    } else {
      rs.result = exec::RunScanJoinAggregate(plan, cfg);
    }
    rs.ok = true;
  } catch (const QueryAborted&) {
    rs.stats.aborted = true;
    rs.error = "query aborted";
    g_queries_aborted.Add(1);
  } catch (const exec::QueryError& e) {
    rs.error = e.what();
  }
  rs.stats.exec_ns = obs::NowNs() - e0;
  if (!rs.stats.shared_scan) {
    rs.stats.morsels_drained = pool.QueryTagMorsels(tag);
  }
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

exec::QueryResult QueryScheduler::RunShared(
    const std::string& key, const exec::ScanJoinAggregatePlan& plan,
    const exec::ExecConfig& cfg, uint64_t tag, QueryStats* stats) {
  std::shared_ptr<Gather> g;
  size_t my_idx = 0;
  bool closer = false;

  {
    // Lock order: gathers_mu_ -> g->mu, here and in the timeout path.
    std::lock_guard<std::mutex> lock(gathers_mu_);
    auto it = gathers_.find(key);
    if (it != gathers_.end()) {
      std::lock_guard<std::mutex> gl(it->second->mu);
      if (!it->second->closed) {
        g = it->second;
        g->plans.push_back(plan);
        my_idx = g->plans.size() - 1;
        if (opts_.shared_gather_hint > 0 &&
            g->plans.size() >= opts_.shared_gather_hint) {
          g->closed = true;
          closer = true;
          gathers_.erase(it);
        }
      }
    }
    if (g == nullptr) {
      g = std::make_shared<Gather>();
      g->plans.push_back(plan);
      my_idx = 0;
      if (opts_.shared_gather_hint == 1) {
        g->closed = true;
        closer = true;
      } else {
        gathers_[key] = g;
      }
    }
  }

  std::unique_lock<std::mutex> gl(g->mu);
  while (!closer && !g->done && !g->failed) {
    if (g->closed) {
      // Someone else is (or will be) running the sweep; just wait.
      g->cv.wait(gl, [&] { return g->done || g->failed; });
      break;
    }
    if (g->cv.wait_for(gl, std::chrono::nanoseconds(
                               opts_.shared_gather_timeout_ns)) ==
            std::cv_status::timeout &&
        !g->closed) {
      // Liveness fallback: fewer members than the hint arrived — close the
      // group with whoever is here and run for them.
      g->closed = true;
      closer = true;
      gl.unlock();
      {
        std::lock_guard<std::mutex> lock(gathers_mu_);
        auto it = gathers_.find(key);
        if (it != gathers_.end() && it->second == g) gathers_.erase(it);
      }
      gl.lock();
    }
  }

  if (closer) {
    std::vector<exec::ScanJoinAggregatePlan> plans = g->plans;
    gl.unlock();
    g_shared_groups.Add(1);
    TaskPool& pool = TaskPool::Get();
    const uint64_t m0 = pool.QueryTagMorsels(tag);
    std::vector<exec::QueryResult> results;
    bool failed = false;
    std::string error;
    try {
      // Runs under the closer's QueryTagScope/metric sink (set in Run), so
      // the whole group's sweep is fair-scheduled and attributed as one
      // query's work — which it is: one dispatch serving N consumers.
      results = exec::RunSharedProbe(plans, cfg);
    } catch (const QueryAborted&) {
      failed = true;
    } catch (const exec::QueryError& e) {
      failed = true;
      error = e.what();
    }
    const uint64_t drained = pool.QueryTagMorsels(tag) - m0;
    gl.lock();
    g->results = std::move(results);
    g->group_morsels = drained;
    g->failed = failed;
    g->error = error;
    g->done = !failed;
    gl.unlock();
    g->cv.notify_all();
    if (failed) ThrowGatherFailure(error, tag);
    gl.lock();
  }

  if (g->failed) ThrowGatherFailure(g->error, tag);
  stats->morsels_drained = g->group_morsels;
  return g->results[my_idx];
}

}  // namespace simddb::server
