#include "util/task_pool.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace simddb {
namespace {

// Scheduler metrics (obs/metrics.h). Sharded per worker; zero-cost when
// metrics are disabled beyond one relaxed load per event, and every event
// amortizes over >= one morsel of work.
obs::Counter g_steals("steals");            // successful back-half steals
obs::Counter g_stolen_tasks("stolen_tasks");  // tasks migrated by steals
obs::Counter g_morsels("morsels");          // tasks executed via ParallelFor
obs::Counter g_inline_runs("inline_runs");  // jobs run inline on the caller
obs::Counter g_dispatches("dispatches");    // pooled job dispatches
obs::Counter g_range_splits("range_splits");  // oversized-range sub-dispatches
obs::Counter g_fair_quanta("fair_quanta");  // quanta granted by the fair gate

// True while the current thread is executing inside a pool job (workers
// always; the submitting thread while it runs its own lane). Nested parallel
// calls from such a thread run inline: the pool is a flat resource, and
// blocking a worker on a sub-job could deadlock the outer one.
thread_local bool tls_in_pool_job = false;

struct InJobScope {
  InJobScope() { tls_in_pool_job = true; }
  ~InJobScope() { tls_in_pool_job = false; }
};

// Query tag of the current (submitting) thread; 0 = untagged. Set by
// TaskPool::QueryTagScope around a query's execution, read at every
// ParallelFor entry to route through the fair gate.
thread_local uint64_t tls_query_tag = 0;

constexpr uint64_t PackRange(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
constexpr uint32_t RangeBegin(uint64_t r) {
  return static_cast<uint32_t>(r >> 32);
}
constexpr uint32_t RangeEnd(uint64_t r) { return static_cast<uint32_t>(r); }

}  // namespace

TaskPool& TaskPool::Get() {
  static TaskPool pool;
  return pool;
}

int TaskPool::MaxWorkers() {
  static const int cap = [] {
    if (const char* env = std::getenv("SIMDDB_THREADS")) {
      int v = std::atoi(env);
      if (v >= 1) return v;
    }
    // No explicit cap: allow deliberate oversubscription (the Fig. 16
    // reproduction sweeps thread counts past the core count on any host).
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw > 64 ? hw : 64;
  }();
  return cap;
}

int TaskPool::LaneCount(size_t n_tasks, int max_workers) {
  int lanes = max_workers < MaxWorkers() ? max_workers : MaxWorkers();
  if (static_cast<size_t>(lanes) > n_tasks) {
    lanes = static_cast<int>(n_tasks);
  }
  return lanes < 1 ? 1 : lanes;
}

TaskPool::~TaskPool() {
  // Abort every still-registered query tag first: a client thread parked in
  // AcquireQuantum unwinds with QueryAborted instead of waiting on a pool
  // that is tearing down, and its queued-but-unstarted quanta are simply
  // never dispatched (the drain is clean by construction — quanta are
  // sliced lazily on the submitting thread, nothing sits in lane deques
  // between dispatches).
  {
    std::lock_guard<std::mutex> lock(fair_mu_);
    fair_shutdown_ = true;
    for (auto& [tag, st] : tags_) st.aborted = true;
  }
  fair_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

TaskPool::QueryTagScope::QueryTagScope(uint64_t tag) : prev_(tls_query_tag) {
  tls_query_tag = tag;
}

TaskPool::QueryTagScope::~QueryTagScope() { tls_query_tag = prev_; }

uint64_t TaskPool::RegisterQueryTag(uint64_t weight) {
  std::lock_guard<std::mutex> lock(fair_mu_);
  const uint64_t tag = next_query_tag_++;
  TagState st;
  st.weight = weight < 1 ? 1 : weight;
  // Join at the minimum live vtime: a newcomer neither inherits the debt of
  // long-running peers (it would monopolize) nor starts at 0 against peers
  // with accumulated vtime (it would starve them).
  uint64_t min_vtime = UINT64_MAX;
  for (const auto& [t, s] : tags_) {
    if (s.vtime < min_vtime) min_vtime = s.vtime;
  }
  st.vtime = min_vtime == UINT64_MAX ? 0 : min_vtime;
  tags_.emplace(tag, st);
  return tag;
}

void TaskPool::UnregisterQueryTag(uint64_t tag) {
  {
    std::lock_guard<std::mutex> lock(fair_mu_);
    tags_.erase(tag);
  }
  // Waiters recompute BestWaitingTag against the shrunk set.
  fair_cv_.notify_all();
}

void TaskPool::AbortQueryTag(uint64_t tag) {
  {
    std::lock_guard<std::mutex> lock(fair_mu_);
    auto it = tags_.find(tag);
    if (it == tags_.end()) return;
    it->second.aborted = true;
  }
  fair_cv_.notify_all();
}

uint64_t TaskPool::QueryTagMorsels(uint64_t tag) {
  std::lock_guard<std::mutex> lock(fair_mu_);
  auto it = tags_.find(tag);
  return it == tags_.end() ? 0 : it->second.morsels;
}

size_t TaskPool::RegisteredQueryTags() {
  std::lock_guard<std::mutex> lock(fair_mu_);
  return tags_.size();
}

uint64_t TaskPool::BestWaitingTag() const {
  uint64_t best_tag = 0;
  uint64_t best_vtime = UINT64_MAX;
  for (const auto& [tag, st] : tags_) {
    if (!st.waiting || st.aborted) continue;
    if (st.vtime < best_vtime || (st.vtime == best_vtime && tag < best_tag)) {
      best_tag = tag;
      best_vtime = st.vtime;
    }
  }
  return best_tag;
}

void TaskPool::ThrowIfTagAborted(uint64_t tag) {
  std::lock_guard<std::mutex> lock(fair_mu_);
  auto it = tags_.find(tag);
  if (fair_shutdown_ || (it != tags_.end() && it->second.aborted)) {
    throw QueryAborted{tag};
  }
}

size_t TaskPool::AcquireQuantum(uint64_t tag, size_t remaining) {
  std::unique_lock<std::mutex> lock(fair_mu_);
  auto it = tags_.find(tag);
  if (it == tags_.end()) {
    // Unknown (already unregistered) tag: no fairness state to maintain,
    // behave like an untagged dispatch.
    return remaining < kMaxTasksPerDispatch ? remaining
                                            : kMaxTasksPerDispatch;
  }
  if (fair_shutdown_ || it->second.aborted) throw QueryAborted{tag};
  it->second.waiting = true;
  fair_cv_.wait(lock, [&] {
    return fair_shutdown_ || it->second.aborted ||
           (fair_busy_tag_ == 0 && BestWaitingTag() == tag);
  });
  it->second.waiting = false;
  if (fair_shutdown_ || it->second.aborted) throw QueryAborted{tag};
  fair_busy_tag_ = tag;
  // Solo query: no one to be fair to — grant the whole remainder (clamped
  // to what one dispatch can represent) so the uncontended path costs one
  // gate round-trip total.
  size_t grant = tags_.size() > 1 ? kFairQuantumTasks : remaining;
  if (grant > remaining) grant = remaining;
  if (grant > kMaxTasksPerDispatch) grant = kMaxTasksPerDispatch;
  return grant;
}

void TaskPool::ReleaseQuantum(uint64_t tag, size_t tasks) {
  {
    std::lock_guard<std::mutex> lock(fair_mu_);
    auto it = tags_.find(tag);
    if (it != tags_.end()) {
      it->second.morsels += tasks;
      it->second.vtime += tasks * kVtimeScale / it->second.weight;
    }
    if (fair_busy_tag_ == tag) fair_busy_tag_ = 0;
  }
  fair_cv_.notify_all();
}

void TaskPool::CreditTag(uint64_t tag, size_t tasks) {
  std::lock_guard<std::mutex> lock(fair_mu_);
  auto it = tags_.find(tag);
  if (it == tags_.end()) return;
  it->second.morsels += tasks;
  it->second.vtime += tasks * kVtimeScale / it->second.weight;
}

void TaskPool::FairParallelFor(uint64_t tag, size_t n_tasks, int max_workers,
                               const std::function<void(int, size_t)>& fn) {
  const int lanes = LaneCount(n_tasks, max_workers);
  if (lanes <= 1) {
    // Inline single-lane run: it executes on the client's own thread and
    // contends for no pool workers, so gating it would only serialize
    // client threads. Aborts are still honoured at dispatch boundaries and
    // the drained tasks still count toward the tag (no-starvation gate).
    size_t base = 0;
    while (base < n_tasks) {
      size_t take = n_tasks - base;
      if (take > kMaxTasksPerDispatch) take = kMaxTasksPerDispatch;
      ThrowIfTagAborted(tag);
      if (base == 0 && take == n_tasks) {
        DispatchFor(take, max_workers, fn);
      } else {
        const size_t b = base;
        g_range_splits.Add(1);
        DispatchFor(take, max_workers, [&fn, b](int worker, size_t task) {
          fn(worker, b + task);
        });
      }
      CreditTag(tag, take);
      base += take;
    }
    return;
  }
  size_t base = 0;
  while (base < n_tasks) {
    const size_t grant = AcquireQuantum(tag, n_tasks - base);
    g_fair_quanta.Add(1);
    if (base == 0 && grant == n_tasks) {
      DispatchFor(grant, max_workers, fn);
    } else {
      const size_t b = base;
      DispatchFor(grant, max_workers, [&fn, b](int worker, size_t task) {
        fn(worker, b + task);
      });
    }
    ReleaseQuantum(tag, grant);
    base += grant;
  }
}

void TaskPool::EnsureWorkers(int needed) {
  if (lanes_ == nullptr) {
    lanes_ = std::make_unique<Lane[]>(static_cast<size_t>(MaxWorkers()));
  }
  while (static_cast<int>(workers_.size()) < needed) {
    int self = static_cast<int>(workers_.size());
    workers_.emplace_back([this, self] { WorkerLoop(self); });
  }
}

int TaskPool::SpawnedWorkers() {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return static_cast<int>(workers_.size());
}

bool TaskPool::PopOrSteal(int lane, int n_lanes, size_t* task) {
  // Fast path: pop the front of the own deque — consecutive morsels, so a
  // lane that keeps its initial range streams through contiguous input.
  Lane& mine = lanes_[lane];
  uint64_t r = mine.range.load(std::memory_order_relaxed);
  while (RangeBegin(r) < RangeEnd(r)) {
    if (mine.range.compare_exchange_weak(
            r, PackRange(RangeBegin(r) + 1, RangeEnd(r)),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      *task = RangeBegin(r);
      return true;
    }
  }
  // Own deque drained: steal the back half of the first non-empty victim in
  // the ring (lane + i) % n_lanes. The stolen tasks (minus the one returned)
  // become the new own deque. Which lane executes a task never affects
  // output (the morsel grid fixes the layout), so the scan order is pure
  // policy.
  for (int i = 1; i < n_lanes; ++i) {
    Lane& victim = lanes_[(lane + i) % n_lanes];
    uint64_t vr = victim.range.load(std::memory_order_acquire);
    while (RangeBegin(vr) < RangeEnd(vr)) {
      uint32_t vb = RangeBegin(vr);
      uint32_t ve = RangeEnd(vr);
      uint32_t take = (ve - vb + 1) / 2;
      uint32_t split = ve - take;
      if (victim.range.compare_exchange_weak(vr, PackRange(vb, split),
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
        if (take > 1) {
          mine.range.store(PackRange(split + 1, ve),
                           std::memory_order_release);
        }
        if (obs::MetricsEnabled()) {
          g_steals.AddAlways(1);
          g_stolen_tasks.AddAlways(take);
        }
        *task = split;
        return true;
      }
    }
  }
  return false;
}

void TaskPool::RunLane(int lane, int n_lanes,
                       const std::function<void(int, size_t)>& fn) {
  size_t task;
  uint64_t executed = 0;
  while (PopOrSteal(lane, n_lanes, &task)) {
    fn(lane, task);
    ++executed;
  }
  if (executed > 0) g_morsels.Add(executed);
}

void TaskPool::WorkerLoop(int self) {
  InJobScope in_job;  // workers never start nested pool jobs
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    const int lane = self + 1;  // lane 0 is the submitting thread
    if (lane >= job_lanes_) continue;
    const int n_lanes = job_lanes_;
    const auto* for_fn = for_fn_;
    obs::QueryMetricSink* sink = job_sink_;
    lock.unlock();
    {
      // Extend the submitting thread's per-query attribution sink (if any)
      // to this worker lane for the duration of the job, so work executed
      // on a query's behalf is credited to that query wherever it runs.
      obs::ScopedMetricSink sink_scope(sink);
      RunLane(lane, n_lanes, *for_fn);
    }
    lock.lock();
    if (--lanes_remaining_ == 0) done_cv_.notify_all();
  }
}

void TaskPool::ParallelFor(size_t n_tasks, int max_workers,
                           const std::function<void(int, size_t)>& fn) {
  const uint64_t tag = tls_query_tag;
  if (tag != 0 && !tls_in_pool_job && n_tasks > 0) {
    // Tagged query work passes the weighted-fair gate (which also handles
    // oversized ranges — quanta are clamped to kMaxTasksPerDispatch).
    FairParallelFor(tag, n_tasks, max_workers, fn);
    return;
  }
  if (n_tasks <= kMaxTasksPerDispatch) {
    DispatchFor(n_tasks, max_workers, fn);
    return;
  }
  // Hard guard, active in every build mode: the packed 32-bit lane deques
  // cannot represent this range in one dispatch, so split it. (Previously
  // an assert that compiled out under NDEBUG, after which PackRange
  // silently truncated task indices.)
  ParallelForChunked(n_tasks, kMaxTasksPerDispatch, max_workers, fn);
}

void TaskPool::ParallelForChunked(
    size_t n_tasks, size_t max_tasks_per_dispatch, int max_workers,
    const std::function<void(int, size_t)>& fn) {
  size_t chunk = max_tasks_per_dispatch;
  if (chunk == 0) chunk = 1;
  if (chunk > kMaxTasksPerDispatch) chunk = kMaxTasksPerDispatch;
  if (n_tasks <= chunk) {
    DispatchFor(n_tasks, max_workers, fn);
    return;
  }
  for (size_t base = 0; base < n_tasks; base += chunk) {
    const size_t take = n_tasks - base < chunk ? n_tasks - base : chunk;
    g_range_splits.Add(1);
    DispatchFor(take, max_workers, [&fn, base](int worker, size_t task) {
      fn(worker, base + task);
    });
  }
}

void TaskPool::DispatchFor(size_t n_tasks, int max_workers,
                           const std::function<void(int, size_t)>& fn) {
  if (n_tasks == 0) return;
  if (n_tasks > kMaxTasksPerDispatch) {
    // Unreachable via the public entry points; abort loudly rather than
    // let PackRange wrap 32-bit task indices.
    std::fprintf(stderr,
                 "TaskPool::DispatchFor: %zu tasks exceed the %zu-task "
                 "dispatch limit\n",
                 n_tasks, kMaxTasksPerDispatch);
    std::abort();
  }
  const int lanes = LaneCount(n_tasks, max_workers);
  if (lanes <= 1 || tls_in_pool_job) {
    g_inline_runs.Add(1);
    for (size_t t = 0; t < n_tasks; ++t) fn(0, t);
    if (obs::MetricsEnabled()) g_morsels.AddAlways(n_tasks);
    return;
  }
  g_dispatches.Add(1);

  std::lock_guard<std::mutex> jobs_lock(jobs_mu_);
  EnsureWorkers(lanes - 1);
  // Initial split: lane l owns the contiguous index block
  // [l*n/L, (l+1)*n/L) — same blocks static chunking would use, so with no
  // steals the access pattern is identical; steals only rebalance the tail.
  const uint64_t n = n_tasks;
  for (int l = 0; l < lanes; ++l) {
    uint32_t b = static_cast<uint32_t>(n * l / lanes);
    uint32_t e = static_cast<uint32_t>(n * (l + 1) / lanes);
    lanes_[l].range.store(PackRange(b, e), std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for_fn_ = &fn;
    job_sink_ = obs::CurrentMetricSink();
    job_lanes_ = lanes;
    lanes_remaining_ = lanes;
    ++epoch_;
  }
  work_cv_.notify_all();
  {
    InJobScope in_job;
    RunLane(0, lanes, fn);
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (--lanes_remaining_ > 0) {
    done_cv_.wait(lock, [&] { return lanes_remaining_ == 0; });
  }
  for_fn_ = nullptr;
  job_sink_ = nullptr;
  job_lanes_ = 0;
}

}  // namespace simddb
