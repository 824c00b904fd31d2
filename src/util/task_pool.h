#ifndef SIMDDB_UTIL_TASK_POOL_H_
#define SIMDDB_UTIL_TASK_POOL_H_

// Morsel-driven persistent worker pool (§8 multi-core execution substrate).
//
// The paper's multi-core results (Fig. 16) only need a fork-join team, but a
// production execution engine invokes parallel operators thousands of times
// per second; spawning std::threads per call puts ~50-100 µs of kernel work
// on every hot path, and static contiguous chunking leaves threads idle
// behind the slowest chunk on skewed inputs. This pool fixes both:
//
//   - process-lifetime workers, lazily spawned on first parallel call and
//     reused for every subsequent operator invocation;
//   - work is split into fixed-size *morsels* (kMorselTuples = 16384 tuples,
//     a multiple of 16 so the buffered-shuffle streaming-flush contract of
//     shuffle.h holds at every morsel boundary);
//   - each participating lane owns a deque of morsel indices (represented as
//     a packed atomic [begin,end) range); owners pop from the front (cache
//     locality: consecutive morsels), thieves scan the other lanes in one
//     ring, (lane + i) % n_lanes, and steal half from the back of the first
//     non-empty deque;
//   - the morsel *layout* — not the lane that happens to execute a morsel —
//     determines where output lands, so operators that interleave per-morsel
//     histogram rows with InterleavedPrefixSum produce byte-identical output
//     for every worker count and every steal schedule (see
//     partition/parallel_partition.h).
//
// Single-threaded fast path: ParallelFor with max_workers <= 1 (or a single
// task, or a nested call from inside a worker) runs inline on the caller with
// no locking, so cfg.threads = 1 costs the same as a plain loop. ParallelFor
// is the only way work leaves the calling thread: multi-phase operators
// (build -> probe) issue one ParallelFor per phase, and the join between
// calls is their barrier.
//
// SIMDDB_THREADS (environment) caps how many workers the pool will ever
// spawn. Requests beyond the cap are clamped; requests beyond the hardware
// thread count are honoured up to the cap (deliberate oversubscription — the
// Fig. 16 reproduction sweeps 1..8 threads on any host, see DESIGN.md).

// Inter-query scheduling (src/server/): a query registers a *tag*
// (RegisterQueryTag) and scopes its submitting thread with QueryTagScope;
// every ParallelFor submitted under the scope then passes a
// weighted-fair gate. Tagged ranges are sliced into kFairQuantumTasks-sized
// quanta whenever more than one query is in flight, and the gate admits the
// waiting tag with the smallest weighted virtual time first — so a burst of
// large scans cannot starve a small aggregate: the small query's vtime stays
// minimal and it wins the next quantum boundary. Slicing never changes
// results (output layout depends only on the task grid, and quanta cover the
// range in order), it only bounds how long one query can monopolize the
// workers. AbortQueryTag marks a tag dead: its queued-but-unstarted quanta
// drain cleanly — the next quantum boundary throws QueryAborted instead of
// dispatching — while already-running morsels finish normally. Per-tag
// drained-morsel counts (QueryTagMorsels) are exact, including the inline
// single-lane path, which is what the server's no-starvation gate checks.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace simddb {

namespace obs {
class QueryMetricSink;
}  // namespace obs

/// Thrown from a tagged ParallelFor when the tag was aborted
/// (admission-rejected, failed, or cancelled query): the remaining quanta
/// are never dispatched and the submitting thread unwinds here.
struct QueryAborted {
  uint64_t tag;
};

/// Scheduling granule, in tuples. A multiple of 16 (shuffle flush contract);
/// ~16K tuples keeps per-morsel scratch L1/L2-resident while amortizing the
/// per-morsel scheduling cost to < 0.1%.
inline constexpr size_t kMorselTuples = 16384;

/// Morsel size for passes that carry per-morsel scratch (buffered shuffle
/// slots, histogram rows): the 16K base granule, grown so the morsel count
/// never exceeds max_morsels and per-morsel scratch stays bounded on huge
/// inputs. Stays a multiple of 16 and depends only on n, so layouts built
/// on this grid remain deterministic across worker counts.
inline constexpr size_t kMaxMorselsPerPass = 512;
inline size_t BoundedMorselSize(size_t n, size_t max_morsels = kMaxMorselsPerPass) {
  size_t morsel = kMorselTuples;
  if (n > morsel * max_morsels) {
    morsel = (n + max_morsels - 1) / max_morsels;
    morsel = (morsel + 15) & ~size_t{15};
  }
  return morsel;
}

/// Fixed decomposition of [0, n) into kMorselTuples-sized morsels. The grid
/// depends only on n, never on the worker count, which is what makes
/// dynamically-scheduled partition passes deterministic.
struct MorselGrid {
  size_t n;
  size_t morsel;

  explicit MorselGrid(size_t n_, size_t morsel_ = kMorselTuples)
      : n(n_), morsel(morsel_ == 0 ? kMorselTuples : morsel_) {}

  /// Number of morsels (>= 1 iff n > 0).
  size_t count() const { return n == 0 ? 0 : (n + morsel - 1) / morsel; }
  size_t begin(size_t m) const { return m * morsel; }
  size_t end(size_t m) const {
    size_t e = (m + 1) * morsel;
    return e < n ? e : n;
  }
  size_t size(size_t m) const { return end(m) - begin(m); }
};

/// Process-lifetime, work-stealing worker pool. One instance per process
/// (TaskPool::Get()); all parallel operators share its workers.
class TaskPool {
 public:
  /// The singleton pool. First call does not spawn anything; workers are
  /// created on demand by the first parallel call that needs them.
  static TaskPool& Get();

  /// Worker cap: SIMDDB_THREADS if set (>=1), else a generous default that
  /// allows the oversubscription sweeps (max(hardware_concurrency, 64)).
  static int MaxWorkers();

  /// Largest task count one pool dispatch can represent: lane deques pack
  /// [begin,end) task indices into 32 bits each. ParallelFor transparently
  /// splits larger ranges into sequential sub-dispatches of at most this
  /// many tasks, so any size_t range is safe in every build mode (the old
  /// assert-only guard silently wrapped indices under NDEBUG).
  static constexpr size_t kMaxTasksPerDispatch = size_t{0xFFFF0000};

  /// Runs fn(worker, task) exactly once for every task in [0, n_tasks).
  /// At most max_workers lanes run concurrently (the caller is lane 0 and
  /// always participates; worker ids are in [0, max_workers)). Tasks are
  /// distributed over per-lane deques and rebalanced by stealing, so lanes
  /// that finish early take over tasks of slower lanes. Blocks until every
  /// task completed. Runs inline when max_workers <= 1, n_tasks <= 1, or
  /// when called from inside a pool worker (no nested parallelism). Ranges
  /// beyond kMaxTasksPerDispatch are split (see ParallelForChunked).
  void ParallelFor(size_t n_tasks, int max_workers,
                   const std::function<void(int worker, size_t task)>& fn);

  /// ParallelFor over [0, n_tasks) split into sequential sub-dispatches of
  /// at most max_tasks_per_dispatch tasks (clamped to [1,
  /// kMaxTasksPerDispatch]); each sub-dispatch joins before the next one
  /// starts. ParallelFor delegates here for oversized ranges; exposed so
  /// the splitting path is testable without dispatching 2^32 real tasks.
  void ParallelForChunked(
      size_t n_tasks, size_t max_tasks_per_dispatch, int max_workers,
      const std::function<void(int worker, size_t task)>& fn);

  /// Number of lanes ParallelFor(n_tasks, max_workers) will actually use
  /// (after clamping to the task count and the worker cap). Operators use
  /// this to size per-lane scratch before dispatching.
  static int LaneCount(size_t n_tasks, int max_workers);

  /// Number of workers currently spawned (grows on demand; test hook).
  int SpawnedWorkers();

  // --- Inter-query fair scheduling (see file comment) ---

  /// Tasks per fair-gate quantum when several queries are in flight. Small
  /// enough that a waiting query runs within one quantum of dispatch work,
  /// large enough that the extra dispatches stay amortized (a quantum is
  /// >= 32 chunks of >= 1K tuples on the default executor grid).
  static constexpr size_t kFairQuantumTasks = 32;

  /// Registers an in-flight query with the fair gate and returns its tag.
  /// weight >= 1: a query's virtual time advances by tasks/weight, so a
  /// weight-2 query receives ~2x the morsel throughput of a weight-1 query
  /// under contention.
  uint64_t RegisterQueryTag(uint64_t weight = 1);

  /// Removes the tag; its counters are dropped (read QueryTagMorsels before
  /// unregistering).
  void UnregisterQueryTag(uint64_t tag);

  /// Marks the tag aborted: waiting and future quantum acquisitions under
  /// it throw QueryAborted; quanta already dispatched run to completion.
  void AbortQueryTag(uint64_t tag);

  /// Tasks drained so far under the tag (pooled and inline dispatches).
  uint64_t QueryTagMorsels(uint64_t tag);

  /// Registered (in-flight) query tags; test/introspection hook.
  size_t RegisteredQueryTags();

  /// RAII: tags every parallel call the current thread submits during the
  /// scope's lifetime. Nests by restoring the previous tag on exit.
  class QueryTagScope {
   public:
    explicit QueryTagScope(uint64_t tag);
    ~QueryTagScope();

    QueryTagScope(const QueryTagScope&) = delete;
    QueryTagScope& operator=(const QueryTagScope&) = delete;

   private:
    uint64_t prev_;
  };

  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

 private:
  TaskPool() = default;

  struct Lane {
    /// Packed deque of task indices: high 32 bits = begin, low 32 = end.
    /// Owner pops the front (begin++), thieves CAS half off the back.
    alignas(64) std::atomic<uint64_t> range{0};
  };

  void EnsureWorkers(int needed);  // callers hold jobs_mu_
  void DispatchFor(size_t n_tasks, int max_workers,
                   const std::function<void(int worker, size_t task)>& fn);
  void WorkerLoop(int self);

  // Fair-gate internals (fair_mu_). AcquireQuantum blocks until the tag is
  // the best (lowest-vtime) waiter and no quantum is active, then grants a
  // task budget; ReleaseQuantum credits the drained tasks and wakes the
  // next waiter. Both throw QueryAborted once the tag is aborted.
  void FairParallelFor(uint64_t tag, size_t n_tasks, int max_workers,
                       const std::function<void(int worker, size_t task)>& fn);
  size_t AcquireQuantum(uint64_t tag, size_t remaining);
  void ReleaseQuantum(uint64_t tag, size_t tasks);
  void CreditTag(uint64_t tag, size_t tasks);  // inline-path accounting
  void ThrowIfTagAborted(uint64_t tag);
  uint64_t BestWaitingTag() const;  // callers hold fair_mu_
  void RunLane(int lane, int n_lanes,
               const std::function<void(int, size_t)>& fn);
  bool PopOrSteal(int lane, int n_lanes, size_t* task);

  // Serializes job submission: one parallel job at a time owns the workers.
  std::mutex jobs_mu_;

  // Job dispatch state (guarded by mu_).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  int job_lanes_ = 0;          // lanes participating in the current job
  int lanes_remaining_ = 0;    // participating lanes not yet finished
  bool shutdown_ = false;

  // Current job payload (set before epoch_ bump, read by participants).
  const std::function<void(int, size_t)>* for_fn_ = nullptr;
  // Submitting thread's per-query attribution sink, extended to the worker
  // lanes of this job (obs::ScopedMetricSink in WorkerLoop).
  obs::QueryMetricSink* job_sink_ = nullptr;
  std::unique_ptr<Lane[]> lanes_;  // MaxWorkers() entries, allocated lazily

  std::vector<std::thread> workers_;

  // Fair-gate state (guarded by fair_mu_, independent of the dispatch
  // locks: a quantum holder runs its dispatch without holding fair_mu_).
  struct TagState {
    uint64_t weight = 1;
    uint64_t vtime = 0;    // accumulated tasks * kVtimeScale / weight
    uint64_t morsels = 0;  // tasks drained under this tag
    bool waiting = false;  // parked in AcquireQuantum
    bool aborted = false;
  };
  static constexpr uint64_t kVtimeScale = 1024;
  std::mutex fair_mu_;
  std::condition_variable fair_cv_;
  std::map<uint64_t, TagState> tags_;
  uint64_t next_query_tag_ = 1;
  uint64_t fair_busy_tag_ = 0;  // tag holding the quantum slot (0 = none)
  bool fair_shutdown_ = false;
};

}  // namespace simddb

#endif  // SIMDDB_UTIL_TASK_POOL_H_
