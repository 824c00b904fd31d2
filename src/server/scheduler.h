#ifndef SIMDDB_SERVER_SCHEDULER_H_
#define SIMDDB_SERVER_SCHEDULER_H_

// Inter-query scheduling for the serving layer.
//
// QueryScheduler::Run is the in-process client API of the serving layer and
// the one entry point every query funnels through: a client thread calls it
// directly, and the network front-end's handler threads (net/server.h) call
// it for every QUERY line, so a socket client and an in-process caller take
// the identical execution path and get identical bytes. Run blocks the
// calling thread until the result is ready (admission gate included);
// concurrency comes from many client threads calling it at once. Per query
// it:
//
//   1. binds the named-table QuerySpec against the Catalog into the
//      executor's ScanJoinAggregatePlan;
//   2. passes the admission gate — at most `max_inflight` queries execute
//      concurrently; excess arrivals either block in FIFO-ish cv order
//      (kBlock) or are rejected immediately (kReject);
//   3. registers a TaskPool query tag and runs the plan
//      (exec::RunScanJoinAggregate: its own build and probe pipelines)
//      under TaskPool::QueryTagScope, so every morsel the query dispatches is
//      weighted-fair-scheduled against other in-flight queries and counted
//      toward the tag (QueryStats::morsels_drained — the no-starvation
//      observable);
//   4. scopes an obs::QueryMetricSink to the execution, so the per-query
//      counters/timers in QueryStats::metrics contain exactly this query's
//      share of the global instruments, with no cross-query bleed.
//
// Aborted queries (AbortQueryTag, pool teardown) unwind with
// TaskPool::QueryAborted at the next quantum boundary; Run converts that
// into ResultSet{ok = false, stats.aborted = true} and always releases the
// admission slot and tag — an aborted query drains cleanly. A plan the
// executor refuses (exec::QueryError, e.g. a build table repeating a key
// in the r= window) becomes ResultSet{ok = false, error = its reason}.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "exec/query.h"
#include "server/catalog.h"

namespace simddb::server {

/// A query over named catalog tables: build relation R(pk, attr) filtered
/// by pk in [r_lo, r_hi], probe relation S(fk, val) filtered by val in
/// [s_lo, s_hi], joined on S.fk = R.pk, grouped by R.attr. The named-table
/// twin of exec::ScanJoinAggregatePlan, and the struct the wire protocol's
/// QUERY line decodes into (net/protocol.h ToSpec).
struct QuerySpec {
  std::string build_table;  ///< R: key column joined, val column grouped
  uint32_t r_lo = 0, r_hi = 0xFFFFFFFFu;
  std::string probe_table;  ///< S: key column joined, val column filtered
  uint32_t s_lo = 0, s_hi = 0xFFFFFFFFu;

  /// Bind the compressed representation when the table has one.
  bool prefer_compressed = false;
};

/// Per-query execution accounting.
struct QueryStats {
  uint64_t tag = 0;             ///< TaskPool query tag this run used
  uint64_t queue_wait_ns = 0;   ///< time blocked in the admission gate
  uint64_t exec_ns = 0;         ///< wall time inside the executor
  /// Tasks the TaskPool drained for this query (>= 1 for any nonempty
  /// plan — the no-starvation observable).
  uint64_t morsels_drained = 0;
  bool aborted = false;   ///< unwound via QueryAborted
  bool rejected = false;  ///< refused by the admission gate (kReject)
  /// This query's share of every obs instrument (name -> delta), captured
  /// via a scoped QueryMetricSink. Empty while metrics are off.
  std::map<std::string, uint64_t> metrics;
};

/// What a caller of Run gets back: canonical result rows plus accounting.
struct ResultSet {
  bool ok = false;
  std::string error;  ///< bind / admission / abort / executor reason if !ok
  exec::QueryResult result;
  QueryStats stats;
};

/// What the admission gate does with arrivals beyond max_inflight.
enum class AdmissionPolicy { kBlock, kReject };

struct SchedulerOptions {
  /// Concurrent-query bound; 0 (or less) means unbounded.
  int max_inflight = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
};

/// Binds a QuerySpec against the catalog, handing the plan the build
/// table's join index when it has one. False (with *error set) when a
/// table is unknown or a compressed representation was asked of a table
/// that has none.
bool BindQuery(const Catalog& catalog, const QuerySpec& spec,
               exec::ScanJoinAggregatePlan* plan, std::string* error);

class QueryScheduler {
 public:
  explicit QueryScheduler(const Catalog* catalog,
                          const SchedulerOptions& opts = {});

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Executes the spec end to end (see file comment). Thread-safe: many
  /// client threads call concurrently. `weight` biases the fair gate
  /// (weight 2 receives ~2x the morsel share of weight 1 under load);
  /// wire clients set it per query via the QUERY line's weight= clause.
  ResultSet Run(const QuerySpec& spec, const exec::ExecConfig& cfg,
                uint64_t weight = 1);

  int max_inflight() const { return max_inflight_; }
  uint64_t queries_completed() const;
  uint64_t queries_rejected() const;

 private:
  bool Admit(uint64_t* waited_ns);
  void Release();

  const Catalog* catalog_;
  SchedulerOptions opts_;
  int max_inflight_;

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int inflight_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace simddb::server

#endif  // SIMDDB_SERVER_SCHEDULER_H_
