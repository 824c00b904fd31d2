#ifndef SIMDDB_EXEC_QUERY_H_
#define SIMDDB_EXEC_QUERY_H_

// The executor's entry points. RunScanJoinAggregate runs the canonical
// scan -> join -> group-by plan — the TPC-H-Q3-shaped workload the
// end-to-end benches, tests and the server run across scalar/AVX2/AVX-512
// — as two fused pipelines (exec/fused.h): the build side (R scan ->
// HashBuildOp) and the probe side (S scan -> join probe -> group-by).
//
// The result representation is canonical (group rows in ascending key
// order with exact commutative aggregates), so a plan's QueryResult is
// byte-identical across ISAs, thread counts, chunk sizes and storage — the
// property exec_test.cc checks against a std::map reference and a
// hand-composed operator sequence.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/column.h"
#include "exec/pipeline.h"

namespace simddb::exec {

/// The Q3-shaped plan: build relation R(pk, attr) filtered by pk in
/// [r_lo, r_hi], probe relation S(fk, val) filtered by val in [s_lo, s_hi],
/// joined on S.fk = R.pk (R keys unique), grouped by R.attr with
/// SUM/COUNT/MIN/MAX over S.val.
struct ScanJoinAggregatePlan {
  /// R primary keys. They must be unique within [r_lo, r_hi]: a repeat
  /// there fails the query with QueryError before any probe runs; repeats
  /// outside the window are filtered out by the scan and do no harm.
  const uint32_t* r_keys = nullptr;
  const uint32_t* r_attrs = nullptr;  ///< R group attribute column
  size_t n_r = 0;
  uint32_t r_lo = 0, r_hi = 0xFFFFFFFFu;

  const uint32_t* s_fks = nullptr;   ///< S foreign keys into R
  const uint32_t* s_vals = nullptr;  ///< S value column (filter + aggregate)
  size_t n_s = 0;
  uint32_t s_lo = 0, s_hi = 0xFFFFFFFFu;

  /// Compressed base tables (compress/column.h). Setting a side's pair
  /// replaces that side's raw pointers: the plan scans it through the
  /// scan-over-compressed source (FusedScanCompressed), the row count comes
  /// from the columns, and the result stays byte-identical to the
  /// raw-column plan. Either side may be compressed independently.
  const compress::CompressedColumn* r_keys_c = nullptr;
  const compress::CompressedColumn* r_attrs_c = nullptr;
  const compress::CompressedColumn* s_fks_c = nullptr;
  const compress::CompressedColumn* s_vals_c = nullptr;

  /// R's join index (JoinIndex), borrowed. Only server::BindQuery sets it,
  /// for a catalog table that has one. The build side is then served from
  /// the index's [r_lo, r_hi] window (HashBuildOp::Borrow) instead of the
  /// build pipeline, with byte-identical results; R's columns are not
  /// scanned.
  const JoinIndex* r_index = nullptr;
};

/// Canonical query result: one row per group, ascending group key.
struct QueryResult {
  std::vector<uint32_t> group_keys;
  std::vector<uint64_t> sums;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> mins;
  std::vector<uint32_t> maxs;

  // Cardinalities for sanity checks and bench labels.
  uint64_t rows_build = 0;   ///< R rows surviving the scan (table size)
  uint64_t rows_scanned = 0; ///< S rows surviving the scan
  uint64_t rows_joined = 0;  ///< join matches fed to the group-by
};

/// A plan's build side on its own. AddBuildPipeline records the plan's R
/// scan and returns the breaker; Run runs the build pipeline (R scan ->
/// HashBuildOp) on the shared TaskPool and finishes the join table, or
/// borrows the plan's join index, after which the breaker can be inspected
/// (layout, row count, payload domain). Run throws QueryError as
/// RunScanJoinAggregate does for the same build side. The breaker lives as
/// long as the Query.
class Query {
 public:
  Query() = default;
  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  /// Runs the recorded build pipeline to completion.
  void Run(const ExecConfig& cfg);

 private:
  friend HashBuildOp* AddBuildPipeline(Query& q,
                                       const ScanJoinAggregatePlan& plan);
  ScanJoinAggregatePlan plan_;
  HashBuildOp build_;
};

/// Records the plan's build pipeline in `q` (see Query) and returns its
/// breaker.
HashBuildOp* AddBuildPipeline(Query& q, const ScanJoinAggregatePlan& plan);

/// Runs the plan end to end on the shared TaskPool: the build pipeline,
/// then the probe pipeline. The whole-query wall time is recorded into the
/// `exec_fused_ns` phase timer. Throws QueryError when R repeats a key
/// within [r_lo, r_hi] or holds the reserved value there.
QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_QUERY_H_
