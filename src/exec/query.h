#ifndef SIMDDB_EXEC_QUERY_H_
#define SIMDDB_EXEC_QUERY_H_

// Query assembly over exec/pipeline.h: a Query owns a set of operators and
// an ordered list of pipelines (each ending at a sink or breaker), and
// RunScanJoinAggregate composes the canonical scan -> bloom -> join ->
// group-by plan — the TPC-H-Q3-shaped workload the end-to-end bench and
// tests run across scalar/AVX2/AVX-512.
//
// The result representation is canonical (group rows in ascending key
// order with exact commutative aggregates), so a plan's QueryResult is
// byte-identical across ISAs, thread counts, chunk sizes, and scan modes —
// the property exec_test.cc checks against a hand-composed operator
// sequence.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/pipeline.h"

namespace simddb::exec {

/// Owns operators and runs their pipelines in order.
class Query {
 public:
  /// Constructs an operator owned by this query; returns a borrowed pointer
  /// for wiring into pipelines.
  template <typename Op, typename... Args>
  Op* Add(Args&&... args) {
    auto op = std::make_unique<Op>(std::forward<Args>(args)...);
    Op* raw = op.get();
    ops_.push_back(std::move(op));
    return raw;
  }

  /// Appends a pipeline (first operator is its source). Pipelines run in
  /// insertion order, so a breaker's pipeline must precede the pipelines
  /// that read its state.
  void AddPipeline(std::vector<Operator*> ops) {
    pipelines_.emplace_back(std::move(ops));
  }

  /// Runs every pipeline to completion in order.
  void Run(const ExecConfig& cfg) {
    for (Pipeline& p : pipelines_) p.Run(cfg);
  }

  const std::vector<Pipeline>& pipelines() const { return pipelines_; }

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<Pipeline> pipelines_;
};

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
  /// scan-over-compressed front-end (CompressedScanOp, or
  /// FusedScanCompressed on the fused path), the row count comes from the
  /// columns, and the result stays byte-identical to the raw-column plan.
  /// Either side may be compressed independently.
  const compress::CompressedColumn* r_keys_c = nullptr;
  const compress::CompressedColumn* r_attrs_c = nullptr;
  const compress::CompressedColumn* s_fks_c = nullptr;
  const compress::CompressedColumn* s_vals_c = nullptr;

  /// kCompact drives the SelectionScan kernels; kBitmap evaluates the
  /// predicate into chunk bitmaps and materializes downstream.
  ScanMode scan_mode = ScanMode::kCompact;
  /// 0 disables the Bloom semi-join before the probe.
  int bloom_bits_per_key = 0;
  int bloom_k = 4;
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
  uint64_t rows_bloomed = 0; ///< S rows surviving the Bloom probe
  uint64_t rows_joined = 0;  ///< join matches fed to the group-by

  /// True when the probe side ran the template-fused pipeline (exec/
  /// fused.h) instead of the dynamic Operator chain. The result rows are
  /// byte-identical either way; this only records which executor ran.
  bool used_fused = false;
};

/// Appends the plan's build pipeline to `q`: R scan -> [materialize] ->
/// hash build (breaker), and returns the breaker. Shared by RunDynamic,
/// RunFused, and external drivers that assemble probe sides themselves
/// (exec/shared_scan.h).
HashBuildOp* AddBuildPipeline(Query& q, const ScanJoinAggregatePlan& plan);

/// Assembles and runs the plan end to end on the shared TaskPool. Under
/// PipelineMode::kFused the probe side runs through the template-fused
/// pipeline and the build side through the dynamic executor; kDynamic runs
/// the dynamic chain everywhere. The whole-query wall time is recorded into
/// the `exec_fused_ns` or `exec_dynamic_ns` phase timer according to the
/// path taken. Throws QueryError when R repeats a key within [r_lo, r_hi].
QueryResult RunScanJoinAggregate(const ScanJoinAggregatePlan& plan,
                                 const ExecConfig& cfg);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_QUERY_H_
