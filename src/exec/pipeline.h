#ifndef SIMDDB_EXEC_PIPELINE_H_
#define SIMDDB_EXEC_PIPELINE_H_

// The state a query's fused pipelines (exec/fused.h) end in, and the
// contracts every pipeline stage shares.
//
// A query runs two pipelines over deterministic chunk grids (ceil(n /
// chunk_tuples) chunks over the n rows a source can emit, which for a
// compressed source are those of the blocks its zone map keeps),
// dispatched morsel-parallel onto the shared TaskPool (util/task_pool.h).
// The build pipeline ends in HashBuildOp, the breaker: it stages the build
// relation by chunk ordinal (rows land by ordinal, not by lane, so the
// staged side is byte-identical for every thread count and steal schedule)
// and builds the join table in Finish, on the submitting thread. The probe
// pipeline ends in a GroupByState: per-lane partials merged into canonical
// result rows.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "agg/group_by.h"
#include "core/isa.h"
#include "hash/direct_table.h"
#include "hash/linear_probing.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"

namespace simddb::compress {
class CompressedColumn;
}  // namespace simddb::compress

namespace simddb::exec {

/// A query the executor refuses to finish. Thrown on the thread that runs
/// the plan (RunScanJoinAggregate, Query::Run) before any probe runs;
/// what() is the reason, worded for the client. The serving layer turns it
/// into a failed ResultSet (server/scheduler.h).
class QueryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Default tuples per chunk: an L1-resident working set for a key column
/// plus a few payload columns.
inline constexpr size_t kDefaultChunkTuples = 1024;

/// Slack every chunk-sized buffer carries beyond its tuple capacity: one
/// 16-lane vector of overshoot, the same contract as kShuffleSlackTuples
/// and kSelectionScanPad (the vector scan and probe kernels, and the
/// whole-block DecodeBlock, may write up to one vector past their count).
inline constexpr size_t kChunkSlackTuples = 16;

/// Elements every buffer that holds an n-tuple chunk's column must hold.
inline constexpr size_t ChunkCapacity(size_t n) {
  return n + kChunkSlackTuples;
}

/// Per-run execution parameters, shared by every stage of a query.
struct ExecConfig {
  Isa isa = Isa::kScalar;
  int threads = 1;
  /// Tuples per chunk (any value >= 1; tests sweep odd sizes).
  size_t chunk_tuples = kDefaultChunkTuples;
};

/// The scan variant an ISA maps to in the executor (store-direct family:
/// chunk outputs are L1-resident, so the indirect streaming variants have
/// nothing to win).
ScanVariant ScanVariantForIsa(Isa isa);

/// Smallest and largest value of a column; min > max when it is empty.
struct ColumnRange {
  uint32_t min = 0xFFFFFFFFu;
  uint32_t max = 0;
};

/// The unsigned range of vals[0 .. n).
ColumnRange ColumnMinMax(Isa isa, const uint32_t* vals, size_t n);

namespace detail {
ColumnRange ColumnMinMaxScalar(const uint32_t* vals, size_t n);
// Backend TUs (fused_avx2.cc / fused_avx512.cc).
ColumnRange ColumnMinMaxAvx2(const uint32_t* vals, size_t n);
ColumnRange ColumnMinMaxAvx512(const uint32_t* vals, size_t n);
}  // namespace detail

/// Dense batch view handed between fused stages: up to three column
/// pointers, a tuple count, and the ordinal of the chunk it came from in
/// its source's grid. Columns live in the producing stage's per-lane
/// scratch, so a batch is valid only for the duration of the call that
/// receives it.
struct FusedBatch {
  const uint32_t* col[3] = {nullptr, nullptr, nullptr};
  size_t n = 0;
  size_t seq = 0;
};

/// A join index over one immutable build table: the DirectJoinTable of
/// its attrs at key - min, built once, plus a summary of every
/// kBlockSlots-slot block (present keys, attr range) from which any key
/// window's row count and payload domain follow without a pass over its
/// rows. server::Catalog builds one at registration for each
/// table that qualifies; a plan whose r_index points at it
/// (ScanJoinAggregatePlan) serves its build side from it
/// (HashBuildOp::Borrow) instead of running the build pipeline.
class JoinIndex {
 public:
  static constexpr size_t kBlockSlots = 1024;

  /// The index of the n (key, attr) rows, or nullptr when they do not
  /// qualify: n >= 1, the keys unique, no key or attr equal to kEmptyKey,
  /// and a key range of at most 2n values that passes DirectJoinTable::Fits
  /// for the hash table n rows would get, so the array (4 B per key-range
  /// slot) never outgrows the rows' own two columns. More rows than
  /// key-range values must repeat a key: such tables are refused before
  /// any allocation. isa runs the range scans.
  /// keys_c, when given, is the compressed twin of keys: the key range then
  /// comes from its block zone maps, one fold over the block metadata in
  /// place of a pass over the keys.
  static std::unique_ptr<JoinIndex> Build(
      Isa isa, const uint32_t* keys, const uint32_t* attrs, size_t n,
      const compress::CompressedColumn* keys_c = nullptr);

  uint32_t key_min() const { return table_.key_min(); }
  uint32_t key_max() const {
    return static_cast<uint32_t>(table_.key_min() + table_.width() - 1);
  }
  const DirectJoinTable& table() const { return table_; }
  /// Bytes the index holds: the array and the block summaries.
  size_t bytes() const;

  /// What a build of the rows with keys in [lo, hi] holds: its row count
  /// and payload (attr) range. [lo, hi] must lie within [key_min(),
  /// key_max()].
  struct Summary {
    size_t rows = 0;
    ColumnRange pays;
  };
  Summary Summarize(uint32_t lo, uint32_t hi) const;

 private:
  struct Block {
    uint32_t rows = 0;
    ColumnRange pays;
  };

  explicit JoinIndex(DirectJoinTable table) : table_(std::move(table)) {}

  DirectJoinTable table_;
  std::vector<Block> blocks_;
};

/// Breaker: the terminal stage of the build pipeline. Consume stages each
/// (key, payload) batch at its chunk ordinal; Finish builds the join table.
///
/// Consume records each chunk's key and payload ranges (ColumnMinMax).
/// Finish reduces them into the key range and the payload domain
/// [pay_min(), pay_max()] — the group-key domain of every plan, since the
/// payload is R.attr — and throws QueryError when a key or payload equals
/// the reserved value kEmptyKey (0xFFFFFFFF), which marks empty buckets in
/// the hash tables and absent keys in the direct-indexed one.
///
/// The key range then picks the table's layout. A linear-probing table
/// gets 2x buckets (load factor <= 50%); when the key range spans at most
/// twice that bucket count (DirectJoinTable::Fits), Finish builds a
/// DirectJoinTable instead, with the serial slot-store loop on every lane
/// count, since it never needs more memory. Otherwise it builds the
/// LinearProbingTable with BuildPartitioned, the scalar walk on every ISA,
/// split into LinearProbingTable::BuildPartitions(buckets, lanes)
/// home-bucket ranges that the TaskPool lanes insert in parallel (one
/// range, no partition pass, on one lane). The join is key/FK: Finish
/// throws QueryError when either build found a repeated key, since every
/// probe stage sizes its output for at most one match per probe row.
class HashBuildOp {
 public:
  /// Stages a grid of n_chunks chunks of cfg.chunk_tuples rows each.
  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks);
  /// Stages batch `in` (col 0 = keys, col 1 = payloads) at slot in.seq.
  /// Lanes consume disjoint slots concurrently.
  void Consume(const FusedBatch& in, int lane);
  /// Builds the join table from the staged rows (see the class comment).
  void Finish();

  /// Serves the build from `index` instead of Open/Consume/Finish: clips
  /// [lo, hi] to the index's key range and probes a DirectJoinTable::Window
  /// of the index over it, with build_rows(), pay_min() and pay_max() taken
  /// from the block summaries, so they equal what the build pipeline
  /// computes for the same window of the indexed table. A window holding
  /// no indexed key gets what Finish builds for an empty build side. The
  /// index must outlive every probe.
  void Borrow(const ExecConfig& cfg, const JoinIndex& index, uint32_t lo,
              uint32_t hi);

  /// Probes n (key, payload) tuples against the table Finish built or
  /// Borrow viewed, with the semantics of LinearProbingTable::Probe or
  /// DirectJoinTable::Probe (at most one match per row; output buffers
  /// hold n tuples). Call only after Finish or Borrow.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_spays,
               uint32_t* out_rpays) const;
  /// True when the table probed is direct-indexed (built by Finish, or a
  /// window of a join index).
  bool direct() const { return direct_ != nullptr; }
  /// True when Borrow served the build from a join index.
  bool borrowed() const { return borrowed_; }
  size_t build_rows() const { return n_build_; }
  /// Smallest and largest payload in the table; pay_min() > pay_max() when
  /// the build side is empty.
  uint32_t pay_min() const { return pay_min_; }
  uint32_t pay_max() const { return pay_max_; }

 private:
  /// What Consume staged for one chunk, slotted by its ordinal.
  struct Slot {
    size_t rows = 0;
    ColumnRange keys, pays;
  };

  ExecConfig cfg_;
  size_t slot_cap_ = 0;
  AlignedBuffer<uint32_t> mat_keys_, mat_pays_;
  std::vector<Slot> slots_;
  size_t n_build_ = 0;
  uint32_t pay_min_ = 0xFFFFFFFFu;
  uint32_t pay_max_ = 0;
  bool borrowed_ = false;
  // Exactly one of the two is set once Finish or Borrow returns.
  std::unique_ptr<DirectJoinTable> direct_;
  std::unique_ptr<LinearProbingTable> table_;
};

/// The group-by every probe pipeline ends in (FusedGroupBy): one partial
/// per worker lane, merged and extracted as the canonical result rows —
/// ascending group key, exact commutative aggregates — so a QueryResult is
/// byte-identical for every ISA, thread count and chunk size.
///
/// The key domain chooses the partials. A domain of at most
/// kMaxDirectKeys values aggregates into DirectGroupBy arrays; a wider one
/// into GroupByAggregator hash tables using the query ISA's accumulate.
class GroupByState {
 public:
  /// Widest domain (max - min + 1) that gets direct-indexed partials: the
  /// bucket count of a fresh hash partial, so a direct partial (80 KB)
  /// never holds more memory than the hash partial (96 KB) it replaces.
  static constexpr uint64_t kMaxDirectKeys = 4096;

  /// Prepares `lanes` empty partials for group keys in [key_min, key_max]
  /// (no key at all when key_min > key_max).
  void Open(const ExecConfig& cfg, int lanes, uint32_t key_min,
            uint32_t key_max);

  /// Folds n (key, value) pairs into `lane`'s partial. Every key must lie
  /// in the Open domain.
  void Fold(int lane, const uint32_t* keys, const uint32_t* vals, size_t n);

  /// Merges the lane partials and writes the result rows; the output
  /// vectors are resized to the group count.
  void Finish(std::vector<uint32_t>* keys, std::vector<uint64_t>* sums,
              std::vector<uint32_t>* counts, std::vector<uint32_t>* mins,
              std::vector<uint32_t>* maxs);

  /// True when Open chose direct-indexed partials.
  bool direct() const { return !direct_.empty(); }

 private:
  /// Groups a fresh hash partial is sized for; it grows past them.
  static constexpr size_t kInitialHashGroups = 1024;

  Isa isa_ = Isa::kScalar;
  std::vector<DirectGroupBy> direct_;
  std::vector<std::unique_ptr<GroupByAggregator>> hashed_;
};

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_PIPELINE_H_
