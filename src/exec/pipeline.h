#ifndef SIMDDB_EXEC_PIPELINE_H_
#define SIMDDB_EXEC_PIPELINE_H_

// Push-based, morsel-parallel pipeline executor over exec/chunk.h chunks.
//
// A Pipeline is a chain of Operators. The first operator is a *source*: the
// executor dispatches its deterministic chunk grid onto the shared TaskPool
// (util/task_pool.h) and each worker lane drives its chunks down the chain
// with Push — operators transform into per-lane scratch chunks, so a whole
// pipeline runs morsel-parallel with zero cross-lane synchronization until
// a breaker. The pipeline breaker (the hash build) absorbs chunks into
// seq-slotted staging (the SelectionScanParallel compaction idiom: results
// land by chunk ordinal, not by lane, so materialized state is
// byte-identical for every thread count and steal schedule) and runs its
// parallel phase in Finish, backed by the TaskPool; intermediates are
// placed via numa/placement.h.
//
// Adapters wrap the existing kernels unchanged: SelectionScan (source),
// BloomFilter::Probe, DirectJoinTable or LinearProbingTable behind
// HashBuildOp::Probe, and DirectGroupBy or GroupByAggregator behind
// GroupByState. Every Push is timed into a per-operator obs phase timer
// (exec_*_ns) and counted into `chunks_pushed`; the converters count
// `bitmap_to_sel` / `sel_to_bitmap` (see chunk.cc).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bloom/bloom_filter.h"
#include "agg/group_by.h"
#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "hash/direct_table.h"
#include "hash/linear_probing.h"
#include "numa/placement.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"

namespace simddb::exec {

/// A query the executor refuses to finish. Thrown on the thread that runs
/// the plan (RunScanJoinAggregate, RunSharedProbe) before any probe runs;
/// what() is the reason, worded for the client. The serving layer turns
/// it into a failed ResultSet (server/scheduler.h).
class QueryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which executor drives a query's probe pipeline. kFused runs it as the
/// template-fused instantiation (exec/fused.h); kDynamic runs the dynamic
/// Operator chain, the byte-identity reference. The build side runs the
/// dynamic chain either way. Which path ran is observable via the
/// `pipelines_fused` / `pipelines_dynamic` counters.
enum class PipelineMode { kFused, kDynamic };

/// Per-run execution parameters, shared by every operator of a query.
struct ExecConfig {
  Isa isa = Isa::kScalar;
  int threads = 1;
  /// Tuples per chunk (any value >= 1; tests sweep odd sizes).
  size_t chunk_tuples = kDefaultChunkTuples;
  /// Placement policy for the materialized build side. Probe-shared
  /// structures (table bank, bloom words) are always interleaved.
  numa::Placement placement = numa::Placement::kNodeLocal;
  uint64_t seed = 42;
  PipelineMode pipeline_mode = PipelineMode::kFused;
};

/// The scan variant an ISA maps to in the executor (store-direct family:
/// chunk outputs are L1-resident, so the indirect streaming variants have
/// nothing to win).
ScanVariant ScanVariantForIsa(Isa isa);

/// Pipeline operator: Open once, Push per chunk (concurrently, one lane per
/// chunk), Finish once after every source chunk drained. Operators that
/// continue the chain call PushNext; sinks and breakers absorb.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual const char* name() const = 0;

  /// `lanes` is the max concurrent worker id + 1; `n_source_chunks` the
  /// size of the source grid feeding this pipeline (for seq-slotted
  /// staging). Also samples MetricsEnabled() into `timed_` — derived
  /// overrides must call this base so the per-push instrumentation gate is
  /// hoisted out of the Push hot path (one check per pipeline, not per
  /// chunk).
  virtual void Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks);

  /// Source-role open, called on a pipeline's first operator in place of
  /// Open. Samples `timed_` like Open.
  virtual void OpenSource(const ExecConfig& cfg, int lanes);

  /// Consumes one chunk on `lane`. The chunk belongs to the caller and may
  /// be recycled after Push returns; operators forward either the same
  /// chunk (in-place transforms) or a per-lane scratch chunk.
  virtual void Push(Chunk& c, int lane) = 0;

  /// Drains buffered state; breakers run their parallel phase here (called
  /// from the submitting thread, so the full TaskPool is available).
  virtual void Finish() {}

  // Source role (first operator of a pipeline).
  virtual size_t SourceChunks(const ExecConfig& cfg) const {
    (void)cfg;
    return 0;
  }
  virtual void Produce(size_t chunk, int lane) { (void)chunk, (void)lane; }

  /// Tuples this operator has emitted downstream (or absorbed, for sinks).
  uint64_t rows_out() const {
    return rows_out_.load(std::memory_order_relaxed);
  }

  void set_next(Operator* n) { next_ = n; }

 protected:
  /// Forwards a chunk, counting `chunks_pushed` and the operator's rows.
  void PushNext(Chunk& c, int lane);
  void CountRows(uint64_t n) {
    rows_out_.fetch_add(n, std::memory_order_relaxed);
  }

  ExecConfig cfg_;
  Operator* next_ = nullptr;
  /// MetricsEnabled() sampled at Open/OpenSource: the per-push phase-timer
  /// and chunk-counter gate, hoisted out of the Push inner loop. Toggling
  /// metrics mid-pipeline takes effect at the next Open.
  bool timed_ = false;

 private:
  std::atomic<uint64_t> rows_out_{0};
};

/// How the scan source represents qualifying tuples in the chunks it
/// emits. kCompact wraps the paper's SelectionScan kernels (dense output);
/// kBitmap copies the morsel and evaluates the predicate into the chunk's
/// bitmap, leaving materialization to a downstream MaterializeOp — the
/// sel/bitmap-duality path.
enum class ScanMode { kCompact, kBitmap };

/// Source adapter over a two-column base table (keys, vals) with the range
/// predicate lo <= x <= hi on either column. Emits chunks with col 0 =
/// keys, col 1 = vals.
class ScanOp final : public Operator {
 public:
  ScanOp(const uint32_t* keys, const uint32_t* vals, size_t n, uint32_t lo,
         uint32_t hi, bool filter_on_vals, ScanMode mode);

  const char* name() const override { return "scan"; }
  void OpenSource(const ExecConfig& cfg, int lanes) override;
  void Push(Chunk& c, int lane) override;  // sources are never pushed into
  size_t SourceChunks(const ExecConfig& cfg) const override;
  void Produce(size_t chunk, int lane) override;

  /// Opt-in: drop chunks with zero qualifying tuples instead of pushing
  /// them through the chain. Results are unchanged (empty chunks are no-ops
  /// for every downstream operator), but each member of a shared sweep
  /// (exec/shared_scan.h) only pays per-chunk downstream cost where its
  /// predicate actually selects something — the `chunks_pushed` reduction
  /// the serving bench gates on. Off by default: solo pipelines keep the
  /// historical all-chunks behavior that existing bench gates pin.
  void set_skip_empty(bool v) { skip_empty_ = v; }

 private:
  const uint32_t* keys_;
  const uint32_t* vals_;
  size_t n_;
  uint32_t lo_, hi_;
  bool filter_on_vals_;
  ScanMode mode_;
  bool skip_empty_ = false;
  std::vector<std::unique_ptr<Chunk>> out_;  // one per lane
};

/// Source adapter over compressed base columns (compress/column.h): the
/// scan-over-compressed front-end. Emits exactly the chunks ScanOp would
/// emit for the decompressed columns — same grid, same per-chunk contents,
/// same visibility representation — so a compressed plan is byte-identical
/// to its raw twin by construction. Per chunk it walks the overlapped
/// 1024-value blocks and classifies each against the predicate via the
/// FOR-domain zone map (compress::ClassifyBlock): skipped blocks
/// contribute nothing without their packed bytes ever being read,
/// all-pass blocks decode straight into the output with no per-value
/// predicate evaluation, and mixed blocks decode into per-lane scratch
/// (cached by block id, so sub-block chunk grids do not re-decode) and run
/// the ordinary SelectionScan / RangePredicateBitmap kernels on the
/// just-unpacked values.
class CompressedScanOp final : public Operator {
 public:
  /// Scans (keys, vals) with lo <= x <= hi on the column selected by
  /// filter_on_vals; columns must be the same length.
  CompressedScanOp(const compress::CompressedColumn* keys,
                   const compress::CompressedColumn* vals, uint32_t lo,
                   uint32_t hi, bool filter_on_vals, ScanMode mode);

  const char* name() const override { return "compressed_scan"; }
  void OpenSource(const ExecConfig& cfg, int lanes) override;
  void Push(Chunk& c, int lane) override;  // sources are never pushed into
  size_t SourceChunks(const ExecConfig& cfg) const override;
  void Produce(size_t chunk, int lane) override;

 private:
  struct Lane {
    std::unique_ptr<Chunk> out;
    /// One decoded block per column, tagged with its block id: a chunk
    /// grid finer than the block grid re-reads the same decode.
    AlignedBuffer<uint32_t> key_buf, val_buf;
    size_t key_block = SIZE_MAX, val_block = SIZE_MAX;
  };

  /// Decoded values of block b of the key (which == 0) or val column,
  /// through the lane's block cache.
  const uint32_t* Decoded(Lane& l, int which, size_t b, Isa isa);

  const compress::CompressedColumn* keys_;
  const compress::CompressedColumn* vals_;
  size_t n_;
  uint32_t lo_, hi_;
  bool filter_on_vals_;
  ScanMode mode_;
  std::vector<Lane> lanes_;
};

/// In-place materializer: converts bitmap/selection chunks to dense
/// (bitmap -> selection -> compact), the boundary between predicate
/// evaluation and the dense-input operator kernels.
class MaterializeOp final : public Operator {
 public:
  const char* name() const override { return "materialize"; }
  void Push(Chunk& c, int lane) override;
};

/// Breaker sink: materializes the build relation into seq-slotted staging,
/// then in Finish builds the join table (interleaved placement — every
/// probe lane reads it) and optionally a Bloom filter over the build keys
/// for the probe pipeline's semi-join.
///
/// Push records each chunk's key and payload ranges (ColumnMinMax).
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
class HashBuildOp final : public Operator {
 public:
  /// bloom_bits_per_key == 0 disables the filter.
  HashBuildOp(int bloom_bits_per_key, int bloom_k);

  const char* name() const override { return "hash_build"; }
  void Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks) override;
  void Push(Chunk& c, int lane) override;
  void Finish() override;

  /// Probes n (key, payload) tuples against the table Finish built, with
  /// the semantics of LinearProbingTable::Probe or DirectJoinTable::Probe
  /// (at most one match per row; output buffers hold n tuples). Call only
  /// after Finish.
  size_t Probe(Isa isa, const uint32_t* keys, const uint32_t* pays, size_t n,
               uint32_t* out_keys, uint32_t* out_spays,
               uint32_t* out_rpays) const;
  /// True when Finish built the direct-indexed table.
  bool direct() const { return direct_ != nullptr; }
  const BloomFilter* bloom() const { return bloom_.get(); }
  size_t build_rows() const { return n_build_; }
  /// Smallest and largest payload in the table; pay_min() > pay_max() when
  /// the build side is empty.
  uint32_t pay_min() const { return pay_min_; }
  uint32_t pay_max() const { return pay_max_; }

 private:
  /// What Push staged for one source chunk, slotted by its seq.
  struct Slot {
    size_t rows = 0;
    ColumnRange keys, pays;
  };

  int bloom_bits_per_key_;
  int bloom_k_;
  size_t slot_cap_ = 0;
  AlignedBuffer<uint32_t> mat_keys_, mat_pays_;
  std::vector<Slot> slots_;
  size_t n_build_ = 0;
  uint32_t pay_min_ = 0xFFFFFFFFu;
  uint32_t pay_max_ = 0;
  // Exactly one of the two is set once Finish returns.
  std::unique_ptr<DirectJoinTable> direct_;
  std::unique_ptr<LinearProbingTable> table_;
  std::unique_ptr<BloomFilter> bloom_;
};

/// Bloom semi-join adapter: keeps tuples whose col-0 key may be in the
/// build side. Vector probes emit qualifiers out of input order within a
/// chunk, as documented for BloomFilter::Probe.
class BloomProbeOp final : public Operator {
 public:
  explicit BloomProbeOp(const HashBuildOp* build) : build_(build) {}

  const char* name() const override { return "bloom"; }
  void Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks) override;
  void Push(Chunk& c, int lane) override;

 private:
  const HashBuildOp* build_;
  std::vector<std::unique_ptr<Chunk>> out_;
};

/// Join probe adapter over the breaker's table (HashBuildOp::Probe): (key,
/// val) chunks become (key, s_val, r_pay) chunks, one row per match. Build
/// keys are unique (key/FK join, enforced by HashBuildOp::Finish), so
/// matches never exceed the chunk's tuple count.
class HashJoinProbeOp final : public Operator {
 public:
  explicit HashJoinProbeOp(const HashBuildOp* build) : build_(build) {}

  const char* name() const override { return "join_probe"; }
  void Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks) override;
  void Push(Chunk& c, int lane) override;

 private:
  const HashBuildOp* build_;
  std::vector<std::unique_ptr<Chunk>> out_;
};

/// The group-by both executors end in (GroupBySink and the fused
/// pipeline's FusedGroupBy): one partial per worker lane, merged and
/// extracted as the canonical result rows — ascending group key, exact
/// commutative aggregates — which is what makes a fused QueryResult
/// byte-identical to the dynamic one by construction.
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

/// Aggregation sink over a GroupByState (key = col `key_col`, value = col
/// `val_col`). The key column is the join payload, so the group-key
/// domain is the build side's payload domain.
class GroupBySink final : public Operator {
 public:
  GroupBySink(const HashBuildOp* build, int key_col, int val_col);

  const char* name() const override { return "group_by"; }
  void Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks) override;
  void Push(Chunk& c, int lane) override;
  void Finish() override;

  size_t num_groups() const { return keys_.size(); }
  const std::vector<uint32_t>& keys() const { return keys_; }
  const std::vector<uint64_t>& sums() const { return sums_; }
  const std::vector<uint32_t>& counts() const { return counts_; }
  const std::vector<uint32_t>& mins() const { return mins_; }
  const std::vector<uint32_t>& maxs() const { return maxs_; }

 private:
  const HashBuildOp* build_;
  int key_col_, val_col_;
  GroupByState state_;
  std::vector<uint32_t> keys_, counts_, mins_, maxs_;
  std::vector<uint64_t> sums_;
};

/// One operator chain. ops[0] must be a source (SourceChunks > 0 or an
/// empty input); the Pipeline chains, Opens, drives and Finishes them.
/// Operators are borrowed — the query owns them (a breaker outlives the
/// pipeline that fills it, and later pipelines read its state).
class Pipeline {
 public:
  explicit Pipeline(std::vector<Operator*> ops) : ops_(std::move(ops)) {}

  /// Runs the pipeline to completion on the shared TaskPool.
  void Run(const ExecConfig& cfg);

  const std::vector<Operator*>& ops() const { return ops_; }

 private:
  std::vector<Operator*> ops_;
};

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_PIPELINE_H_
