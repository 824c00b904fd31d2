#ifndef SIMDDB_EXEC_FUSED_H_
#define SIMDDB_EXEC_FUSED_H_

// Template-fused compiled pipelines: the executor.
//
// A pipeline is a compile-time operator composition — a variadic
// FusedPipeline<Source, Stages...> whose stages hand each other a
// FusedBatch (dense column pointers + count + chunk ordinal, no ownership)
// through fully-inlined continuations. No JIT, no virtual dispatch, no
// per-stage timers: stage hand-off is an inlined template call, and the
// executor is timed once per query (exec_fused_ns, query.cc) and once per
// build (exec_build_ns). One instantiation exists per (ISA x source),
// anchored in fused.cc / fused_avx2.cc / fused_avx512.cc so each backend's
// inner loops compile under its own ISA flags.
//
// A query runs two pipeline shapes, one after the other, each driven by
// RunPipeline over its own chunk grid:
//   build:  FusedScan[Compressed] on R.key -> HashBuildOp (the breaker),
//           skipped when the plan borrows R's join index (JoinIndex);
//   probe:  FusedScan[Compressed] on S.val -> FusedJoinProbe -> FusedGroupBy.
//
// Determinism contract: every pipeline runs the deterministic grid
// (ceil(n / chunk_tuples) chunks over its source's n rows, ParallelFor over
// chunk ordinals; a compressed source's rows are those of the blocks its
// zone map keeps). The build stages rows by chunk ordinal (FusedBatch::seq),
// never by lane, and the probe ends in GroupByState's per-lane partials
// with their canonical ascending-key extraction, so a QueryResult is
// byte-identical for every ISA, thread count, chunk size, storage and
// steal schedule.
//
// One rule for empty batches: a stage hands on a batch only when it holds
// rows, so a chunk the predicate empties costs its source and nothing
// downstream, in every pipeline.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "compress/column.h"
#include "core/isa.h"
#include "exec/pipeline.h"
#include "exec/query.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"
#include "util/task_pool.h"

namespace simddb::exec {

// ---------------------------------------------------------------------------
// Fused stages
// ---------------------------------------------------------------------------
//
// Stage interface (compile-time, no base class):
//   void Open(const ExecConfig& cfg, int lanes, size_t n_chunks);
//   template <typename Next>
//   void Process(const FusedBatch& in, int lane, Next&& next);   // mid-stage
//   void Consume(const FusedBatch& in, int lane);                // terminal
// Sources replace Process with:
//   size_t Chunks(const ExecConfig& cfg) const;
//   template <typename Next>
//   void Produce(size_t chunk, int lane, Next&& next);
// Per-lane rows() counters are plain (non-atomic) — each lane only touches
// its own slot; rows_out() sums them after the ParallelFor joined.

namespace detail {

/// Per-lane emitted-row counters, one cache line apart so concurrent lanes
/// never bounce a line (one increment per chunk, but chunks can be tiny).
class LaneRows {
 public:
  void Open(int lanes) { rows_.assign(static_cast<size_t>(lanes), Slot{}); }
  void Add(int lane, uint64_t n) { rows_[static_cast<size_t>(lane)].v += n; }
  uint64_t Total() const {
    uint64_t t = 0;
    for (const Slot& s : rows_) t += s.v;
    return t;
  }

 private:
  struct alignas(64) Slot {
    uint64_t v = 0;
  };
  std::vector<Slot> rows_;
};

/// Chunks in the grid over n rows.
inline size_t GridChunks(size_t n, const ExecConfig& cfg) {
  return n == 0 ? 0 : (n + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
}

/// Counts one pipeline run: `chunks_pushed` by its grid size and
/// `pipelines_fused` by one.
void CountPipeline(size_t n_chunks);

}  // namespace detail

/// Fused source over a raw two-column base table (a, b): one dense batch
/// per chunk of the grid (col 0 from a, col 1 from b) holding the rows
/// whose column `pred_col` lies in [lo, hi], through the paper's
/// SelectionScan kernels. The build side filters on R's key (column 0),
/// the probe side on S's value (column 1).
template <Isa kIsa>
class FusedScan {
 public:
  FusedScan(const uint32_t* a, const uint32_t* b, size_t n, int pred_col,
            uint32_t lo, uint32_t hi)
      : cols_{a, b}, n_(n), pred_col_(pred_col), lo_(lo), hi_(hi) {
    assert(pred_col == 0 || pred_col == 1);
  }

  size_t Chunks(const ExecConfig& cfg) const {
    return detail::GridChunks(n_, cfg);
  }

  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
    (void)n_chunks;
    chunk_tuples_ = cfg.chunk_tuples;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      for (AlignedBuffer<uint32_t>& c : l.col) {
        c.Reset(ChunkCapacity(chunk_tuples_));
      }
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t b = chunk * chunk_tuples_;
    const size_t sz = std::min(chunk_tuples_, n_ - b);
    const int p = pred_col_;
    const size_t cnt = SelectionScan(
        ScanVariantForIsa(kIsa), cols_[p] + b, cols_[1 - p] + b, sz, lo_,
        hi_, l.col[p].data(), l.col[1 - p].data(), l.col[p].size());
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.col[0].data();
    out.col[1] = l.col[1].data();
    out.n = cnt;
    out.seq = chunk;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> col[2];
  };
  const uint32_t* cols_[2];
  size_t n_;
  int pred_col_;
  uint32_t lo_, hi_;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Fused source over compressed base columns (compress/column.h): emits
/// the rows FusedScan would for the decompressed columns, in the same
/// order, so a compressed plan is byte-identical to its raw twin by
/// construction. The constructor (which runs on the submitting thread,
/// before RunPipeline sizes the grid) classifies every block of the
/// predicate column once against the predicate via its FOR-domain zone map
/// (compress::ClassifyBlock) and keeps the blocks that are not skipped,
/// with their all-pass or mixed verdict. The chunk grid covers only the
/// kept blocks' rows: kept block k starts at surviving row k * kBlockTuples
/// (only a column's last block can be short), so a skipped block costs
/// neither a chunk nor a read of its packed bytes. All-pass blocks decode
/// straight into the batch columns with no per-value predicate evaluation;
/// mixed blocks decode into per-lane scratch (cached by block id, so
/// sub-block chunk grids do not re-decode) and run SelectionScan on the
/// just-unpacked values.
template <Isa kIsa>
class FusedScanCompressed {
 public:
  FusedScanCompressed(const compress::CompressedColumn* a,
                      const compress::CompressedColumn* b, int pred_col,
                      uint32_t lo, uint32_t hi)
      : cols_{a, b}, pred_col_(pred_col), lo_(lo), hi_(hi) {
    assert(a->size() == b->size());
    assert(pred_col == 0 || pred_col == 1);
    const compress::CompressedColumn* pred = cols_[pred_col];
    for (size_t blk = 0; blk < pred->num_blocks(); ++blk) {
      const compress::BlockClass cls =
          compress::ClassifyBlock(pred->block_meta(blk), lo, hi);
      if (cls == compress::BlockClass::kSkip) {
        ++skipped_;
        continue;
      }
      const bool all_pass = cls == compress::BlockClass::kAllPass;
      all_pass_ += all_pass;
      kept_.push_back(KeptBlock{static_cast<uint32_t>(blk), all_pass});
      kept_rows_ += pred->block_rows(blk);
    }
  }

  size_t Chunks(const ExecConfig& cfg) const {
    return detail::GridChunks(kept_rows_, cfg);
  }

  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
    (void)n_chunks;
    chunk_tuples_ = cfg.chunk_tuples;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      for (int c = 0; c < 2; ++c) {
        l.col[c].Reset(ChunkCapacity(chunk_tuples_));
        l.block_buf[c].Reset(compress::PackedCapacity(compress::kBlockTuples));
        l.block[c] = SIZE_MAX;
      }
    }
    rows_.Open(lanes);
    compress::BlocksSkipped().Add(skipped_);
    compress::BlocksAllPass().Add(all_pass_);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const int p = pred_col_;
    const size_t begin = chunk * chunk_tuples_;
    const size_t end = begin + std::min(chunk_tuples_, kept_rows_ - begin);
    const size_t cap = l.col[0].size();
    size_t cnt = 0;
    for (size_t pos = begin; pos < end;) {
      const size_t k = pos / compress::kBlockTuples;
      const size_t b = kept_[k].block;
      const size_t off = pos - k * compress::kBlockTuples;
      const size_t rows = cols_[p]->block_rows(b);
      const size_t take = std::min(end - pos, rows - off);
      if (kept_[k].all_pass) {
        for (int c = 0; c < 2; ++c) {
          // A whole in-chunk block decodes straight into the batch column
          // (its overshoot lands in the ChunkCapacity slack); partial
          // overlaps go through the block cache.
          if (take == rows) {
            cols_[c]->DecodeBlock(kIsa, b, l.col[c].data() + cnt, cap - cnt);
          } else {
            std::memcpy(l.col[c].data() + cnt, Decoded(l, c, b) + off,
                        take * sizeof(uint32_t));
          }
        }
        cnt += take;
      } else {
        // Mixed block: range-scan the just-unpacked slice, appending at
        // the output cursor (input order is preserved, so the batch
        // matches the raw scan's).
        cnt += SelectionScan(ScanVariantForIsa(kIsa), Decoded(l, p, b) + off,
                             Decoded(l, 1 - p, b) + off, take, lo_, hi_,
                             l.col[p].data() + cnt,
                             l.col[1 - p].data() + cnt, cap - cnt);
      }
      pos += take;
    }
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.col[0].data();
    out.col[1] = l.col[1].data();
    out.n = cnt;
    out.seq = chunk;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct KeptBlock {
    uint32_t block;
    bool all_pass;
  };
  struct Lane {
    AlignedBuffer<uint32_t> col[2];        // batch columns
    AlignedBuffer<uint32_t> block_buf[2];  // decoded-block cache
    size_t block[2] = {SIZE_MAX, SIZE_MAX};
  };

  /// Decoded values of block b of column c, through the lane's cache.
  const uint32_t* Decoded(Lane& l, int c, size_t b) {
    if (l.block[c] != b) {
      cols_[c]->DecodeBlock(kIsa, b, l.block_buf[c].data(),
                            l.block_buf[c].size());
      l.block[c] = b;
    }
    return l.block_buf[c].data();
  }

  const compress::CompressedColumn* cols_[2];
  int pred_col_;
  uint32_t lo_, hi_;
  std::vector<KeptBlock> kept_;  ///< blocks not skipped, in column order
  size_t kept_rows_ = 0;         ///< rows of the kept blocks
  uint64_t skipped_ = 0, all_pass_ = 0;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Fused join probe through HashBuildOp::Probe: (fk, val) batches become
/// (key, s_val, r_attr) batches, one row per match (build keys unique —
/// key/FK join, enforced by HashBuildOp::Finish — so a batch never
/// outgrows its input).
template <Isa kIsa>
class FusedJoinProbe {
 public:
  explicit FusedJoinProbe(const HashBuildOp* build) : build_(build) {}

  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
    (void)n_chunks;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.key.Reset(ChunkCapacity(cfg.chunk_tuples));
      l.sval.Reset(ChunkCapacity(cfg.chunk_tuples));
      l.rpay.Reset(ChunkCapacity(cfg.chunk_tuples));
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Process(const FusedBatch& in, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t cnt =
        build_->Probe(kIsa, in.col[0], in.col[1], in.n, l.key.data(),
                      l.sval.data(), l.rpay.data());
    assert(cnt <= l.key.size());
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.key.data();
    out.col[1] = l.sval.data();
    out.col[2] = l.rpay.data();
    out.n = cnt;
    out.seq = in.seq;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> key, sval, rpay;
  };
  const HashBuildOp* build_;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Terminal probe stage: a GroupByState over the build side's payload
/// domain (the group-key domain), finalized after the run.
class FusedGroupBy {
 public:
  FusedGroupBy(const HashBuildOp* build, int key_col, int val_col)
      : build_(build), key_col_(key_col), val_col_(val_col) {}

  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
    (void)n_chunks;
    state_.Open(cfg, lanes, build_->pay_min(), build_->pay_max());
  }

  void Consume(const FusedBatch& in, int lane) {
    state_.Fold(lane, in.col[key_col_], in.col[val_col_], in.n);
  }

  /// Merges the lane partials and extracts the canonical ascending-key
  /// result rows.
  void Finalize(QueryResult* res) {
    state_.Finish(&res->group_keys, &res->sums, &res->counts, &res->mins,
                  &res->maxs);
  }

 private:
  const HashBuildOp* build_;
  int key_col_, val_col_;
  GroupByState state_;
};

// ---------------------------------------------------------------------------
// FusedPipeline and its driver
// ---------------------------------------------------------------------------

/// Compile-time operator chain: a source followed by mid-stages and one
/// terminal stage. A stage type may be a reference (HashBuildOp&): the
/// pipeline then borrows that stage, as the build pipeline borrows the
/// breaker its query keeps. Each chunk flows through every stage via
/// inlined continuations — no virtual calls, no per-stage timers.
template <typename Source, typename... Stages>
class FusedPipeline {
  static_assert(sizeof...(Stages) >= 1, "a pipeline ends in a terminal stage");

 public:
  FusedPipeline(Source source, Stages&&... stages)
      : source_(std::move(source)), stages_(std::forward<Stages>(stages)...) {}

  size_t Chunks(const ExecConfig& cfg) const { return source_.Chunks(cfg); }

  /// Opens the source and every stage for the grid's lane count.
  void Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
    source_.Open(cfg, lanes, n_chunks);
    std::apply([&](auto&... s) { (s.Open(cfg, lanes, n_chunks), ...); },
               stages_);
  }

  /// Runs chunk `chunk` of the grid through the whole chain on `lane`.
  void Produce(size_t chunk, int lane) {
    source_.Produce(chunk, lane, [this, lane](const FusedBatch& b) {
      Apply<0>(b, lane);
    });
  }

  Source& source() { return source_; }
  template <size_t I>
  auto& stage() {
    return std::get<I>(stages_);
  }

 private:
  template <size_t I>
  void Apply(const FusedBatch& b, int lane) {
    if (b.n == 0) return;  // empty batches stop where they empty
    if constexpr (I + 1 == sizeof...(Stages)) {
      std::get<I>(stages_).Consume(b, lane);
    } else {
      std::get<I>(stages_).Process(b, lane, [this, lane](const FusedBatch& nb) {
        Apply<I + 1>(nb, lane);
      });
    }
  }

  Source source_;
  std::tuple<Stages...> stages_;
};

/// Runs one pipeline over its chunk grid: opens it for the grid's lane
/// count, then one TaskPool dispatch produces every chunk through the
/// chain. The fan-out is capped at the lane count so worker ids stay
/// within the per-lane state Open allocated.
template <typename Pipeline>
void RunPipeline(Pipeline& pipeline, const ExecConfig& cfg) {
  const size_t n_chunks = pipeline.Chunks(cfg);
  int lanes = TaskPool::LaneCount(n_chunks, cfg.threads);
  if (lanes < 1) lanes = 1;
  pipeline.Open(cfg, lanes, n_chunks);
  detail::CountPipeline(n_chunks);
  if (n_chunks == 0) return;
  TaskPool::Get().ParallelFor(n_chunks, lanes, [&](int lane, size_t c) {
    pipeline.Produce(c, lane);
  });
}

// ---------------------------------------------------------------------------
// Instantiation surface
// ---------------------------------------------------------------------------

/// Runs the plan's build pipeline (R scan filtered on R.key ->
/// HashBuildOp) into `build` for one ISA (compile-time), from the plan's
/// raw or compressed R. Does not Finish the breaker.
template <Isa kIsa>
void RunFusedBuild(const ScanJoinAggregatePlan& plan, const ExecConfig& cfg,
                   HashBuildOp* build) {
  if (plan.r_keys_c != nullptr) {
    FusedPipeline<FusedScanCompressed<kIsa>, HashBuildOp&> pipeline(
        FusedScanCompressed<kIsa>(plan.r_keys_c, plan.r_attrs_c,
                                  /*pred_col=*/0, plan.r_lo, plan.r_hi),
        *build);
    RunPipeline(pipeline, cfg);
  } else {
    FusedPipeline<FusedScan<kIsa>, HashBuildOp&> pipeline(
        FusedScan<kIsa>(plan.r_keys, plan.r_attrs, plan.n_r, /*pred_col=*/0,
                        plan.r_lo, plan.r_hi),
        *build);
    RunPipeline(pipeline, cfg);
  }
}

/// Runs the plan's probe pipeline (S scan filtered on S.val -> join probe
/// against `build` -> group-by) for one ISA, from the plan's raw or
/// compressed S, and returns its result (all but rows_build).
template <Isa kIsa>
QueryResult RunFusedProbe(const ScanJoinAggregatePlan& plan,
                          const HashBuildOp& build, const ExecConfig& cfg);

namespace detail {

/// The probe pipeline over `source`, for the RunFusedProbe instantiations.
template <Isa kIsa, typename Source>
QueryResult RunFusedProbeShape(Source source, const HashBuildOp& build,
                               const ExecConfig& cfg) {
  FusedPipeline<Source, FusedJoinProbe<kIsa>, FusedGroupBy> pipeline(
      std::move(source), FusedJoinProbe<kIsa>(&build),
      FusedGroupBy(&build, /*key_col=*/2, /*val_col=*/1));
  RunPipeline(pipeline, cfg);
  QueryResult res;
  res.rows_scanned = pipeline.source().rows_out();
  res.rows_joined = pipeline.template stage<0>().rows_out();
  pipeline.template stage<1>().Finalize(&res);
  return res;
}

}  // namespace detail

// Defined here so each backend TU can anchor its explicit instantiation
// (the extern template declarations below suppress implicit ones).
template <Isa kIsa>
QueryResult RunFusedProbe(const ScanJoinAggregatePlan& plan,
                          const HashBuildOp& build, const ExecConfig& cfg) {
  if (plan.s_fks_c != nullptr) {
    return detail::RunFusedProbeShape<kIsa>(
        FusedScanCompressed<kIsa>(plan.s_fks_c, plan.s_vals_c,
                                  /*pred_col=*/1, plan.s_lo, plan.s_hi),
        build, cfg);
  }
  return detail::RunFusedProbeShape<kIsa>(
      FusedScan<kIsa>(plan.s_fks, plan.s_vals, plan.n_s, /*pred_col=*/1,
                      plan.s_lo, plan.s_hi),
      build, cfg);
}

extern template void RunFusedBuild<Isa::kScalar>(const ScanJoinAggregatePlan&,
                                                 const ExecConfig&,
                                                 HashBuildOp*);
extern template void RunFusedBuild<Isa::kAvx2>(const ScanJoinAggregatePlan&,
                                               const ExecConfig&,
                                               HashBuildOp*);
extern template void RunFusedBuild<Isa::kAvx512>(const ScanJoinAggregatePlan&,
                                                 const ExecConfig&,
                                                 HashBuildOp*);
extern template QueryResult RunFusedProbe<Isa::kScalar>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);
extern template QueryResult RunFusedProbe<Isa::kAvx2>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);
extern template QueryResult RunFusedProbe<Isa::kAvx512>(
    const ScanJoinAggregatePlan&, const HashBuildOp&, const ExecConfig&);

/// Runtime entries: dispatch cfg.isa (which must be supported — callers
/// pass EffectiveIsa) to its instantiation, one switch per pipeline.
/// RunFusedBuildPipeline also finishes the breaker, or, for a plan with a
/// join index, borrows the index's window in place of the whole pipeline,
/// and records the build into the `exec_build_ns` phase timer.
void RunFusedBuildPipeline(const ScanJoinAggregatePlan& plan,
                           const ExecConfig& cfg, HashBuildOp* build);
QueryResult RunFusedProbePipeline(const ScanJoinAggregatePlan& plan,
                                  const HashBuildOp& build,
                                  const ExecConfig& cfg);

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_FUSED_H_
