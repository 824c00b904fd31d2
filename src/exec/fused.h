#ifndef SIMDDB_EXEC_FUSED_H_
#define SIMDDB_EXEC_FUSED_H_

// Template-fused compiled pipelines — the per-chunk dispatch tax killer.
//
// The dynamic executor (exec/pipeline.h) pays a virtual Push, a Chunk
// visibility round-trip (memcpy into the chunk, bitmap -> selection ->
// Compact gather), and a per-push metrics gate between every pair of
// operators. Those costs are invisible in per-operator benches but add up
// to the delta between bench_ext_query and the hand-composed kernel
// sequence tests/exec_test.cc builds. This layer removes them without a
// JIT: the hot Q3 probe pipeline (scan -> bloom semi-join -> hash-join
// probe -> group-by) is expressed as a compile-time operator composition —
// a variadic FusedPipeline<Source, Stages...> whose stages hand each other
// a FusedBatch (dense column pointers + count, register-resident state, no
// ownership, no visibility machinery) through fully-inlined continuations.
// One instantiation exists per (ISA x source); RunScanJoinAggregate selects
// it at plan-build time unless PipelineMode::kDynamic asks for the dynamic
// chain (see query.cc).
//
// What fusion buys per chunk:
//   - no virtual dispatch: stage hand-off is an inlined template call;
//   - no Chunk materialization: the bitmap-mode scan evaluates the range
//     predicate directly on the base columns and gathers qualifiers from
//     the base columns in one pass (detail::GatherPair, per-ISA TUs) —
//     the dynamic path instead memcpys the whole morsel into a Chunk,
//     converts bitmap -> selection, and gathers every column in Compact;
//   - no per-push metrics scopes: the fused path is timed once per query
//     (exec_fused_ns, see query.cc) instead of once per operator per chunk.
//
// Determinism contract: the fused path reuses the dynamic path's chunk
// grid (ceil(n / chunk_tuples) chunks, ParallelFor over chunk ordinals)
// and its group-by state (GroupByState: the same per-lane partials over
// the same build-side key domain, and the canonical ascending-key result
// extraction), so a fused QueryResult is byte-identical to the dynamic
// pipeline's for every ISA, thread count, chunk size, and steal schedule.
// Pipeline breakers (the hash build that feeds this pipeline) still run
// through the dynamic Chunk machinery — only streaming stages are fused.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "compress/column.h"
#include "core/isa.h"
#include "exec/chunk.h"
#include "exec/pipeline.h"
#include "scan/selection_scan.h"
#include "util/aligned_buffer.h"
#include "util/task_pool.h"

namespace simddb::exec {

/// Dense batch view handed between fused stages: up to three column
/// pointers plus a tuple count. Columns live in the producing stage's
/// per-lane scratch (or the base table), so a batch is valid only for the
/// duration of the continuation call that receives it.
struct FusedBatch {
  const uint32_t* col[3] = {nullptr, nullptr, nullptr};
  size_t n = 0;
};

/// Inputs of the fused Q3 probe pipeline (the post-breaker half of the
/// plan): the S base columns and predicate, plus the finished build
/// breaker.
struct FusedProbeSpec {
  const uint32_t* fks = nullptr;   ///< S foreign keys (batch col 0)
  const uint32_t* vals = nullptr;  ///< S values: filter + aggregate (col 1)
  /// Compressed S columns (compress/column.h). When non-null they replace
  /// the raw pointers: the pipeline sources from FusedScanCompressed in
  /// BOTH scan modes — a compressed source has no base-table copy for the
  /// bitmap duality to elide, so the mode axis degenerates (results are
  /// byte-identical across modes by the executor's determinism contract).
  const compress::CompressedColumn* fks_c = nullptr;
  const compress::CompressedColumn* vals_c = nullptr;
  size_t n = 0;
  uint32_t lo = 0, hi = 0;         ///< inclusive range predicate on vals
  ScanMode scan_mode = ScanMode::kCompact;
  /// The finished build breaker (required): its table, its Bloom filter
  /// (null disables the semi-join) and its payload domain, which is the
  /// group-key domain.
  const HashBuildOp* build = nullptr;
};

/// Canonical fused result: group rows in ascending key order (identical to
/// GroupBySink's extraction) plus the cardinalities the dynamic operators
/// report via rows_out().
struct FusedProbeResult {
  std::vector<uint32_t> group_keys;
  std::vector<uint64_t> sums;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> mins;
  std::vector<uint32_t> maxs;
  uint64_t rows_scanned = 0;
  uint64_t rows_bloomed = 0;
  uint64_t rows_joined = 0;
};

namespace detail {

// Fused two-column gather: out{a,b}[i] = {a,b}[sel[i]] for i in [0, cnt).
// Replaces the dynamic path's memcpy-then-Compact round trip with one pass
// over the qualifiers. Backend TUs: fused.cc / fused_avx2.cc /
// fused_avx512.cc (vpgatherdd on both vector ISAs).
void GatherPairScalar(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b);
void GatherPairAvx2(const uint32_t* a, const uint32_t* b, const uint32_t* sel,
                    size_t cnt, uint32_t* out_a, uint32_t* out_b);
void GatherPairAvx512(const uint32_t* a, const uint32_t* b,
                      const uint32_t* sel, size_t cnt, uint32_t* out_a,
                      uint32_t* out_b);

inline void GatherPair(Isa isa, const uint32_t* a, const uint32_t* b,
                       const uint32_t* sel, size_t cnt, uint32_t* out_a,
                       uint32_t* out_b) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return GatherPairAvx512(a, b, sel, cnt, out_a, out_b);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return GatherPairAvx2(a, b, sel, cnt, out_a, out_b);
  }
  return GatherPairScalar(a, b, sel, cnt, out_a, out_b);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Fused stages
// ---------------------------------------------------------------------------
//
// Stage interface (compile-time, no base class):
//   void Open(const ExecConfig& cfg, int lanes);
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

}  // namespace detail

/// Fused source over the paper's SelectionScan kernels: one dense (fk, val)
/// batch per chunk of the deterministic grid, filtered on the val column.
template <Isa kIsa>
class FusedScanCompact {
 public:
  FusedScanCompact(const uint32_t* fks, const uint32_t* vals, size_t n,
                   uint32_t lo, uint32_t hi)
      : fks_(fks), vals_(vals), n_(n), lo_(lo), hi_(hi) {}

  size_t Chunks(const ExecConfig& cfg) const {
    return n_ == 0 ? 0 : (n_ + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  }

  void Open(const ExecConfig& cfg, int lanes) {
    chunk_tuples_ = cfg.chunk_tuples;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.fk.Reset(ChunkCapacity(chunk_tuples_));
      l.val.Reset(ChunkCapacity(chunk_tuples_));
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t b = chunk * chunk_tuples_;
    const size_t sz = std::min(chunk_tuples_, n_ - b);
    // Scan keyed on the val column, carrying the fk as payload — the same
    // kernel call ScanOp makes, minus the Chunk in between.
    const size_t cnt =
        SelectionScan(ScanVariantForIsa(kIsa), vals_ + b, fks_ + b, sz, lo_,
                      hi_, l.val.data(), l.fk.data(), l.val.size());
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.fk.data();
    out.col[1] = l.val.data();
    out.n = cnt;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> fk, val;
  };
  const uint32_t* fks_;
  const uint32_t* vals_;
  size_t n_;
  uint32_t lo_, hi_;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Fused source for the bitmap-duality plan shape: the range predicate is
/// evaluated into a lane-local bitmap directly over the base columns (no
/// morsel copy), converted to a selection vector once, and both columns are
/// gathered from the base table in a single fused pass. The dynamic
/// equivalent (ScanOp kBitmap + MaterializeOp) copies the full morsel into
/// a Chunk first and gathers it again in Compact.
template <Isa kIsa>
class FusedScanBitmap {
 public:
  FusedScanBitmap(const uint32_t* fks, const uint32_t* vals, size_t n,
                  uint32_t lo, uint32_t hi)
      : fks_(fks), vals_(vals), n_(n), lo_(lo), hi_(hi) {}

  size_t Chunks(const ExecConfig& cfg) const {
    return n_ == 0 ? 0 : (n_ + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  }

  void Open(const ExecConfig& cfg, int lanes) {
    chunk_tuples_ = cfg.chunk_tuples;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.fk.Reset(ChunkCapacity(chunk_tuples_));
      l.val.Reset(ChunkCapacity(chunk_tuples_));
      l.sel.Reset(ChunkCapacity(chunk_tuples_));
      l.bitmap.Reset(ChunkBitmapWords(chunk_tuples_) + 1);
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t b = chunk * chunk_tuples_;
    const size_t sz = std::min(chunk_tuples_, n_ - b);
    const size_t n_bits =
        RangePredicateBitmap(kIsa, vals_ + b, sz, lo_, hi_, l.bitmap.data());
    size_t cnt = 0;
    if (n_bits != 0) {
      cnt = BitmapToSelection(kIsa, l.bitmap.data(), sz, l.sel.data());
      assert(cnt == n_bits);
      detail::GatherPair(kIsa, fks_ + b, vals_ + b, l.sel.data(), cnt,
                         l.fk.data(), l.val.data());
    }
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.fk.data();
    out.col[1] = l.val.data();
    out.n = cnt;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> fk, val, sel;
    AlignedBuffer<uint64_t> bitmap;
  };
  const uint32_t* fks_;
  const uint32_t* vals_;
  size_t n_;
  uint32_t lo_, hi_;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Fused source over compressed base columns: the scan-over-compressed
/// front-end of the fused pipeline, emitting the same dense (fk, val)
/// batches FusedScanCompact would for the decompressed columns. Per chunk
/// it walks the overlapped 1024-value blocks and classifies each against
/// the predicate via the FOR-domain zone map (compress::ClassifyBlock):
/// skipped blocks contribute nothing without their packed bytes being
/// read, all-pass blocks decode straight into the batch columns with no
/// per-value predicate evaluation, and mixed blocks decode into per-lane
/// scratch (cached by block id) and run SelectionScan on the
/// just-unpacked values — the CompressedScanOp protocol minus the Chunk.
template <Isa kIsa>
class FusedScanCompressed {
 public:
  FusedScanCompressed(const compress::CompressedColumn* fks,
                      const compress::CompressedColumn* vals, uint32_t lo,
                      uint32_t hi)
      : fks_(fks), vals_(vals), n_(fks->size()), lo_(lo), hi_(hi) {
    assert(fks_->size() == vals_->size());
  }

  size_t Chunks(const ExecConfig& cfg) const {
    return n_ == 0 ? 0 : (n_ + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
  }

  void Open(const ExecConfig& cfg, int lanes) {
    chunk_tuples_ = cfg.chunk_tuples;
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.fk.Reset(ChunkCapacity(chunk_tuples_));
      l.val.Reset(ChunkCapacity(chunk_tuples_));
      l.fk_buf.Reset(compress::PackedCapacity(compress::kBlockTuples));
      l.val_buf.Reset(compress::PackedCapacity(compress::kBlockTuples));
      l.fk_block = SIZE_MAX;
      l.val_block = SIZE_MAX;
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Produce(size_t chunk, int lane, Next&& next) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t begin = chunk * chunk_tuples_;
    const size_t end = begin + std::min(chunk_tuples_, n_ - begin);
    const size_t cap = l.val.size();
    size_t cnt = 0;
    for (size_t pos = begin; pos < end;) {
      const size_t b = pos / compress::kBlockTuples;
      const size_t block_base = b * compress::kBlockTuples;
      const size_t off = pos - block_base;
      const size_t take =
          std::min(end, block_base + vals_->block_rows(b)) - pos;
      const compress::BlockMeta& m = vals_->block_meta(b);
      const compress::BlockClass cls = compress::ClassifyBlock(m, lo_, hi_);
      if (cls == compress::BlockClass::kSkip) {
        compress::BlocksSkipped().Add(1);
      } else if (cls == compress::BlockClass::kAllPass) {
        compress::BlocksAllPass().Add(1);
        if (take == vals_->block_rows(b)) {
          fks_->DecodeBlock(kIsa, b, l.fk.data() + cnt, cap - cnt);
          vals_->DecodeBlock(kIsa, b, l.val.data() + cnt, cap - cnt);
        } else {
          std::memcpy(l.fk.data() + cnt, DecodedFk(l, b) + off,
                      take * sizeof(uint32_t));
          std::memcpy(l.val.data() + cnt, DecodedVal(l, b) + off,
                      take * sizeof(uint32_t));
        }
        cnt += take;
      } else {
        cnt += SelectionScan(ScanVariantForIsa(kIsa), DecodedVal(l, b) + off,
                             DecodedFk(l, b) + off, take, lo_, hi_,
                             l.val.data() + cnt, l.fk.data() + cnt,
                             cap - cnt);
      }
      pos += take;
    }
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.fk.data();
    out.col[1] = l.val.data();
    out.n = cnt;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> fk, val;        // batch columns
    AlignedBuffer<uint32_t> fk_buf, val_buf;  // decoded-block cache
    size_t fk_block = SIZE_MAX, val_block = SIZE_MAX;
  };

  const uint32_t* DecodedFk(Lane& l, size_t b) {
    if (l.fk_block != b) {
      fks_->DecodeBlock(kIsa, b, l.fk_buf.data(), l.fk_buf.size());
      l.fk_block = b;
    }
    return l.fk_buf.data();
  }
  const uint32_t* DecodedVal(Lane& l, size_t b) {
    if (l.val_block != b) {
      vals_->DecodeBlock(kIsa, b, l.val_buf.data(), l.val_buf.size());
      l.val_block = b;
    }
    return l.val_buf.data();
  }

  const compress::CompressedColumn* fks_;
  const compress::CompressedColumn* vals_;
  size_t n_;
  uint32_t lo_, hi_;
  size_t chunk_tuples_ = kDefaultChunkTuples;
  std::vector<Lane> lanes_;
  detail::LaneRows rows_;
};

/// Fused Bloom semi-join. A null filter (bloom disabled, or empty build
/// side) forwards the batch untouched — a predicted branch per chunk, not a
/// virtual call.
template <Isa kIsa>
class FusedBloomProbe {
 public:
  explicit FusedBloomProbe(const BloomFilter* filter) : filter_(filter) {}

  void Open(const ExecConfig& cfg, int lanes) {
    lanes_.resize(static_cast<size_t>(lanes));
    for (Lane& l : lanes_) {
      l.fk.Reset(ChunkCapacity(cfg.chunk_tuples));
      l.val.Reset(ChunkCapacity(cfg.chunk_tuples));
    }
    rows_.Open(lanes);
  }

  template <typename Next>
  void Process(const FusedBatch& in, int lane, Next&& next) {
    if (filter_ == nullptr) {
      rows_.Add(lane, in.n);
      next(in);
      return;
    }
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const size_t cnt = filter_->Probe(kIsa, in.col[0], in.col[1], in.n,
                                      l.fk.data(), l.val.data());
    rows_.Add(lane, cnt);
    FusedBatch out;
    out.col[0] = l.fk.data();
    out.col[1] = l.val.data();
    out.n = cnt;
    next(out);
  }

  uint64_t rows_out() const { return rows_.Total(); }

 private:
  struct Lane {
    AlignedBuffer<uint32_t> fk, val;
  };
  const BloomFilter* filter_;
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

  void Open(const ExecConfig& cfg, int lanes) {
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

/// Terminal fused stage: a GroupByState over the build side's key domain,
/// as GroupBySink keeps, finalized after the run.
class FusedGroupBy {
 public:
  FusedGroupBy(const HashBuildOp* build, int key_col, int val_col)
      : build_(build), key_col_(key_col), val_col_(val_col) {}

  void Open(const ExecConfig& cfg, int lanes) {
    state_.Open(cfg, lanes, build_->pay_min(), build_->pay_max());
  }

  void Consume(const FusedBatch& in, int lane) {
    state_.Fold(lane, in.col[key_col_], in.col[val_col_], in.n);
  }

  /// Merges the lane partials and extracts the canonical ascending-key
  /// result rows (exactly GroupBySink::Finish's representation).
  void Finalize(FusedProbeResult* res) {
    state_.Finish(&res->group_keys, &res->sums, &res->counts, &res->mins,
                  &res->maxs);
  }

 private:
  const HashBuildOp* build_;
  int key_col_, val_col_;
  GroupByState state_;
};

// ---------------------------------------------------------------------------
// FusedPipeline
// ---------------------------------------------------------------------------

/// Compile-time operator chain: a source followed by mid-stages and one
/// terminal stage. Run drives the source's deterministic chunk grid over
/// the shared TaskPool; each chunk flows through every stage via inlined
/// continuations — no virtual calls, no Chunks, no per-stage timers.
template <typename Source, typename... Stages>
class FusedPipeline {
  static_assert(sizeof...(Stages) >= 1, "a pipeline ends in a terminal stage");

 public:
  FusedPipeline(Source source, Stages... stages)
      : source_(std::move(source)), stages_(std::move(stages)...) {}

  /// Opens every stage for the grid's lane count, then runs the whole grid
  /// morsel-parallel. The fan-out is capped at that lane count so worker
  /// ids stay within the per-lane state Open allocated.
  void Run(const ExecConfig& cfg) {
    const size_t n_chunks = source_.Chunks(cfg);
    int lanes = TaskPool::LaneCount(n_chunks, cfg.threads);
    if (lanes < 1) lanes = 1;
    source_.Open(cfg, lanes);
    std::apply([&](auto&... s) { (s.Open(cfg, lanes), ...); }, stages_);
    if (n_chunks == 0) return;
    TaskPool::Get().ParallelFor(n_chunks, lanes, [this](int lane, size_t c) {
      source_.Produce(c, lane, [this, lane](const FusedBatch& b) {
        Apply<0>(b, lane);
      });
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

// ---------------------------------------------------------------------------
// Instantiation surface
// ---------------------------------------------------------------------------

/// Runs the fused Q3 probe pipeline for one ISA (compile-time) and the
/// spec's source (selected inside). Instantiated once per ISA in fused.cc /
/// fused_avx2.cc / fused_avx512.cc so each backend's inner loops compile
/// under its own ISA flags.
template <Isa kIsa>
FusedProbeResult RunFusedProbe(const FusedProbeSpec& spec,
                               const ExecConfig& cfg);

extern template FusedProbeResult RunFusedProbe<Isa::kScalar>(
    const FusedProbeSpec& spec, const ExecConfig& cfg);
extern template FusedProbeResult RunFusedProbe<Isa::kAvx2>(
    const FusedProbeSpec& spec, const ExecConfig& cfg);
extern template FusedProbeResult RunFusedProbe<Isa::kAvx512>(
    const FusedProbeSpec& spec, const ExecConfig& cfg);

/// Runtime entry: dispatches cfg.isa to its instantiation (one switch per
/// pipeline, not per chunk) and counts `pipelines_fused`.
FusedProbeResult RunFusedProbePipeline(const FusedProbeSpec& spec,
                                       const ExecConfig& cfg);

namespace detail {

/// Shared shape driver for the RunFusedProbe instantiations.
template <Isa kIsa, typename Source>
FusedProbeResult RunFusedProbeShape(Source source, const FusedProbeSpec& spec,
                                    const ExecConfig& cfg) {
  FusedPipeline<Source, FusedBloomProbe<kIsa>, FusedJoinProbe<kIsa>,
                FusedGroupBy>
      pipeline(std::move(source), FusedBloomProbe<kIsa>(spec.build->bloom()),
               FusedJoinProbe<kIsa>(spec.build),
               FusedGroupBy(spec.build, /*key_col=*/2, /*val_col=*/1));
  pipeline.Run(cfg);
  FusedProbeResult res;
  res.rows_scanned = pipeline.source().rows_out();
  res.rows_bloomed = pipeline.template stage<0>().rows_out();
  res.rows_joined = pipeline.template stage<1>().rows_out();
  pipeline.template stage<2>().Finalize(&res);
  return res;
}

}  // namespace detail

// Defined here so each backend TU can anchor its explicit instantiation
// (the extern template declarations above suppress implicit ones).
template <Isa kIsa>
FusedProbeResult RunFusedProbe(const FusedProbeSpec& spec,
                               const ExecConfig& cfg) {
  if (spec.fks_c != nullptr) {
    // Compressed source: one shape serves both scan modes (see
    // FusedProbeSpec::fks_c).
    return detail::RunFusedProbeShape<kIsa>(
        FusedScanCompressed<kIsa>(spec.fks_c, spec.vals_c, spec.lo, spec.hi),
        spec, cfg);
  }
  if (spec.scan_mode == ScanMode::kBitmap) {
    return detail::RunFusedProbeShape<kIsa>(
        FusedScanBitmap<kIsa>(spec.fks, spec.vals, spec.n, spec.lo, spec.hi),
        spec, cfg);
  }
  return detail::RunFusedProbeShape<kIsa>(
      FusedScanCompact<kIsa>(spec.fks, spec.vals, spec.n, spec.lo, spec.hi),
      spec, cfg);
}

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_FUSED_H_
