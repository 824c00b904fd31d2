#include "exec/pipeline.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/task_pool.h"

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so counters/timers must have static storage.
obs::Counter g_chunks_pushed("chunks_pushed");
obs::Counter g_pipelines_dynamic("pipelines_dynamic");
obs::PhaseTimer g_scan_ns("exec_scan_ns");
obs::PhaseTimer g_materialize_ns("exec_materialize_ns");
obs::PhaseTimer g_bloom_ns("exec_bloom_ns");
obs::PhaseTimer g_build_ns("exec_build_ns");
obs::PhaseTimer g_probe_ns("exec_probe_ns");
obs::PhaseTimer g_groupby_ns("exec_groupby_ns");

/// obs::ScopedPhase with the MetricsEnabled() check hoisted to the caller:
/// Push paths pass the operator's Open-sampled `timed_` flag, so a disabled
/// run pays a register test per push instead of an atomic load per
/// operator per chunk. Active scopes record the phase timer and a trace
/// event exactly like obs::ScopedPhase.
class PhaseScope {
 public:
  PhaseScope(obs::PhaseTimer& timer, bool on) : timer_(timer), on_(on) {
    if (on_) start_ns_ = obs::NowNs();
  }
  ~PhaseScope() {
    if (!on_) return;
    const uint64_t dur = obs::NowNs() - start_ns_;
    timer_.RecordAlways(dur);
    obs::EmitTraceEvent(timer_.name(), start_ns_, dur);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  obs::PhaseTimer& timer_;
  bool on_;
  uint64_t start_ns_ = 0;
};

size_t ChunksFor(size_t n, const ExecConfig& cfg) {
  return n == 0 ? 0 : (n + cfg.chunk_tuples - 1) / cfg.chunk_tuples;
}

void ResetLaneChunks(std::vector<std::unique_ptr<Chunk>>& out, int lanes,
                     size_t capacity, int n_cols) {
  out.resize(static_cast<size_t>(lanes));
  for (auto& c : out) {
    if (!c) c = std::make_unique<Chunk>();
    c->Reset(capacity, n_cols);
  }
}

// The client-facing reason for a build side that repeats a join key, naming
// the smallest repeated key. Runs only on the failing path.
std::string RepeatedBuildKeyError(const uint32_t* keys, size_t n) {
  std::vector<uint32_t> sorted(keys, keys + n);
  std::sort(sorted.begin(), sorted.end());
  const auto it = std::adjacent_find(sorted.begin(), sorted.end());
  std::string msg = "duplicate build keys";
  if (it != sorted.end()) msg += " (key " + std::to_string(*it) + " repeats)";
  return msg + ": the join needs unique keys on the build side";
}

// The client-facing reason for a build side holding the reserved value
// kEmptyKey in `column`.
std::string ReservedValueError(const char* column) {
  return "reserved value " + std::to_string(kEmptyKey) + " in the build " +
         column + ": build keys and group attributes must be below " +
         std::to_string(kEmptyKey);
}

}  // namespace

ScanVariant ScanVariantForIsa(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return ScanVariant::kVectorStoreDirect;
    case Isa::kAvx2:
      return ScanVariant::kAvx2Direct;
    default:
      return ScanVariant::kScalarBranchless;
  }
}

// ---------------------------------------------------------------------------
// Operator
// ---------------------------------------------------------------------------

void Operator::Open(const ExecConfig& cfg, int lanes, size_t n_source_chunks) {
  (void)lanes, (void)n_source_chunks;
  cfg_ = cfg;
  timed_ = obs::MetricsEnabled();
}

void Operator::OpenSource(const ExecConfig& cfg, int lanes) {
  (void)lanes;
  cfg_ = cfg;
  timed_ = obs::MetricsEnabled();
}

void Operator::PushNext(Chunk& c, int lane) {
  assert(next_ != nullptr && "chain ends in a non-sink operator");
  CountRows(c.active());
  if (timed_) g_chunks_pushed.AddAlways(1);
  next_->Push(c, lane);
}

// ---------------------------------------------------------------------------
// ScanOp
// ---------------------------------------------------------------------------

ScanOp::ScanOp(const uint32_t* keys, const uint32_t* vals, size_t n,
               uint32_t lo, uint32_t hi, bool filter_on_vals, ScanMode mode)
    : keys_(keys),
      vals_(vals),
      n_(n),
      lo_(lo),
      hi_(hi),
      filter_on_vals_(filter_on_vals),
      mode_(mode) {}

void ScanOp::OpenSource(const ExecConfig& cfg, int lanes) {
  Operator::OpenSource(cfg, lanes);
  ResetLaneChunks(out_, lanes, cfg.chunk_tuples, 2);
}

void ScanOp::Push(Chunk& c, int lane) {
  (void)c, (void)lane;
  assert(false && "ScanOp is a source; nothing pushes into it");
}

size_t ScanOp::SourceChunks(const ExecConfig& cfg) const {
  return ChunksFor(n_, cfg);
}

void ScanOp::Produce(size_t chunk, int lane) {
  Chunk& out = *out_[static_cast<size_t>(lane)];
  {
    PhaseScope t(g_scan_ns, timed_);
    const size_t b = chunk * cfg_.chunk_tuples;
    const size_t sz = std::min(cfg_.chunk_tuples, n_ - b);
    if (mode_ == ScanMode::kCompact) {
      const ScanVariant v = ScanVariantForIsa(cfg_.isa);
      const size_t cap = ChunkCapacity(out.capacity());
      size_t cnt;
      if (filter_on_vals_) {
        cnt = SelectionScan(v, vals_ + b, keys_ + b, sz, lo_, hi_, out.col(1),
                            out.col(0), cap);
      } else {
        cnt = SelectionScan(v, keys_ + b, vals_ + b, sz, lo_, hi_, out.col(0),
                            out.col(1), cap);
      }
      out.SetDense(cnt);
    } else {
      std::memcpy(out.col(0), keys_ + b, sz * sizeof(uint32_t));
      std::memcpy(out.col(1), vals_ + b, sz * sizeof(uint32_t));
      const uint32_t* pred = filter_on_vals_ ? out.col(1) : out.col(0);
      const size_t cnt =
          RangePredicateBitmap(cfg_.isa, pred, sz, lo_, hi_, out.bitmap());
      out.SetBitmap(sz, cnt);
    }
    out.set_seq(chunk);
  }
  if (skip_empty_ && out.active() == 0) return;
  PushNext(out, lane);
}

// ---------------------------------------------------------------------------
// CompressedScanOp
// ---------------------------------------------------------------------------

CompressedScanOp::CompressedScanOp(const compress::CompressedColumn* keys,
                                   const compress::CompressedColumn* vals,
                                   uint32_t lo, uint32_t hi,
                                   bool filter_on_vals, ScanMode mode)
    : keys_(keys),
      vals_(vals),
      n_(keys->size()),
      lo_(lo),
      hi_(hi),
      filter_on_vals_(filter_on_vals),
      mode_(mode) {
  assert(keys_->size() == vals_->size());
}

void CompressedScanOp::OpenSource(const ExecConfig& cfg, int lanes) {
  Operator::OpenSource(cfg, lanes);
  lanes_.resize(static_cast<size_t>(lanes));
  for (Lane& l : lanes_) {
    if (!l.out) l.out = std::make_unique<Chunk>();
    l.out->Reset(cfg.chunk_tuples, 2);
    l.key_buf.Reset(compress::PackedCapacity(compress::kBlockTuples));
    l.val_buf.Reset(compress::PackedCapacity(compress::kBlockTuples));
    l.key_block = SIZE_MAX;
    l.val_block = SIZE_MAX;
  }
}

void CompressedScanOp::Push(Chunk& c, int lane) {
  (void)c, (void)lane;
  assert(false && "CompressedScanOp is a source; nothing pushes into it");
}

size_t CompressedScanOp::SourceChunks(const ExecConfig& cfg) const {
  return ChunksFor(n_, cfg);
}

const uint32_t* CompressedScanOp::Decoded(Lane& l, int which, size_t b,
                                          Isa isa) {
  AlignedBuffer<uint32_t>& buf = which == 0 ? l.key_buf : l.val_buf;
  size_t& cached = which == 0 ? l.key_block : l.val_block;
  if (cached != b) {
    const compress::CompressedColumn* col = which == 0 ? keys_ : vals_;
    col->DecodeBlock(isa, b, buf.data(), buf.size());
    cached = b;
  }
  return buf.data();
}

void CompressedScanOp::Produce(size_t chunk, int lane) {
  Lane& l = lanes_[static_cast<size_t>(lane)];
  Chunk& out = *l.out;
  {
    PhaseScope t(g_scan_ns, timed_);
    const Isa isa = cfg_.isa;
    const size_t begin = chunk * cfg_.chunk_tuples;
    const size_t sz = std::min(cfg_.chunk_tuples, n_ - begin);
    const compress::CompressedColumn* pred_col =
        filter_on_vals_ ? vals_ : keys_;
    const int pc = filter_on_vals_ ? 1 : 0;  // predicate chunk column
    const int oc = filter_on_vals_ ? 0 : 1;  // carried chunk column
    const int pred_which = filter_on_vals_ ? 1 : 0;
    const size_t end = begin + sz;
    size_t cnt = 0;  // compact-mode output cursor
    for (size_t pos = begin; pos < end;) {
      const size_t b = pos / compress::kBlockTuples;
      const size_t block_base = b * compress::kBlockTuples;
      const size_t block_rows = pred_col->block_rows(b);
      const size_t off = pos - block_base;       // into the block
      const size_t take = std::min(end, block_base + block_rows) - pos;
      const bool whole_block = take == block_rows;
      const compress::BlockMeta& m = pred_col->block_meta(b);
      const compress::BlockClass cls = compress::ClassifyBlock(m, lo_, hi_);
      if (mode_ == ScanMode::kCompact) {
        if (cls == compress::BlockClass::kSkip) {
          compress::BlocksSkipped().Add(1);
        } else if (cls == compress::BlockClass::kAllPass) {
          compress::BlocksAllPass().Add(1);
          // Every value qualifies: decode becomes the emit, no per-value
          // predicate evaluation. A whole in-chunk block decodes straight
          // into the output columns (the PackedCapacity overshoot lands in
          // the chunk slack); partial overlaps go through the block cache.
          if (whole_block) {
            keys_->DecodeBlock(isa, b, out.col(0) + cnt,
                               ChunkCapacity(out.capacity()) - cnt);
            vals_->DecodeBlock(isa, b, out.col(1) + cnt,
                               ChunkCapacity(out.capacity()) - cnt);
          } else {
            std::memcpy(out.col(0) + cnt, Decoded(l, 0, b, isa) + off,
                        take * sizeof(uint32_t));
            std::memcpy(out.col(1) + cnt, Decoded(l, 1, b, isa) + off,
                        take * sizeof(uint32_t));
          }
          cnt += take;
        } else {
          // Mixed block: range-scan the just-unpacked slice with the same
          // kernel ScanOp uses, appending at the output cursor (input
          // order is preserved, so the chunk matches the raw scan's).
          const uint32_t* p = Decoded(l, pred_which, b, isa) + off;
          const uint32_t* o = Decoded(l, 1 - pred_which, b, isa) + off;
          cnt += SelectionScan(ScanVariantForIsa(isa), p, o, take, lo_,
                               hi_, out.col(pc) + cnt, out.col(oc) + cnt,
                               ChunkCapacity(out.capacity()) - cnt);
        }
      } else {
        // Bitmap mode keeps chunk-relative positions, so every piece lands
        // at its morsel offset and one predicate pass runs over the chunk
        // exactly as in ScanOp.
        const size_t dst = pos - begin;
        if (cls == compress::BlockClass::kSkip) {
          compress::BlocksSkipped().Add(1);
          // Never decode: fill the predicate column with a value from the
          // block's own domain that fails the predicate (its zone-map
          // bound on the failing side). The carried column stays
          // untouched — bits are never set over this piece, and inactive
          // positions are dead by the bitmap contract.
          const uint32_t fail = m.max < lo_ ? m.max : m.min;
          uint32_t* d = out.col(pc) + dst;
          for (size_t i = 0; i < take; ++i) d[i] = fail;
          pos += take;
          continue;
        }
        if (cls == compress::BlockClass::kAllPass) {
          compress::BlocksAllPass().Add(1);
        }
        if (whole_block) {
          keys_->DecodeBlock(isa, b, out.col(0) + dst,
                             ChunkCapacity(out.capacity()) - dst);
          vals_->DecodeBlock(isa, b, out.col(1) + dst,
                             ChunkCapacity(out.capacity()) - dst);
        } else {
          std::memcpy(out.col(0) + dst, Decoded(l, 0, b, isa) + off,
                      take * sizeof(uint32_t));
          std::memcpy(out.col(1) + dst, Decoded(l, 1, b, isa) + off,
                      take * sizeof(uint32_t));
        }
      }
      pos += take;
    }
    if (mode_ == ScanMode::kCompact) {
      out.SetDense(cnt);
    } else {
      const size_t set =
          RangePredicateBitmap(isa, out.col(pc), sz, lo_, hi_, out.bitmap());
      out.SetBitmap(sz, set);
    }
    out.set_seq(chunk);
  }
  PushNext(out, lane);
}

// ---------------------------------------------------------------------------
// MaterializeOp
// ---------------------------------------------------------------------------

void MaterializeOp::Push(Chunk& c, int lane) {
  {
    PhaseScope t(g_materialize_ns, timed_);
    c.Compact(cfg_.isa);
  }
  PushNext(c, lane);
}

// ---------------------------------------------------------------------------
// HashBuildOp
// ---------------------------------------------------------------------------

HashBuildOp::HashBuildOp(int bloom_bits_per_key, int bloom_k)
    : bloom_bits_per_key_(bloom_bits_per_key), bloom_k_(bloom_k) {}

void HashBuildOp::Open(const ExecConfig& cfg, int lanes,
                       size_t n_source_chunks) {
  Operator::Open(cfg, lanes, n_source_chunks);
  slot_cap_ = cfg.chunk_tuples;
  const size_t total = ChunkCapacity(n_source_chunks * slot_cap_);
  mat_keys_.Reset(total);
  mat_pays_.Reset(total);
  numa::PlaceBuffer(mat_keys_.data(), total * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  numa::PlaceBuffer(mat_pays_.data(), total * sizeof(uint32_t), cfg.threads,
                    cfg.placement);
  slots_.assign(n_source_chunks, Slot{});
  n_build_ = 0;
  pay_min_ = 0xFFFFFFFFu;
  pay_max_ = 0;
  direct_.reset();
  table_.reset();
  bloom_.reset();
}

void HashBuildOp::Push(Chunk& c, int lane) {
  (void)lane;
  PhaseScope t(g_build_ns, timed_);
  c.Compact(cfg_.isa);
  const size_t cnt = c.size();
  assert(c.seq() < slots_.size() && cnt <= slot_cap_);
  // Chunks slot by seq, not by lane: disjoint ranges, no synchronization,
  // and a materialization order that never depends on stealing.
  std::memcpy(mat_keys_.data() + c.seq() * slot_cap_, c.col(0),
              cnt * sizeof(uint32_t));
  std::memcpy(mat_pays_.data() + c.seq() * slot_cap_, c.col(1),
              cnt * sizeof(uint32_t));
  Slot& slot = slots_[c.seq()];
  slot.rows = cnt;
  slot.keys = ColumnMinMax(cfg_.isa, c.col(0), cnt);
  slot.pays = ColumnMinMax(cfg_.isa, c.col(1), cnt);
  CountRows(cnt);
}

void HashBuildOp::Finish() {
  PhaseScope t(g_build_ns, timed_);
  size_t out = 0;
  uint32_t key_min = 0xFFFFFFFFu;
  uint32_t key_max = 0;
  for (size_t m = 0; m < slots_.size(); ++m) {
    const Slot& slot = slots_[m];
    const size_t cnt = slot.rows;
    const size_t src = m * slot_cap_;
    if (cnt != 0 && out != src) {
      std::memmove(mat_keys_.data() + out, mat_keys_.data() + src,
                   cnt * sizeof(uint32_t));
      std::memmove(mat_pays_.data() + out, mat_pays_.data() + src,
                   cnt * sizeof(uint32_t));
    }
    out += cnt;
    key_min = std::min(key_min, slot.keys.min);
    key_max = std::max(key_max, slot.keys.max);
    pay_min_ = std::min(pay_min_, slot.pays.min);
    pay_max_ = std::max(pay_max_, slot.pays.max);
  }
  n_build_ = out;
  if (key_max == kEmptyKey) throw QueryError(ReservedValueError("keys"));
  if (pay_max_ == kEmptyKey) {
    throw QueryError(ReservedValueError("group attributes"));
  }
  // Load factor <= 50%, and at least one empty bucket even when empty.
  size_t buckets = 16;
  while (buckets < 2 * (n_build_ + 1)) buckets <<= 1;
  bool unique;
  if (DirectJoinTable::Fits(key_min, key_max, buckets)) {
    // The key range ends below kEmptyKey (checked above), so the domain
    // fits the kernels' 32-bit compare. One serial pass on every lane
    // count: a split into slot ranges costs each task a scan of every key.
    const size_t width = size_t{key_max} - key_min + 1;
    direct_ = std::make_unique<DirectJoinTable>(key_min, width);
    numa::PlaceBuffer(const_cast<uint32_t*>(direct_->slots()),
                      width * sizeof(uint32_t), cfg_.threads,
                      numa::Placement::kInterleaved);
    unique = direct_->Build(mat_keys_.data(), mat_pays_.data(), n_build_);
  } else {
    table_ = std::make_unique<LinearProbingTable>(buckets, cfg_.seed);
    numa::PlaceBuffer(const_cast<uint32_t*>(table_->bucket_keys()),
                      buckets * sizeof(uint32_t), cfg_.threads,
                      numa::Placement::kInterleaved);
    numa::PlaceBuffer(const_cast<uint32_t*>(table_->bucket_pays()),
                      buckets * sizeof(uint32_t), cfg_.threads,
                      numa::Placement::kInterleaved);
    // The scalar walk on every ISA (Alg. 7's vector build is slower at both
    // executor table sizes), split into home-bucket ranges when more than
    // one lane can work on it.
    const int lanes = TaskPool::LaneCount(n_build_, cfg_.threads);
    table_->BuildPartitioned(
        cfg_.isa, mat_keys_.data(), mat_pays_.data(), n_build_, cfg_.threads,
        LinearProbingTable::BuildPartitions(buckets, lanes));
    unique = table_->unique_keys();
  }
  if (!unique) {
    throw QueryError(RepeatedBuildKeyError(mat_keys_.data(), n_build_));
  }
  if (bloom_bits_per_key_ > 0 && n_build_ > 0) {
    bloom_ = std::make_unique<BloomFilter>(BloomFilter::ForItems(
        n_build_, bloom_bits_per_key_, bloom_k_, cfg_.seed));
    numa::PlaceBuffer(const_cast<uint32_t*>(bloom_->words()),
                      (bloom_->n_bits() / 8), cfg_.threads,
                      numa::Placement::kInterleaved);
    bloom_->Add(mat_keys_.data(), n_build_);
  }
}

size_t HashBuildOp::Probe(Isa isa, const uint32_t* keys, const uint32_t* pays,
                          size_t n, uint32_t* out_keys, uint32_t* out_spays,
                          uint32_t* out_rpays) const {
  if (direct_ != nullptr) {
    return direct_->Probe(isa, keys, pays, n, out_keys, out_spays, out_rpays);
  }
  assert(table_ != nullptr && "probe ran before the build broke");
  return table_->Probe(isa, keys, pays, n, out_keys, out_spays, out_rpays);
}

// ---------------------------------------------------------------------------
// BloomProbeOp
// ---------------------------------------------------------------------------

void BloomProbeOp::Open(const ExecConfig& cfg, int lanes,
                        size_t n_source_chunks) {
  Operator::Open(cfg, lanes, n_source_chunks);
  ResetLaneChunks(out_, lanes, cfg.chunk_tuples, 2);
}

void BloomProbeOp::Push(Chunk& c, int lane) {
  const BloomFilter* f = build_->bloom();
  if (f == nullptr) {  // empty build side never makes a filter
    PushNext(c, lane);
    return;
  }
  Chunk& out = *out_[static_cast<size_t>(lane)];
  {
    PhaseScope t(g_bloom_ns, timed_);
    c.Compact(cfg_.isa);
    const size_t cnt = f->Probe(cfg_.isa, c.col(0), c.col(1), c.size(),
                                out.col(0), out.col(1));
    out.SetDense(cnt);
    out.set_seq(c.seq());
  }
  PushNext(out, lane);
}

// ---------------------------------------------------------------------------
// HashJoinProbeOp
// ---------------------------------------------------------------------------

void HashJoinProbeOp::Open(const ExecConfig& cfg, int lanes,
                           size_t n_source_chunks) {
  Operator::Open(cfg, lanes, n_source_chunks);
  ResetLaneChunks(out_, lanes, cfg.chunk_tuples, 3);
}

void HashJoinProbeOp::Push(Chunk& c, int lane) {
  Chunk& out = *out_[static_cast<size_t>(lane)];
  {
    PhaseScope t(g_probe_ns, timed_);
    c.Compact(cfg_.isa);
    // At most one match per row fits the output chunk; HashBuildOp::Finish
    // refuses tables with repeated keys.
    const size_t cnt = build_->Probe(cfg_.isa, c.col(0), c.col(1), c.size(),
                                     out.col(0), out.col(1), out.col(2));
    assert(cnt <= ChunkCapacity(out.capacity()));
    out.SetDense(cnt);
    out.set_seq(c.seq());
  }
  PushNext(out, lane);
}

// ---------------------------------------------------------------------------
// GroupBySink
// ---------------------------------------------------------------------------

GroupBySink::GroupBySink(const HashBuildOp* build, int key_col, int val_col)
    : build_(build), key_col_(key_col), val_col_(val_col) {}

void GroupBySink::Open(const ExecConfig& cfg, int lanes,
                       size_t n_source_chunks) {
  Operator::Open(cfg, lanes, n_source_chunks);
  state_.Open(cfg, lanes, build_->pay_min(), build_->pay_max());
  keys_.clear();
  sums_.clear();
  counts_.clear();
  mins_.clear();
  maxs_.clear();
}

void GroupBySink::Push(Chunk& c, int lane) {
  PhaseScope t(g_groupby_ns, timed_);
  assert(key_col_ < c.n_cols() && val_col_ < c.n_cols());
  c.Compact(cfg_.isa);
  state_.Fold(lane, c.col(key_col_), c.col(val_col_), c.size());
  CountRows(c.size());
}

void GroupBySink::Finish() {
  PhaseScope t(g_groupby_ns, timed_);
  state_.Finish(&keys_, &sums_, &counts_, &mins_, &maxs_);
}

// ---------------------------------------------------------------------------
// GroupByState
// ---------------------------------------------------------------------------

void GroupByState::Open(const ExecConfig& cfg, int lanes, uint32_t key_min,
                        uint32_t key_max) {
  isa_ = cfg.isa;
  direct_.clear();
  hashed_.clear();
  // In 64 bits: [0, 0xFFFFFFFF] has 2^32 values.
  const uint64_t width =
      key_min > key_max ? 0 : uint64_t{key_max} - key_min + 1;
  if (width <= kMaxDirectKeys) {
    direct_.reserve(static_cast<size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      direct_.emplace_back(key_min, static_cast<size_t>(width));
    }
    return;
  }
  hashed_.resize(static_cast<size_t>(lanes));
  for (auto& p : hashed_) {
    p = std::make_unique<GroupByAggregator>(kInitialHashGroups, cfg.seed);
  }
}

void GroupByState::Fold(int lane, const uint32_t* keys, const uint32_t* vals,
                        size_t n) {
  if (direct()) {
    direct_[static_cast<size_t>(lane)].Accumulate(keys, vals, n);
  } else {
    hashed_[static_cast<size_t>(lane)]->Accumulate(isa_, keys, vals, n);
  }
}

void GroupByState::Finish(std::vector<uint32_t>* keys,
                          std::vector<uint64_t>* sums,
                          std::vector<uint32_t>* counts,
                          std::vector<uint32_t>* mins,
                          std::vector<uint32_t>* maxs) {
  if (direct()) {
    // Direct partials merge lane by lane and extract in ascending key
    // order: nothing to sort.
    DirectGroupBy& total = direct_[0];
    for (size_t l = 1; l < direct_.size(); ++l) total.MergeFrom(direct_[l]);
    const size_t g = total.num_groups();
    keys->resize(g);
    sums->resize(g);
    counts->resize(g);
    mins->resize(g);
    maxs->resize(g);
    total.Extract(keys->data(), sums->data(), counts->data(), mins->data(),
                  maxs->data());
    return;
  }
  assert(!hashed_.empty());
  GroupByAggregator& total = *hashed_[0];
  for (size_t l = 1; l < hashed_.size(); ++l) total.MergeFrom(*hashed_[l]);
  const size_t g = total.num_groups();
  std::vector<uint32_t> k(g), cnt(g), mn(g), mx(g);
  std::vector<uint64_t> sm(g);
  total.Extract(isa_, k.data(), sm.data(), cnt.data(), mn.data(), mx.data());
  // Canonical result order: ascending key. Extract order follows table
  // insertion order, which varies across thread counts and ISAs; the sort
  // restores byte-identity (keys are unique).
  std::vector<uint32_t> perm(g);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&](uint32_t a, uint32_t b) { return k[a] < k[b]; });
  keys->resize(g);
  sums->resize(g);
  counts->resize(g);
  mins->resize(g);
  maxs->resize(g);
  for (size_t i = 0; i < g; ++i) {
    (*keys)[i] = k[perm[i]];
    (*sums)[i] = sm[perm[i]];
    (*counts)[i] = cnt[perm[i]];
    (*mins)[i] = mn[perm[i]];
    (*maxs)[i] = mx[perm[i]];
  }
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

void Pipeline::Run(const ExecConfig& cfg) {
  assert(!ops_.empty());
  g_pipelines_dynamic.Add(1);
  Operator* src = ops_.front();
  const size_t n_chunks = src->SourceChunks(cfg);
  int lanes = TaskPool::LaneCount(n_chunks, cfg.threads);
  if (lanes < 1) lanes = 1;
  for (size_t i = 0; i + 1 < ops_.size(); ++i) ops_[i]->set_next(ops_[i + 1]);
  ops_.back()->set_next(nullptr);
  src->OpenSource(cfg, lanes);
  for (size_t i = 1; i < ops_.size(); ++i) ops_[i]->Open(cfg, lanes, n_chunks);
  if (n_chunks > 0) {
    TaskPool::Get().ParallelFor(
        n_chunks, cfg.threads,
        [&](int worker, size_t chunk) { src->Produce(chunk, worker); });
  }
  // Sources buffer nothing, so only the operators after the source finish.
  for (size_t i = 1; i < ops_.size(); ++i) ops_[i]->Finish();
}

}  // namespace simddb::exec
