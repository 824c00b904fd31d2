#include "exec/pipeline.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "compress/column.h"
#include "util/task_pool.h"

namespace simddb::exec {
namespace {

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

// Buckets of the LinearProbingTable for an n-row build side: load factor
// <= 50%, and at least one empty bucket even when empty. Also the size a
// direct-indexed table may not outgrow (DirectJoinTable::Fits).
size_t JoinBuckets(size_t n) {
  size_t buckets = 16;
  while (buckets < 2 * (n + 1)) buckets <<= 1;
  return buckets;
}

// Adds the present slots of slots[0 .. n) to *rows and *pays.
void SummarizeSlots(const uint32_t* slots, size_t n, size_t* rows,
                    ColumnRange* pays) {
  for (size_t i = 0; i < n; ++i) {
    if (slots[i] == kEmptyKey) continue;
    ++*rows;
    pays->min = std::min(pays->min, slots[i]);
    pays->max = std::max(pays->max, slots[i]);
  }
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

ColumnRange ColumnMinMax(Isa isa, const uint32_t* vals, size_t n) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::ColumnMinMaxAvx512(vals, n);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::ColumnMinMaxAvx2(vals, n);
  }
  return detail::ColumnMinMaxScalar(vals, n);
}

namespace detail {

ColumnRange ColumnMinMaxScalar(const uint32_t* vals, size_t n) {
  ColumnRange r;
  for (size_t i = 0; i < n; ++i) {
    r.min = std::min(r.min, vals[i]);
    r.max = std::max(r.max, vals[i]);
  }
  return r;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// JoinIndex
// ---------------------------------------------------------------------------

std::unique_ptr<JoinIndex> JoinIndex::Build(
    Isa isa, const uint32_t* keys, const uint32_t* attrs, size_t n,
    const compress::CompressedColumn* keys_c) {
  if (n == 0) return nullptr;
  ColumnRange k;
  if (keys_c != nullptr) {
    assert(keys_c->size() == n);
    for (size_t b = 0; b < keys_c->num_blocks(); ++b) {
      k.min = std::min(k.min, keys_c->block_meta(b).min);
      k.max = std::max(k.max, keys_c->block_meta(b).max);
    }
  } else {
    k = ColumnMinMax(isa, keys, n);
  }
  if (k.max == kEmptyKey) return nullptr;
  const uint64_t width = uint64_t{k.max} - k.min + 1;
  // Fewer key-range values than rows: some key repeats.
  if (width < n || width > 2 * uint64_t{n} ||
      !DirectJoinTable::Fits(k.min, k.max, JoinBuckets(n))) {
    return nullptr;
  }
  if (ColumnMinMax(isa, attrs, n).max == kEmptyKey) return nullptr;
  DirectJoinTable table(k.min, static_cast<size_t>(width));
  if (!table.Build(keys, attrs, n)) return nullptr;
  std::unique_ptr<JoinIndex> index(new JoinIndex(std::move(table)));
  const uint32_t* slots = index->table_.slots();
  const size_t w = index->table_.width();
  index->blocks_.resize((w + kBlockSlots - 1) / kBlockSlots);
  for (size_t b = 0; b < index->blocks_.size(); ++b) {
    Block& block = index->blocks_[b];
    size_t rows = 0;
    const size_t first = b * kBlockSlots;
    SummarizeSlots(slots + first, std::min(kBlockSlots, w - first), &rows,
                   &block.pays);
    block.rows = static_cast<uint32_t>(rows);
  }
  return index;
}

size_t JoinIndex::bytes() const {
  return table_.width() * sizeof(uint32_t) + blocks_.size() * sizeof(Block);
}

// Whole blocks inside the window read their summary; the at most two
// partial blocks at its edges scan their slots.
JoinIndex::Summary JoinIndex::Summarize(uint32_t lo, uint32_t hi) const {
  assert(key_min() <= lo && lo <= hi && hi <= key_max());
  const uint32_t* slots = table_.slots();
  const size_t width = table_.width();
  const size_t last = hi - key_min();
  Summary s;
  for (size_t i = lo - key_min(); i <= last;) {
    const size_t b = i / kBlockSlots;
    const size_t block_end = std::min((b + 1) * kBlockSlots, width);
    const size_t end = std::min(block_end, last + 1);
    if (i == b * kBlockSlots && end == block_end) {
      s.rows += blocks_[b].rows;
      s.pays.min = std::min(s.pays.min, blocks_[b].pays.min);
      s.pays.max = std::max(s.pays.max, blocks_[b].pays.max);
    } else {
      SummarizeSlots(slots + i, end - i, &s.rows, &s.pays);
    }
    i = end;
  }
  return s;
}

// ---------------------------------------------------------------------------
// HashBuildOp
// ---------------------------------------------------------------------------

void HashBuildOp::Open(const ExecConfig& cfg, int lanes, size_t n_chunks) {
  (void)lanes;
  cfg_ = cfg;
  slot_cap_ = cfg.chunk_tuples;
  const size_t total = ChunkCapacity(n_chunks * slot_cap_);
  mat_keys_.Reset(total);
  mat_pays_.Reset(total);
  slots_.assign(n_chunks, Slot{});
  n_build_ = 0;
  pay_min_ = 0xFFFFFFFFu;
  pay_max_ = 0;
  borrowed_ = false;
  direct_.reset();
  table_.reset();
}

void HashBuildOp::Consume(const FusedBatch& in, int lane) {
  (void)lane;
  assert(in.seq < slots_.size() && in.n <= slot_cap_);
  // Chunks slot by ordinal, not by lane: disjoint ranges, no
  // synchronization, and a staging order that never depends on stealing.
  std::memcpy(mat_keys_.data() + in.seq * slot_cap_, in.col[0],
              in.n * sizeof(uint32_t));
  std::memcpy(mat_pays_.data() + in.seq * slot_cap_, in.col[1],
              in.n * sizeof(uint32_t));
  Slot& slot = slots_[in.seq];
  slot.rows = in.n;
  slot.keys = ColumnMinMax(cfg_.isa, in.col[0], in.n);
  slot.pays = ColumnMinMax(cfg_.isa, in.col[1], in.n);
}

void HashBuildOp::Finish() {
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
  const size_t buckets = JoinBuckets(n_build_);
  bool unique;
  if (DirectJoinTable::Fits(key_min, key_max, buckets)) {
    // The key range ends below kEmptyKey (checked above), so the domain
    // fits the kernels' 32-bit compare. One serial pass on every lane
    // count: a split into slot ranges costs each task a scan of every key.
    const size_t width = size_t{key_max} - key_min + 1;
    direct_ = std::make_unique<DirectJoinTable>(key_min, width);
    unique = direct_->Build(mat_keys_.data(), mat_pays_.data(), n_build_);
  } else {
    table_ = std::make_unique<LinearProbingTable>(buckets);
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
}

void HashBuildOp::Borrow(const ExecConfig& cfg, const JoinIndex& index,
                         uint32_t lo, uint32_t hi) {
  lo = std::max(lo, index.key_min());
  hi = std::min(hi, index.key_max());
  const JoinIndex::Summary s =
      lo <= hi ? index.Summarize(lo, hi) : JoinIndex::Summary{};
  if (s.rows == 0) {
    Open(cfg, 1, 0);
    Finish();
  } else {
    cfg_ = cfg;
    n_build_ = s.rows;
    pay_min_ = s.pays.min;
    pay_max_ = s.pays.max;
    table_.reset();
    direct_ = std::make_unique<DirectJoinTable>(
        DirectJoinTable::Window(index.table(), lo, hi));
  }
  borrowed_ = true;
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
    p = std::make_unique<GroupByAggregator>(kInitialHashGroups);
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

}  // namespace simddb::exec
