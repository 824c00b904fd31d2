#include "exec/chunk.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace simddb::exec {
namespace {

obs::Counter g_bitmap_to_sel("bitmap_to_sel");
obs::Counter g_sel_to_bitmap("sel_to_bitmap");

}  // namespace

size_t BitmapToSelection(Isa isa, const uint64_t* bitmap, size_t n,
                         uint32_t* sel) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::BitmapToSelectionAvx512(bitmap, n, sel);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::BitmapToSelectionAvx2(bitmap, n, sel);
  }
  return detail::BitmapToSelectionScalar(bitmap, n, sel);
}

void SelectionToBitmap(const uint32_t* sel, size_t count, size_t n,
                       uint64_t* bitmap) {
  std::memset(bitmap, 0, ChunkBitmapWords(n) * sizeof(uint64_t));
  for (size_t i = 0; i < count; ++i) {
    assert(sel[i] < n);
    bitmap[sel[i] >> 6] |= uint64_t{1} << (sel[i] & 63);
  }
}

size_t RangePredicateBitmap(Isa isa, const uint32_t* keys, size_t n,
                            uint32_t lo, uint32_t hi, uint64_t* bitmap) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::RangePredicateBitmapAvx512(keys, n, lo, hi, bitmap);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::RangePredicateBitmapAvx2(keys, n, lo, hi, bitmap);
  }
  return detail::RangePredicateBitmapScalar(keys, n, lo, hi, bitmap);
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

size_t BitmapToSelectionScalar(const uint64_t* bitmap, size_t n,
                               uint32_t* sel) {
  size_t cnt = 0;
  const size_t words = ChunkBitmapWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    const uint32_t base = static_cast<uint32_t>(w << 6);
    while (bits != 0) {
      sel[cnt++] = base + static_cast<uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
  return cnt;
}

size_t RangePredicateBitmapScalar(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap) {
  const size_t words = ChunkBitmapWords(n);
  std::memset(bitmap, 0, words * sizeof(uint64_t));
  size_t cnt = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = keys[i];
    const uint64_t q =
        static_cast<uint64_t>(k >= lo) & static_cast<uint64_t>(k <= hi);
    bitmap[i >> 6] |= q << (i & 63);
    cnt += q;
  }
  return cnt;
}

}  // namespace detail

void Chunk::Reset(size_t capacity, int n_cols) {
  assert(n_cols >= 1 && n_cols <= kMaxColumns);
  capacity_ = capacity;
  n_cols_ = n_cols;
  for (int c = 0; c < n_cols; ++c) cols_[c].Reset(ChunkCapacity(capacity));
  sel_.Reset(ChunkCapacity(capacity));
  bitmap_.Reset(ChunkBitmapWords(capacity));
  size_ = 0;
  active_ = 0;
  kind_ = SelKind::kDense;
  seq_ = 0;
}

void Chunk::MaterializeSelection(Isa isa) {
  if (kind_ != SelKind::kBitmap) return;
  const size_t cnt = BitmapToSelection(isa, bitmap_.data(), size_, sel_.data());
  assert(cnt == active_);
  g_bitmap_to_sel.Add(1);
  active_ = cnt;
  kind_ = SelKind::kSelection;
}

void Chunk::MaterializeBitmap(Isa isa) {
  (void)isa;
  if (kind_ == SelKind::kBitmap) return;
  if (kind_ == SelKind::kDense) {
    // All-ones prefix: full words then a partial tail word.
    const size_t words = ChunkBitmapWords(size_);
    for (size_t w = 0; w < words; ++w) bitmap_[w] = ~uint64_t{0};
    if (size_ & 63) {
      bitmap_[words - 1] = (uint64_t{1} << (size_ & 63)) - 1;
    }
    active_ = size_;
  } else {
    SelectionToBitmap(sel_.data(), active_, size_, bitmap_.data());
  }
  g_sel_to_bitmap.Add(1);
  kind_ = SelKind::kBitmap;
}

void Chunk::Compact(Isa isa) {
  if (kind_ == SelKind::kDense) return;
  MaterializeSelection(isa);
  const size_t cnt = active_;
  for (int c = 0; c < n_cols_; ++c) {
    uint32_t* col = cols_[c].data();
    // Forward in-place gather; sel is ascending so sel[j] >= j and the
    // write at j never clobbers an unread source.
    for (size_t j = 0; j < cnt; ++j) col[j] = col[sel_[j]];
  }
  SetDense(cnt);
}

}  // namespace simddb::exec
