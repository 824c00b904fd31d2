#ifndef SIMDDB_EXEC_CHUNK_H_
#define SIMDDB_EXEC_CHUNK_H_

// Fixed-capacity column chunk — the unit of data flow in the push-based
// execution subsystem (src/exec/). A chunk carries up to kMaxColumns 32-bit
// columns (column 0 is the key by convention) plus one of three tuple-
// visibility representations, the selection-vector/bitmap duality of
// TPL-style vectorized engines:
//
//   kDense      every tuple in [0, size) is active (the common case after a
//               compacting operator — selection scan, bloom probe, join).
//   kSelection  a dense ascending vector of active tuple indexes; the
//               representation SIMD gathers want.
//   kBitmap     one bit per tuple; the representation SIMD predicates
//               produce for free (AVX-512 compare masks concatenate into
//               bitmap words with no extra work).
//
// Converters between the two sparse forms are SIMD-dispatched:
// bitmap -> selection uses positional population counts over 8-word blocks
// to precompute per-word output offsets ("Faster Positional Population
// Counts", PAPERS.md) followed by per-16-bit-group compressed index stores
// (AVX-512 vcompressstoreu; AVX2 uses the App. D permutation-table
// selective store; scalar isolates bits with k &= k - 1). The offsets form
// a prefix sum ("Parallel Prefix Sum with SIMD"), so the groups of a block
// are independent — the structure a future multi-lane conversion needs.
// selection -> bitmap is a scalar bit-set loop on every backend (the word
// accumulation is limited by store-to-load forwarding, not ALU width).
//
// Capacity contract (centralized, mirroring ShuffleCapacity /
// SelectionScanCapacity): every column and the selection vector of a chunk
// sized for n tuples must hold ChunkCapacity(n) elements, because the
// vector scan/probe kernels that fill chunks may overshoot their returned
// count by up to one 16-lane vector. Chunk::Reset allocates to this
// contract; operator entry points assert it.

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "util/aligned_buffer.h"

namespace simddb::exec {

/// Default tuples per chunk: L1-resident working set for a key column plus
/// a few payload columns, and a multiple of 64 so bitmap words never span
/// chunk boundaries.
inline constexpr size_t kDefaultChunkTuples = 1024;

/// Slack every chunk column carries beyond its tuple capacity: one 16-lane
/// vector of overshoot, the same contract as kShuffleSlackTuples and
/// kSelectionScanPad (the kernels that fill chunks are the same kernels).
inline constexpr size_t kChunkSlackTuples = 16;

/// Elements every column / selection-vector buffer of an n-tuple chunk
/// must hold.
inline constexpr size_t ChunkCapacity(size_t n) {
  return n + kChunkSlackTuples;
}

/// 64-bit words covering an n-tuple bitmap.
inline constexpr size_t ChunkBitmapWords(size_t n) { return (n + 63) / 64; }

/// Tuple-visibility representation carried by a chunk (see file comment).
enum class SelKind { kDense, kSelection, kBitmap };

// ---------------------------------------------------------------------------
// Free column kernels (ISA-dispatched; also the test/bench surface)
// ---------------------------------------------------------------------------

/// Materializes the set bits of bitmap[0 .. ChunkBitmapWords(n)) as an
/// ascending index vector in sel; returns the index count. Bits at
/// positions >= n must be zero. `sel` needs ChunkCapacity(n) elements (the
/// AVX2 kernel stores full 8-lane vectors and advances by popcount).
size_t BitmapToSelection(Isa isa, const uint64_t* bitmap, size_t n,
                         uint32_t* sel);

/// Sets bit sel[i] for i in [0, count) in bitmap[0 .. ChunkBitmapWords(n)),
/// zeroing the rest. Indexes must be ascending and < n.
void SelectionToBitmap(const uint32_t* sel, size_t count, size_t n,
                       uint64_t* bitmap);

/// Evaluates lo <= keys[i] <= hi (inclusive, unsigned) into a bitmap and
/// returns the number of set bits. Bits >= n are zeroed.
size_t RangePredicateBitmap(Isa isa, const uint32_t* keys, size_t n,
                            uint32_t lo, uint32_t hi, uint64_t* bitmap);

/// Smallest and largest value of a column; min > max when it is empty.
struct ColumnRange {
  uint32_t min = 0xFFFFFFFFu;
  uint32_t max = 0;
};

/// The unsigned range of vals[0 .. n).
ColumnRange ColumnMinMax(Isa isa, const uint32_t* vals, size_t n);

namespace detail {
size_t BitmapToSelectionScalar(const uint64_t* bitmap, size_t n,
                               uint32_t* sel);
size_t RangePredicateBitmapScalar(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap);
ColumnRange ColumnMinMaxScalar(const uint32_t* vals, size_t n);
// Backend TUs (chunk_avx2.cc / chunk_avx512.cc).
size_t BitmapToSelectionAvx2(const uint64_t* bitmap, size_t n, uint32_t* sel);
size_t RangePredicateBitmapAvx2(const uint32_t* keys, size_t n, uint32_t lo,
                                uint32_t hi, uint64_t* bitmap);
ColumnRange ColumnMinMaxAvx2(const uint32_t* vals, size_t n);
size_t BitmapToSelectionAvx512(const uint64_t* bitmap, size_t n,
                               uint32_t* sel);
size_t RangePredicateBitmapAvx512(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap);
ColumnRange ColumnMinMaxAvx512(const uint32_t* vals, size_t n);
}  // namespace detail

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

/// A fixed-capacity chunk of up to kMaxColumns 32-bit columns with a
/// selection-vector/bitmap visibility state. Owns its storage; operators
/// keep one per worker lane and recycle it across pushes.
class Chunk {
 public:
  static constexpr int kMaxColumns = 4;

  Chunk() = default;
  Chunk(size_t capacity, int n_cols) { Reset(capacity, n_cols); }

  /// (Re)allocates for `capacity` tuples and `n_cols` columns (1 ..
  /// kMaxColumns). Columns and the selection vector get ChunkCapacity(
  /// capacity) elements — the centralized scratch contract every filling
  /// kernel assumes. Size is reset to 0 (dense).
  void Reset(size_t capacity, int n_cols);

  size_t capacity() const { return capacity_; }
  int n_cols() const { return n_cols_; }

  /// Tuples physically present in the columns (the dense extent).
  size_t size() const { return size_; }

  /// Active tuples under the current visibility representation.
  size_t active() const {
    return kind_ == SelKind::kDense ? size_ : active_;
  }

  SelKind kind() const { return kind_; }

  uint32_t* col(int c) {
    assert(c >= 0 && c < n_cols_);
    return cols_[c].data();
  }
  const uint32_t* col(int c) const {
    assert(c >= 0 && c < n_cols_);
    return cols_[c].data();
  }

  uint32_t* sel() { return sel_.data(); }
  const uint32_t* sel() const { return sel_.data(); }
  uint64_t* bitmap() { return bitmap_.data(); }
  const uint64_t* bitmap() const { return bitmap_.data(); }

  /// Ordinal of this chunk in its source's deterministic grid; sinks that
  /// are order-sensitive (hash-build materialization) slot by it so results
  /// never depend on which lane carried the chunk.
  uint64_t seq() const { return seq_; }
  void set_seq(uint64_t s) { seq_ = s; }

  /// All n tuples active (n <= capacity()).
  void SetDense(size_t n) {
    assert(n <= capacity_);
    size_ = n;
    active_ = n;
    kind_ = SelKind::kDense;
  }

  /// sel()[0, count) holds the ascending active indexes over a dense extent
  /// of n tuples.
  void SetSelection(size_t n, size_t count) {
    assert(n <= capacity_ && count <= n);
    size_ = n;
    active_ = count;
    kind_ = SelKind::kSelection;
  }

  /// bitmap() covers a dense extent of n tuples with `count` set bits.
  void SetBitmap(size_t n, size_t count) {
    assert(n <= capacity_ && count <= n);
    size_ = n;
    active_ = count;
    kind_ = SelKind::kBitmap;
  }

  /// kBitmap -> kSelection via the SIMD converter (counts the obs
  /// `bitmap_to_sel` conversion). No-op for the other kinds.
  void MaterializeSelection(Isa isa);

  /// kSelection -> kBitmap (counts `sel_to_bitmap`). kDense also
  /// materializes (an all-ones bitmap). No-op when already a bitmap.
  void MaterializeBitmap(Isa isa);

  /// Physically compacts the active tuples of every column to the front and
  /// switches to kDense. Converts a bitmap to a selection vector first.
  /// The in-place column gather is safe because selection indexes are
  /// ascending: destination j never passes source sel[j] >= j.
  void Compact(Isa isa);

 private:
  AlignedBuffer<uint32_t> cols_[kMaxColumns];
  AlignedBuffer<uint32_t> sel_;
  AlignedBuffer<uint64_t> bitmap_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t active_ = 0;
  int n_cols_ = 0;
  SelKind kind_ = SelKind::kDense;
  uint64_t seq_ = 0;
};

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_CHUNK_H_
