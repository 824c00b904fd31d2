#ifndef SIMDDB_COMPRESS_COLUMN_H_
#define SIMDDB_COMPRESS_COLUMN_H_

// Block-compressed 32-bit columns: frame-of-reference + bit-packing with
// optional per-block delta coding, the storage side of scan-over-compressed.
//
// A CompressedColumn holds ceil(n / kBlockTuples) fixed 1024-value blocks.
// CompressColumn picks each block's encoding independently:
//
//   kFor       values stored as (v - min) at BitsFor(max - min) bits — the
//              frame-of-reference form; clustered value ranges (a day of
//              timestamps, a tenant's ids) pack to a few bits regardless of
//              their absolute magnitude.
//   kDeltaFor  for non-decreasing blocks (sorted keys, ramps): consecutive
//              differences at BitsFor(max delta) bits with the block's
//              first value as the reference; a dense sorted run packs to
//              ~1 bit/value where plain FOR would need the full range.
//              Chosen only when strictly narrower than kFor.
//
// Every block also records its value-domain [min, max] — the zone map that
// lets a scan classify a whole block against a range predicate without
// touching its packed bytes (ClassifyBlock below). For kFor blocks the
// test is exactly the predicate translated into the FOR domain: with
// lo' = lo -sat ref and hi' = hi - ref, the packed values (which span
// [0, max - ref]) all qualify when lo' == 0 and hi' >= max - ref, and none
// qualify when hi < ref or lo' > max - ref. ClassifyBlock evaluates that
// translation using the meta alone, so skip/all-pass decisions cost two
// compares per 1024 values.
//
// Payload words of all blocks live in one contiguous AlignedBuffer (each
// block starting word-aligned at meta.word_offset) with kPackedPadWords of
// zeroed tail pad — the pack.h overshoot contract for the vector unpack
// kernels.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/pack.h"
#include "core/isa.h"
#include "obs/metrics.h"
#include "util/aligned_buffer.h"

namespace simddb::compress {

/// Per-block encoding (see file comment).
enum class BlockEncoding : uint8_t { kFor = 0, kDeltaFor = 1 };

/// Per-block metadata: payload location, FOR reference, zone map, width.
struct BlockMeta {
  uint64_t word_offset = 0;  ///< payload start in the column's word buffer
  uint32_t reference = 0;    ///< kFor: block min; kDeltaFor: first value
  uint32_t min = 0, max = 0; ///< value-domain bounds (zone map)
  uint8_t bits = 0;          ///< packed width, 0..32 (0: all values == ref)
  BlockEncoding encoding = BlockEncoding::kFor;
};

/// Zone-map verdict of one block against an inclusive range predicate.
enum class BlockClass { kSkip, kAllPass, kMixed };

/// Classifies a block against lo <= v <= hi from its metadata alone —
/// the FOR-domain predicate pushdown. Blocks entirely outside the range
/// are skipped (packed bytes never touched); blocks entirely inside are
/// emitted without per-value predicate evaluation.
inline BlockClass ClassifyBlock(const BlockMeta& m, uint32_t lo, uint32_t hi) {
  // Translate the predicate into the FOR domain of the packed values
  // (v' = v - ref spans [min - ref, max - ref]; for kFor, min == ref so
  // the span starts at 0). Saturating at 0 / failing on hi < ref encodes
  // the "predicate starts below / ends before the frame" cases.
  const uint32_t ref = m.reference;
  if (hi < ref || (lo > ref && lo - ref > m.max - ref)) return BlockClass::kSkip;
  const uint32_t lo_for = lo <= ref ? 0 : lo - ref;
  const uint32_t hi_for = hi - ref;  // hi >= ref here
  if (lo_for <= m.min - ref && hi_for >= m.max - ref) return BlockClass::kAllPass;
  return BlockClass::kMixed;
}

// Scan-over-compressed instruments, counted by the fused scan template
// (exec/fused.h FusedScanCompressed) — its instantiations cannot reference
// file-static counters, so the static-storage instances live in column.cc
// behind these accessors.
obs::Counter& BlocksSkipped();    ///< blocks never unpacked (zone map miss)
obs::Counter& BlocksAllPass();    ///< blocks emitted without evaluation
obs::Counter& BytesUnpacked();    ///< packed payload bytes actually decoded

/// An immutable compressed column. Move-only (owns the payload buffer).
class CompressedColumn {
 public:
  CompressedColumn() = default;

  size_t size() const { return n_; }
  size_t num_blocks() const { return meta_.size(); }
  const BlockMeta& block_meta(size_t b) const { return meta_[b]; }

  /// Rows of block b (kBlockTuples except a short last block).
  size_t block_rows(size_t b) const {
    assert(b < meta_.size());
    return b + 1 < meta_.size() ? kBlockTuples : n_ - b * kBlockTuples;
  }

  /// Decodes block b into out[0 .. block_rows(b)). `out_capacity` must be
  /// >= PackedCapacity(block_rows(b)) — the pack.h slack contract. Counts
  /// the decoded payload into `bytes_unpacked`.
  void DecodeBlock(Isa isa, size_t b, uint32_t* out, size_t out_capacity) const;

  /// Payload + metadata footprint in bytes (the compressed size the bench
  /// footprint gate compares against raw_bytes()).
  size_t packed_bytes() const {
    return payload_words_ * sizeof(uint32_t) + meta_.size() * sizeof(BlockMeta);
  }
  size_t raw_bytes() const { return n_ * sizeof(uint32_t); }

  const uint32_t* words() const { return words_.data(); }

 private:
  friend CompressedColumn CompressColumn(const uint32_t* in, size_t n);

  size_t n_ = 0;
  size_t payload_words_ = 0;  ///< words in use, excluding the pad
  std::vector<BlockMeta> meta_;
  AlignedBuffer<uint32_t> words_;
};

/// Compresses in[0, n) into FOR/delta bit-packed blocks. The payload
/// buffer is allocated via util/alloc.h (AlignedBuffer).
CompressedColumn CompressColumn(const uint32_t* in, size_t n);

}  // namespace simddb::compress

#endif  // SIMDDB_COMPRESS_COLUMN_H_
