#include "compress/column.h"

#include <algorithm>

namespace simddb::compress {
namespace {

// Registry keeps raw pointers, so the instruments need static storage.
obs::Counter g_blocks_skipped("blocks_skipped");
obs::Counter g_blocks_all_pass("blocks_all_pass");
obs::Counter g_bytes_unpacked("bytes_unpacked");

}  // namespace

obs::Counter& BlocksSkipped() { return g_blocks_skipped; }
obs::Counter& BlocksAllPass() { return g_blocks_all_pass; }
obs::Counter& BytesUnpacked() { return g_bytes_unpacked; }

void CompressedColumn::DecodeBlock(Isa isa, size_t b, uint32_t* out,
                                   size_t out_capacity) const {
  const BlockMeta& m = meta_[b];
  const size_t rows = block_rows(b);
  assert(out_capacity >= PackedCapacity(rows) &&
         "decode output violates the PackedCapacity slack contract");
  const uint32_t* words = words_.data() + m.word_offset;
  if (m.encoding == BlockEncoding::kFor) {
    UnpackBlock(isa, words, rows, m.reference, m.bits, out, out_capacity);
  } else {
    // Consecutive differences (the first one 0), summed from the block's
    // first value.
    UnpackDeltaBlock(isa, words, rows, m.reference, m.bits, out,
                     out_capacity);
  }
  g_bytes_unpacked.Add(PackedWords(rows, m.bits) * sizeof(uint32_t));
}

CompressedColumn CompressColumn(const uint32_t* in, size_t n) {
  CompressedColumn col;
  col.n_ = n;
  const size_t n_blocks = (n + kBlockTuples - 1) / kBlockTuples;
  col.meta_.resize(n_blocks);

  // Pass 1: per-block stats -> encoding choice and payload layout.
  uint64_t words = 0;
  for (size_t b = 0; b < n_blocks; ++b) {
    const size_t base = b * kBlockTuples;
    const size_t rows = std::min(kBlockTuples, n - base);
    const uint32_t* v = in + base;
    uint32_t mn = v[0], mx = v[0], max_delta = 0;
    bool sorted = true;
    for (size_t i = 1; i < rows; ++i) {
      mn = std::min(mn, v[i]);
      mx = std::max(mx, v[i]);
      if (v[i] < v[i - 1]) {
        sorted = false;
      } else if (sorted) {
        max_delta = std::max(max_delta, v[i] - v[i - 1]);
      }
    }
    const unsigned for_bits = BitsFor(mx - mn);
    const unsigned delta_bits = BitsFor(max_delta);
    BlockMeta& m = col.meta_[b];
    m.min = mn;
    m.max = mx;
    // Delta only when strictly narrower: ties keep FOR, whose decode needs
    // no prefix sum.
    if (sorted && delta_bits < for_bits) {
      m.encoding = BlockEncoding::kDeltaFor;
      m.reference = v[0];
      m.bits = static_cast<uint8_t>(delta_bits);
    } else {
      m.encoding = BlockEncoding::kFor;
      m.reference = mn;
      m.bits = static_cast<uint8_t>(for_bits);
    }
    m.word_offset = words;
    words += PackedWords(rows, m.bits);
  }
  col.payload_words_ = words;
  if (n == 0) return col;

  col.words_.Reset(words + kPackedPadWords);
  col.words_.Clear();  // pad words must be readable AND deterministic

  // Pass 2: pack every block's payload.
  std::vector<uint32_t> deltas(kBlockTuples);
  for (size_t b = 0; b < n_blocks; ++b) {
    const BlockMeta& m = col.meta_[b];
    const size_t base = b * kBlockTuples;
    const size_t rows = std::min(kBlockTuples, n - base);
    uint32_t* dst = col.words_.data() + m.word_offset;
    if (m.encoding == BlockEncoding::kFor) {
      PackBlock(in + base, rows, m.reference, m.bits, dst);
    } else {
      deltas[0] = 0;
      for (size_t i = 1; i < rows; ++i) {
        deltas[i] = in[base + i] - in[base + i - 1];
      }
      PackBlock(deltas.data(), rows, 0, m.bits, dst);
    }
  }
  return col;
}

}  // namespace simddb::compress
