#ifndef SIMDDB_COMPRESS_PACK_H_
#define SIMDDB_COMPRESS_PACK_H_

// Horizontal SIMD bit-packing/unpacking for 32-bit columns.
//
// The storage quantum is a fixed 1024-value block packed at one bit width
// b in [0, 32]: value i occupies bits [i*b, (i+1)*b) of a little-endian
// 32-bit word stream (the horizontal layout of the upscaledb/FastPFor
// family, PAPERS.md "Upscaledb: Efficient Integer-Key Compression" — each
// value's bits are contiguous, so a single unpacked position needs one
// unaligned 64-bit read, a variable shift, and a mask, independent of b).
// Values are stored relative to a frame-of-reference `ref` added back
// during unpack; width 0 means "every value equals ref" and carries no
// payload words at all.
//
// The unpack kernels are the scan-over-compressed hot path, so they follow
// the per-ISA TU pattern of scan/selection_scan_*: a scalar baseline
// (pack.cc) plus AVX2 / AVX-512 backends (pack_avx2.cc / pack_avx512.cc)
// compiled under their own ISA flags. The AVX2 backend turns the per-value
// read-shift-mask into 64-bit gathers (vpgatherdq) + per-lane variable
// shifts (vpsrlvq). The AVX-512 backend gathers nothing: 32 values at width
// b fill exactly b words, so it loads a 32-value group's words with masked
// loads and moves each lane's two words into place with two-source
// permutes (vpermt2d). Either way one generic kernel covers every width
// 1..32 at full vector width — there is no per-width specialization to
// fall out of date. Delta-coded blocks (UnpackDeltaBlock) add a running sum
// to the unpack: in registers on AVX-512, a serial pass after the unpack
// elsewhere. Packing is a one-time cold path (load/compress, never per
// query), so it stays scalar on every backend.
//
// Capacity contracts (centralized, mirroring ChunkCapacity /
// SelectionScanCapacity):
//   - The OUTPUT of an unpack must hold PackedCapacity(n) elements: the
//     vector kernels store full 8/16-lane vectors, overshooting n by up to
//     kPackSlackValues - 1 values. Asserted at every unpack entry.
//   - The PACKED buffer must hold PackedWordsCapacity(n, bits) words: the
//     overshooting lanes of the last AVX2 vector gather up to
//     kPackedPadWords words past the payload, and every 64-bit read may
//     straddle one word boundary. CompressColumn allocates to this
//     contract; kernels assume it.

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "core/isa.h"

namespace simddb::compress {

/// Values per compressed block. A power of two and a multiple of every
/// vector width, so full blocks pack to exactly kBlockTuples * bits / 32
/// words and the unpack main loop never needs a tail.
inline constexpr size_t kBlockTuples = 1024;

/// Slack every unpack output buffer carries beyond its value count: one
/// 16-lane vector of overshoot, the same contract as kChunkSlackTuples
/// (chunks are where unpacked values land).
inline constexpr size_t kPackSlackValues = 16;

/// Elements an unpack output buffer for n values must hold.
inline constexpr size_t PackedCapacity(size_t n) {
  return n + kPackSlackValues;
}

/// Exact payload words of n values at `bits` width.
inline constexpr size_t PackedWords(size_t n, unsigned bits) {
  return (n * bits + 31) / 32;
}

/// Readable pad words the packed buffer needs past the payload: the last
/// vector's overshooting lanes (up to kPackSlackValues - 1 values at up to
/// 32 bits) plus the straddling half of a 64-bit read.
inline constexpr size_t kPackedPadWords = kPackSlackValues;

/// Words a packed buffer for n values at `bits` width must hold.
inline constexpr size_t PackedWordsCapacity(size_t n, unsigned bits) {
  return PackedWords(n, bits) + kPackedPadWords;
}

/// Minimal width that represents every value in [0, range], 0..32.
inline constexpr unsigned BitsFor(uint32_t range) {
  unsigned b = 0;
  while (range != 0) {
    ++b;
    range >>= 1;
  }
  return b;
}

namespace detail {

// Backend kernels (pack.cc / pack_avx2.cc / pack_avx512.cc). All assume
// 1 <= bits <= 32, the packed-buffer pad contract above, and an output
// with PackedCapacity(n) elements; the dispatching wrappers below handle
// bits == 0 and assert the contracts.
void UnpackScalar(const uint32_t* packed, size_t n, uint32_t ref,
                  unsigned bits, uint32_t* out);
void UnpackAvx2(const uint32_t* packed, size_t n, uint32_t ref, unsigned bits,
                uint32_t* out);
void UnpackAvx512(const uint32_t* packed, size_t n, uint32_t ref,
                  unsigned bits, uint32_t* out);
void UnpackDeltaAvx512(const uint32_t* packed, size_t n, uint32_t ref,
                       unsigned bits, uint32_t* out);

}  // namespace detail

/// Packs (in[i] - ref) for i in [0, n) at `bits` per value. The caller
/// guarantees every biased value fits in `bits` bits (bits >=
/// BitsFor(max - ref)). Zeroes the payload words first, so the packed
/// stream is deterministic. `packed` must hold PackedWordsCapacity(n,
/// bits) words. Scalar on every backend: packing runs once at
/// load/compress time, never inside a query.
void PackBlock(const uint32_t* in, size_t n, uint32_t ref, unsigned bits,
               uint32_t* packed);

/// Unpacks n values: out[i] = ref + bits-wide value i of `packed`.
/// `out_capacity` must be >= PackedCapacity(n) — the slack contract every
/// caller-provided buffer (chunk columns, lane scratch) already satisfies.
inline void UnpackBlock(Isa isa, const uint32_t* packed, size_t n,
                        uint32_t ref, unsigned bits, uint32_t* out,
                        size_t out_capacity) {
  assert(bits <= 32);
  assert(out_capacity >= PackedCapacity(n) &&
         "unpack output violates the PackedCapacity slack contract");
  (void)out_capacity;
  if (n == 0) return;
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = ref;
    return;
  }
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::UnpackAvx512(packed, n, ref, bits, out);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::UnpackAvx2(packed, n, ref, bits, out);
  }
  return detail::UnpackScalar(packed, n, ref, bits, out);
}

/// Decodes n delta-coded values: out[i] = ref + the sum of bits-wide values
/// 0..i of `packed` (modulo 2^32). CompressColumn's kDeltaFor blocks store
/// the first value as `ref` and a 0 as value 0, so out[0] == ref. Same
/// output contract as UnpackBlock. AVX-512 runs the prefix sum in registers
/// inside its unpack; the other backends unpack, then add a serial running
/// sum.
inline void UnpackDeltaBlock(Isa isa, const uint32_t* packed, size_t n,
                             uint32_t ref, unsigned bits, uint32_t* out,
                             size_t out_capacity) {
  assert(bits <= 32);
  assert(out_capacity >= PackedCapacity(n) &&
         "unpack output violates the PackedCapacity slack contract");
  if (n == 0) return;
  if (bits != 0 && isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::UnpackDeltaAvx512(packed, n, ref, bits, out);
  }
  UnpackBlock(isa, packed, n, 0, bits, out, out_capacity);
  uint32_t acc = ref;
  for (size_t i = 0; i < n; ++i) {
    acc += out[i];
    out[i] = acc;
  }
}

}  // namespace simddb::compress

#endif  // SIMDDB_COMPRESS_PACK_H_
