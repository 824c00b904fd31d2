#ifndef SIMDDB_CORE_SCALAR_OPS_H_
#define SIMDDB_CORE_SCALAR_OPS_H_

// Scalar reference semantics for the paper's fundamental vector operations
// (§3), defined over plain arrays of W lanes. These are the ground truth
// against which every vector backend is unit-tested, and the fallback
// implementation on CPUs without SIMD support.

#include <cstddef>
#include <cstdint>

namespace simddb::scalar {

/// Selective load: lanes set in mask receive the next contiguous values from
/// src (in lane order); other lanes keep their previous value. Returns the
/// number of elements consumed (= popcount of mask).
template <typename T>
size_t SelectiveLoad(T* lanes, int w, uint32_t mask, const T* src) {
  size_t consumed = 0;
  for (int i = 0; i < w; ++i) {
    if (mask & (1u << i)) lanes[i] = src[consumed++];
  }
  return consumed;
}

/// Selective store: writes the lanes set in mask contiguously to dst.
/// Returns the number of elements written.
template <typename T>
size_t SelectiveStore(T* dst, int w, uint32_t mask, const T* lanes) {
  size_t written = 0;
  for (int i = 0; i < w; ++i) {
    if (mask & (1u << i)) dst[written++] = lanes[i];
  }
  return written;
}

/// Gather: lanes[i] = base[idx[i]] for lanes set in mask.
template <typename T, typename I>
void Gather(T* lanes, int w, uint32_t mask, const T* base, const I* idx) {
  for (int i = 0; i < w; ++i) {
    if (mask & (1u << i)) lanes[i] = base[idx[i]];
  }
}

/// Scatter: base[idx[i]] = lanes[i] for lanes set in mask; the rightmost
/// lane wins on collisions (matching hardware scatter semantics).
template <typename T, typename I>
void Scatter(T* base, int w, uint32_t mask, const I* idx, const T* lanes) {
  for (int i = 0; i < w; ++i) {
    if (mask & (1u << i)) base[idx[i]] = lanes[i];
  }
}

/// Serialization offsets: out[i] = |{j < i : idx[j] == idx[i]}| (§7.3).
template <typename I>
void SerializeConflicts(uint32_t* out, int w, const I* idx) {
  for (int i = 0; i < w; ++i) {
    uint32_t c = 0;
    for (int j = 0; j < i; ++j) {
      if (idx[j] == idx[i]) ++c;
    }
    out[i] = c;
  }
}

/// Mask of lanes with no higher-indexed duplicate (would win a scatter).
template <typename I>
uint32_t ScatterWinners(int w, const I* idx) {
  uint32_t m = 0;
  for (int i = 0; i < w; ++i) {
    bool later_dup = false;
    for (int j = i + 1; j < w; ++j) {
      if (idx[j] == idx[i]) later_dup = true;
    }
    if (!later_dup) m |= 1u << i;
  }
  return m;
}

/// Fixed odd multiplier of the hash mix (MurmurHash3's fmix32 constant).
inline constexpr uint32_t kHashMixMul = 0x85EBCA6Bu;

/// Multiplicative hashing (§5) behind a mix: x = k * factor; x ^= x >> 16;
/// x *= kHashMixMul; h = mulhi(x, buckets) ∈ [0, buckets). The paper's
/// single multiply maps arithmetic key progressions (dense ranges, strides)
/// onto long runs of adjacent buckets for many factors; the xorshift folds
/// the high bits into the low ones before the second multiply spreads them.
/// This is the one scalar definition: every table, filter and partitioner
/// hashes through it, and the AVX2/AVX-512 MultHash mirror it lane for lane.
inline uint32_t MultHash(uint32_t key, uint32_t factor, uint32_t buckets) {
  uint32_t x = key * factor;
  x ^= x >> 16;
  x *= kHashMixMul;
  return static_cast<uint32_t>((static_cast<uint64_t>(x) * buckets) >> 32);
}

}  // namespace simddb::scalar

#endif  // SIMDDB_CORE_SCALAR_OPS_H_
