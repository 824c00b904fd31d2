#ifndef SIMDDB_UTIL_ALLOC_H_
#define SIMDDB_UTIL_ALLOC_H_

// Aligned raw allocation for operator buffers.
//
// Every output array a kernel streams into must start on a 64-byte boundary
// for the non-temporal store path to engage at full width; this header is
// the single place that guarantees it. A fresh page is faulted by the first
// thread that writes it (the kernel's default first-touch policy).
//
// Memory from AlignedAlloc is released with AlignedFree (plain free today;
// the pair keeps call sites correct if the implementation ever moves to
// mmap).

#include <cstddef>
#include <cstdlib>

namespace simddb {

inline constexpr size_t kCacheLineBytes = 64;

/// Allocates `bytes` rounded up to a multiple of `alignment` (which must be
/// a power of two >= 64).
inline void* AlignedAlloc(size_t bytes, size_t alignment = kCacheLineBytes) {
  if (bytes == 0) return nullptr;
  size_t rounded = (bytes + alignment - 1) & ~(alignment - 1);
  return std::aligned_alloc(alignment, rounded);
}

inline void AlignedFree(void* p) { std::free(p); }

}  // namespace simddb

#endif  // SIMDDB_UTIL_ALLOC_H_
