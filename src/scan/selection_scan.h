#ifndef SIMDDB_SCAN_SELECTION_SCAN_H_
#define SIMDDB_SCAN_SELECTION_SCAN_H_

// Selection scans (§4): filter a (key, payload) column pair by the range
// predicate k_lo <= key <= k_hi, materializing qualifying tuples. All the
// variants evaluated in Fig. 5 are implemented:
//
//   kScalarBranching        Alg. 1 — short-circuit branches.
//   kScalarBranchless       Alg. 2 — predication, no branches [29].
//   kVectorBitExtractDirect SIMD predicate, one tuple extracted per mask bit.
//   kVectorStoreDirect      SIMD predicate + selective stores of the values.
//   kVectorBitExtractIndirect  bit-extract into a cache-resident index
//                              buffer, then gather + streaming flush.
//   kVectorStoreIndirect    Alg. 3 — selective-store of qualifying *indexes*
//                           into an in-cache buffer; gather keys/payloads and
//                           flush with streaming stores when it fills.
//   kAvx2Direct / kAvx2Indirect  the Haswell versions of App. D, using
//                           permutation-table selective stores.
//
// Output buffers must have capacity for n + kSelectionScanPad elements; the
// vector kernels may overshoot by up to one vector before the final count is
// returned.

#include <cstddef>
#include <cstdint>

namespace simddb {

/// Required slack (in elements) beyond n in every output buffer.
inline constexpr size_t kSelectionScanPad = 16;

/// Required allocation size for a serial scan's output buffers on an
/// n-tuple input — the centralized scratch contract, mirroring
/// ShuffleCapacity (partition/shuffle.h) and ChunkCapacity (exec/pipeline.h).
/// Size buffers with this instead of ad-hoc `n + kSelectionScanPad`;
/// SelectionScan asserts it when told the real capacity.
inline constexpr size_t SelectionScanCapacity(size_t n) {
  return n + kSelectionScanPad;
}

/// Selection scan implementation selector (see file comment).
enum class ScanVariant {
  kScalarBranching,
  kScalarBranchless,
  kVectorBitExtractDirect,
  kVectorStoreDirect,
  kVectorBitExtractIndirect,
  kVectorStoreIndirect,
  kAvx2Direct,
  kAvx2Indirect,
};

/// Human-readable variant name for logs and benchmark labels.
const char* ScanVariantName(ScanVariant v);

/// True if the host CPU can run the given variant.
bool ScanVariantSupported(ScanVariant v);

/// Scans keys[0..n), copying tuples with k_lo <= key <= k_hi (inclusive) to
/// (out_keys, out_pays). Returns the number of qualifying tuples. Output
/// order matches input order for every variant. `out_capacity`, when
/// nonzero, is asserted to satisfy the SelectionScanCapacity(n) contract at
/// entry (debug builds), catching undersized buffers before a vector kernel
/// overshoots into them.
size_t SelectionScan(ScanVariant variant, const uint32_t* keys,
                     const uint32_t* pays, size_t n, uint32_t k_lo,
                     uint32_t k_hi, uint32_t* out_keys, uint32_t* out_pays,
                     size_t out_capacity = 0);

namespace detail {
size_t SelectScalarBranching(const uint32_t* keys, const uint32_t* pays,
                             size_t n, uint32_t k_lo, uint32_t k_hi,
                             uint32_t* out_keys, uint32_t* out_pays);
size_t SelectScalarBranchless(const uint32_t* keys, const uint32_t* pays,
                              size_t n, uint32_t k_lo, uint32_t k_hi,
                              uint32_t* out_keys, uint32_t* out_pays);
size_t SelectAvx512(ScanVariant variant, const uint32_t* keys,
                    const uint32_t* pays, size_t n, uint32_t k_lo,
                    uint32_t k_hi, uint32_t* out_keys, uint32_t* out_pays);
size_t SelectAvx2(ScanVariant variant, const uint32_t* keys,
                  const uint32_t* pays, size_t n, uint32_t k_lo, uint32_t k_hi,
                  uint32_t* out_keys, uint32_t* out_pays);
}  // namespace detail

}  // namespace simddb

#endif  // SIMDDB_SCAN_SELECTION_SCAN_H_
