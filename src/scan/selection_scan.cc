#include "scan/selection_scan.h"

#include <cassert>

#include "core/isa.h"

namespace simddb {

const char* ScanVariantName(ScanVariant v) {
  switch (v) {
    case ScanVariant::kScalarBranching:
      return "scalar_branching";
    case ScanVariant::kScalarBranchless:
      return "scalar_branchless";
    case ScanVariant::kVectorBitExtractDirect:
      return "vector_bitextract_direct";
    case ScanVariant::kVectorStoreDirect:
      return "vector_selstore_direct";
    case ScanVariant::kVectorBitExtractIndirect:
      return "vector_bitextract_indirect";
    case ScanVariant::kVectorStoreIndirect:
      return "vector_selstore_indirect";
    case ScanVariant::kAvx2Direct:
      return "avx2_direct";
    case ScanVariant::kAvx2Indirect:
      return "avx2_indirect";
  }
  return "unknown";
}

bool ScanVariantSupported(ScanVariant v) {
  switch (v) {
    case ScanVariant::kScalarBranching:
    case ScanVariant::kScalarBranchless:
      return true;
    case ScanVariant::kAvx2Direct:
    case ScanVariant::kAvx2Indirect:
      return IsaSupported(Isa::kAvx2);
    default:
      return IsaSupported(Isa::kAvx512);
  }
}

size_t SelectionScan(ScanVariant variant, const uint32_t* keys,
                     const uint32_t* pays, size_t n, uint32_t k_lo,
                     uint32_t k_hi, uint32_t* out_keys, uint32_t* out_pays,
                     size_t out_capacity) {
  assert(out_capacity == 0 || out_capacity >= SelectionScanCapacity(n));
  (void)out_capacity;
  switch (variant) {
    case ScanVariant::kScalarBranching:
      return detail::SelectScalarBranching(keys, pays, n, k_lo, k_hi,
                                           out_keys, out_pays);
    case ScanVariant::kScalarBranchless:
      return detail::SelectScalarBranchless(keys, pays, n, k_lo, k_hi,
                                            out_keys, out_pays);
    case ScanVariant::kAvx2Direct:
    case ScanVariant::kAvx2Indirect:
      return detail::SelectAvx2(variant, keys, pays, n, k_lo, k_hi, out_keys,
                                out_pays);
    default:
      return detail::SelectAvx512(variant, keys, pays, n, k_lo, k_hi,
                                  out_keys, out_pays);
  }
}

namespace detail {

// Alg. 1: short-circuit branching scalar scan.
size_t SelectScalarBranching(const uint32_t* keys, const uint32_t* pays,
                             size_t n, uint32_t k_lo, uint32_t k_hi,
                             uint32_t* out_keys, uint32_t* out_pays) {
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    if (k >= k_lo && k <= k_hi) {
      out_pays[j] = pays[i];
      out_keys[j] = k;
      ++j;
    }
  }
  return j;
}

// Alg. 2: branch-free scalar scan — copy every tuple, advance the output
// index by the predicate value [29].
size_t SelectScalarBranchless(const uint32_t* keys, const uint32_t* pays,
                              size_t n, uint32_t k_lo, uint32_t k_hi,
                              uint32_t* out_keys, uint32_t* out_pays) {
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    out_pays[j] = pays[i];
    out_keys[j] = k;
    j += static_cast<size_t>(k >= k_lo) & static_cast<size_t>(k <= k_hi);
  }
  return j;
}

}  // namespace detail
}  // namespace simddb
