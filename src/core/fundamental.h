#ifndef SIMDDB_CORE_FUNDAMENTAL_H_
#define SIMDDB_CORE_FUNDAMENTAL_H_

// ISA-dispatched entry points for the paper's fundamental vector operations
// (§3), operating on one 16-lane group at a time. These exist so unit tests
// and the ablation benchmarks can exercise each backend from translation
// units compiled without vector flags; operator kernels use the inline
// forms in avx512_ops.h / avx2_ops.h directly.
//
// On the kAvx2 backend a 16-lane group is processed as two 8-lane halves
// (the second half consumes/produces after the first), so the semantics are
// identical across backends.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"

namespace simddb::fundamental {

/// Lane count of the test-surface group.
inline constexpr int kGroup = 16;

/// Selective load into the active lanes of v; returns elements consumed.
size_t SelectiveLoad16(Isa isa, uint32_t v[16], uint32_t mask,
                       const uint32_t* src);

/// Selective store of the active lanes of v; returns elements written.
size_t SelectiveStore16(Isa isa, uint32_t* dst, uint32_t mask,
                        const uint32_t v[16]);

/// Masked gather: v[i] = base[idx[i]] for active lanes.
void Gather16(Isa isa, uint32_t v[16], uint32_t mask, const uint32_t* base,
              const uint32_t idx[16]);

/// Masked scatter: base[idx[i]] = v[i] for active lanes (rightmost wins).
void Scatter16(Isa isa, uint32_t* base, uint32_t mask, const uint32_t idx[16],
               const uint32_t v[16]);

/// out[i] = number of lower lanes with idx equal to idx[i].
/// kAvx512 uses vpconflictd+vpopcntd; other ISAs use the scalar reference.
void SerializeConflicts16(Isa isa, uint32_t out[16], const uint32_t idx[16]);

/// The paper's Alg. 13 (iterative scatter/gather-back) on the kAvx512
/// backend; `scratch` must have one writable slot per distinct index value.
/// Falls back to the scalar reference on other ISAs.
void SerializeConflictsIterative16(Isa isa, uint32_t out[16],
                                   const uint32_t idx[16], uint32_t* scratch);

/// Returns the mask of lanes with no higher-indexed duplicate index.
uint32_t ScatterWinners16(Isa isa, const uint32_t idx[16]);

/// Batch multiplicative hash: out[i] = scalar::MultHash(keys[i], factor,
/// buckets).
void MultHashBatch(Isa isa, uint32_t* out, const uint32_t* keys, size_t n,
                   uint32_t factor, uint32_t buckets);

namespace detail {
// Backend entry points (defined in fundamental_avx2.cc / fundamental_avx512.cc).
size_t SelectiveLoad16Avx2(uint32_t v[16], uint32_t mask, const uint32_t* src);
size_t SelectiveStore16Avx2(uint32_t* dst, uint32_t mask, const uint32_t v[16]);
void Gather16Avx2(uint32_t v[16], uint32_t mask, const uint32_t* base,
                  const uint32_t idx[16]);
void MultHashBatchAvx2(uint32_t* out, const uint32_t* keys, size_t n,
                       uint32_t factor, uint32_t buckets);

size_t SelectiveLoad16Avx512(uint32_t v[16], uint32_t mask,
                             const uint32_t* src);
size_t SelectiveStore16Avx512(uint32_t* dst, uint32_t mask,
                              const uint32_t v[16]);
void Gather16Avx512(uint32_t v[16], uint32_t mask, const uint32_t* base,
                    const uint32_t idx[16]);
void Scatter16Avx512(uint32_t* base, uint32_t mask, const uint32_t idx[16],
                     const uint32_t v[16]);
void SerializeConflicts16Avx512(uint32_t out[16], const uint32_t idx[16]);
void SerializeConflictsIterative16Avx512(uint32_t out[16],
                                         const uint32_t idx[16],
                                         uint32_t* scratch);
uint32_t ScatterWinners16Avx512(const uint32_t idx[16]);
void MultHashBatchAvx512(uint32_t* out, const uint32_t* keys, size_t n,
                         uint32_t factor, uint32_t buckets);
}  // namespace detail

}  // namespace simddb::fundamental

#endif  // SIMDDB_CORE_FUNDAMENTAL_H_
