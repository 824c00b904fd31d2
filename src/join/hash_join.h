#ifndef SIMDDB_JOIN_HASH_JOIN_H_
#define SIMDDB_JOIN_HASH_JOIN_H_

// Hash join variants with different degrees of partitioning (§9, Fig. 15),
// each a way to build and probe one LinearProbingTable (§5.1):
//
//   No partition   one shared table, built with atomic compare-and-swap
//                  (BuildShared; SIMD has no atomics, so the build stays
//                  scalar — the paper's point); the read-only probe is
//                  fully vectorized.
//   Min partition  the inner relation is hash-partitioned into home-bucket
//                  ranges of one table, so each thread fills its own
//                  ranges without atomics (BuildPartitioned, the executor's
//                  build); a morsel-parallel probe reads the whole table.
//   Max partition  both relations are hash-partitioned (buffered, possibly
//                  two passes) until each inner part fits an L1-resident
//                  table; per-part build+probe runs entirely in cache.
//                  Fully vectorized and the paper's overall winner.
//
// Every probe is LinearProbingTable::Probe, on AVX-512 when cfg.isa asks
// for it and scalar otherwise. All variants emit (key, R payload, S
// payload) per match and return the match count. R keys must be unique
// (key/foreign-key join, as in the paper's evaluation) — this bounds every
// thread's match count by its probe chunk and lets outputs be compacted
// deterministically. Keys equal to kEmptyKey join nothing on either side.
// Payloads are arbitrary 32-bit values (row ids for late materialization,
// §10.5.3).
//
// Output buffers need capacity s.n + 16.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"

namespace simddb {

struct JoinRelation {
  const uint32_t* keys;
  const uint32_t* pays;
  size_t n;
};

/// Wall-clock seconds per phase (Fig. 15's stacked bars).
struct JoinTimings {
  double partition_s = 0;
  double build_s = 0;
  double probe_s = 0;
  double Total() const { return partition_s + build_s + probe_s; }
};

struct JoinConfig {
  Isa isa = Isa::kScalar;
  int threads = 1;
  uint64_t seed = 42;
  /// Max-partition: target inner tuples per final partition (table is sized
  /// 2x this, power of two; default keeps the table well inside L1).
  uint32_t target_part_tuples = 1024;
};

size_t HashJoinNoPartition(const JoinRelation& r, const JoinRelation& s,
                           const JoinConfig& cfg, uint32_t* out_keys,
                           uint32_t* out_rpays, uint32_t* out_spays,
                           JoinTimings* timings = nullptr);

size_t HashJoinMinPartition(const JoinRelation& r, const JoinRelation& s,
                            const JoinConfig& cfg, uint32_t* out_keys,
                            uint32_t* out_rpays, uint32_t* out_spays,
                            JoinTimings* timings = nullptr);

size_t HashJoinMaxPartition(const JoinRelation& r, const JoinRelation& s,
                            const JoinConfig& cfg, uint32_t* out_keys,
                            uint32_t* out_rpays, uint32_t* out_spays,
                            JoinTimings* timings = nullptr);

}  // namespace simddb

#endif  // SIMDDB_JOIN_HASH_JOIN_H_
