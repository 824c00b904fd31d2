#include "join/hash_join.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <vector>

#include "hash/hash_table.h"
#include "numa/placement.h"
#include "obs/metrics.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/plan.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/prefix_sum.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace simddb {
namespace detail {

// Declared here, defined in hash_join_avx512.cc.
void BuildFlatAvx512(uint32_t* table_keys, uint32_t* table_pays, uint32_t nb,
                     uint32_t hash_factor, const uint32_t* keys,
                     const uint32_t* pays, size_t n);

// Scalar LP build into a flat (pre-cleared) table region of nb buckets.
void BuildFlatScalar(uint32_t* table_keys, uint32_t* table_pays, uint32_t nb,
                     uint32_t hash_factor, const uint32_t* keys,
                     const uint32_t* pays, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t h = scalar::MultHash(k, hash_factor, nb);
    while (table_keys[h] != kEmptyKey) {
      if (++h == nb) h = 0;
    }
    table_keys[h] = k;
    table_pays[h] = pays[i];
  }
}

size_t ProbeTableBankScalar(const uint32_t* table_keys,
                            const uint32_t* table_pays, const uint32_t* base,
                            const uint32_t* size, uint32_t hash_factor,
                            uint32_t part_factor, uint32_t part_count,
                            const uint32_t* keys, const uint32_t* pays,
                            size_t n, uint32_t* out_keys, uint32_t* out_spays,
                            uint32_t* out_rpays) {
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t part =
        part_count == 1 ? 0 : scalar::MultHash(k, part_factor, part_count);
    uint32_t nb = size[part];
    uint32_t b = base[part];
    uint32_t h = scalar::MultHash(k, hash_factor, nb);
    while (table_keys[b + h] != kEmptyKey) {
      if (table_keys[b + h] == k) {
        out_rpays[j] = table_pays[b + h];
        out_spays[j] = pays[i];
        out_keys[j] = k;
        ++j;
      }
      if (++h == nb) h = 0;
    }
  }
  return j;
}

}  // namespace detail

namespace {

using detail::BuildFlatAvx512;
using detail::BuildFlatScalar;
using detail::ProbeTableBankAvx512;
using detail::ProbeTableBankScalar;

// Join phase timers fed from the same Timer measurements as JoinTimings,
// so JSONL rows and the paper-figure CSVs agree on the split.
obs::PhaseTimer g_join_partition_ns("join_partition_ns");
obs::PhaseTimer g_join_build_ns("join_build_ns");
obs::PhaseTimer g_join_probe_ns("join_probe_ns");

uint64_t SecondsToNs(double s) {
  return s <= 0 ? 0 : static_cast<uint64_t>(s * 1e9);
}

// Compacts per-thread (or per-part) output segments written at seg_begin[i]
// with seg_count[i] tuples into a contiguous prefix. Returns the total.
size_t CompactSegments(size_t n_segs, const uint64_t* seg_begin,
                       const uint64_t* seg_count, uint32_t* out_keys,
                       uint32_t* out_rpays, uint32_t* out_spays) {
  size_t cursor = 0;
  for (size_t i = 0; i < n_segs; ++i) {
    size_t b = seg_begin[i];
    size_t c = seg_count[i];
    if (c > 0 && b != cursor) {
      std::memmove(out_keys + cursor, out_keys + b, c * sizeof(uint32_t));
      std::memmove(out_rpays + cursor, out_rpays + b, c * sizeof(uint32_t));
      std::memmove(out_spays + cursor, out_spays + b, c * sizeof(uint32_t));
    }
    cursor += c;
  }
  return cursor;
}

size_t ProbeDispatch(bool vec, const uint32_t* tk, const uint32_t* tp,
                     const uint32_t* base, const uint32_t* size,
                     uint32_t hash_factor, uint32_t part_factor,
                     uint32_t part_count, const uint32_t* keys,
                     const uint32_t* pays, size_t n, uint32_t* ok,
                     uint32_t* os, uint32_t* orp) {
  if (vec) {
    return ProbeTableBankAvx512(tk, tp, base, size, hash_factor, part_factor,
                                part_count, keys, pays, n, ok, os, orp);
  }
  return ProbeTableBankScalar(tk, tp, base, size, hash_factor, part_factor,
                              part_count, keys, pays, n, ok, os, orp);
}

}  // namespace

size_t HashJoinNoPartition(const JoinRelation& r, const JoinRelation& s,
                           const JoinConfig& cfg, uint32_t* out_keys,
                           uint32_t* out_rpays, uint32_t* out_spays,
                           JoinTimings* timings) {
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;
  const bool vec = cfg.isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const uint32_t nb =
      static_cast<uint32_t>(NextPowerOfTwo(r.n * 2 + 32));
  const uint32_t factor = HashFactor(cfg.seed, 0);
  AlignedBuffer<uint32_t> tk(nb), tp(nb);
  std::memset(tk.data(), 0xFF, nb * sizeof(uint32_t));

  // One pool dispatch per phase, over the R and then the S morsel grid; the
  // join between the calls separates build from probe (probe lanes must see
  // the complete table). The vectorized probe emits a match when its lane
  // reaches it, so the output order follows the table layout, and every
  // lane count must leave the layout a serial build in R order leaves. One
  // lane runs that serial build. Several lanes claim slots by atomic
  // compare-and-swap with R row ids, earlier rows first: a row that meets a
  // later row's claim takes the slot and carries the later row on, which
  // ends in the serial layout whatever the interleaving (Shun and
  // Blelloch's phase-concurrent linear probing); a pass over the slots then
  // swaps each id for its key and payload. Scatters cannot be atomic, so
  // the build is scalar by necessity.
  TaskPool& pool = TaskPool::Get();
  Timer timer;
  const MorselGrid r_grid(r.n);
  const bool serial = TaskPool::LaneCount(r_grid.count(), t_count) == 1;
  pool.ParallelFor(r_grid.count(), t_count, [&](int, size_t m) {
    const size_t b = r_grid.begin(m);
    if (serial) {
      BuildFlatScalar(tk.data(), tp.data(), nb, factor, r.keys + b,
                      r.pays + b, r_grid.size(m));
      return;
    }
    const size_t e = r_grid.end(m);
    for (size_t i = b; i < e; ++i) {
      // The serial build writes the reserved key as an empty slot; a claim
      // for it would read as empty mid-cluster and hide the rows past it.
      if (r.keys[i] == kEmptyKey) continue;
      uint32_t h = scalar::MultHash(r.keys[i], factor, nb);
      // Every row id sorts before kEmptyKey, so an empty slot is claimed
      // like a later row's.
      uint32_t row = static_cast<uint32_t>(i);
      for (;;) {
        std::atomic_ref<uint32_t> slot(tk[h]);
        uint32_t held = slot.load(std::memory_order_relaxed);
        while (row < held &&
               !slot.compare_exchange_weak(held, row,
                                           std::memory_order_relaxed)) {
        }
        if (row < held) {  // claimed; `held` is the claim it displaced
          if (held == kEmptyKey) break;
          row = held;
        }
        if (++h == nb) h = 0;
      }
    }
  });
  if (!serial) {
    const MorselGrid slot_grid(nb);
    pool.ParallelFor(slot_grid.count(), t_count, [&](int, size_t m) {
      const size_t e = slot_grid.end(m);
      for (size_t h = slot_grid.begin(m); h < e; ++h) {
        const uint32_t row = tk[h];
        if (row != kEmptyKey) {
          tk[h] = r.keys[row];
          tp[h] = r.pays[row];
        }
      }
    });
  }
  const double build_s = timer.Seconds();

  // Read-only probe: no synchronization needed; vectorized. Output
  // segments are per-morsel, so the layout is worker-independent.
  timer.Reset();
  const MorselGrid s_grid(s.n);
  const size_t s_morsels = s_grid.count();
  const uint32_t base0 = 0;
  std::vector<uint64_t> seg_begin(s_morsels), seg_count(s_morsels);
  pool.ParallelFor(s_morsels, t_count, [&](int, size_t m) {
    const size_t b = s_grid.begin(m);
    seg_begin[m] = b;
    seg_count[m] = ProbeDispatch(vec, tk.data(), tp.data(), &base0, &nb,
                                 factor, 1, 1, s.keys + b, s.pays + b,
                                 s_grid.size(m), out_keys + b, out_spays + b,
                                 out_rpays + b);
  });
  const double probe_s = timer.Seconds();
  g_join_build_ns.Record(SecondsToNs(build_s));
  g_join_probe_ns.Record(SecondsToNs(probe_s));
  if (timings != nullptr) {
    timings->build_s = build_s;
    timings->probe_s = probe_s;
  }
  size_t total = CompactSegments(s_morsels, seg_begin.data(),
                                 seg_count.data(), out_keys, out_rpays,
                                 out_spays);
  return total;
}

size_t HashJoinMinPartition(const JoinRelation& r, const JoinRelation& s,
                            const JoinConfig& cfg, uint32_t* out_keys,
                            uint32_t* out_rpays, uint32_t* out_spays,
                            JoinTimings* timings) {
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;
  const bool vec = cfg.isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const uint32_t parts = static_cast<uint32_t>(t_count);
  PartitionFn part_fn = PartitionFn::Hash(parts, cfg.seed + 1);
  const uint32_t table_factor = HashFactor(cfg.seed, 0);

  // Phase 1: hash-partition R so each thread owns one part (no atomics).
  Timer timer;
  AlignedBuffer<uint32_t> rp_keys(ShuffleCapacity(r.n)),
      rp_pays(ShuffleCapacity(r.n));
  // Partition output is fanout-strided (every morsel writes into every
  // part) and each part is then rebuilt into the flat bank by an arbitrary
  // lane, so interleaving spreads the traffic instead of hot-spotting one
  // node. No-op on single-node hosts.
  numa::PlaceBuffer(rp_keys.data(), rp_keys.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kInterleaved);
  numa::PlaceBuffer(rp_pays.data(), rp_pays.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kInterleaved);
  std::vector<uint32_t> r_starts(parts + 1);
  ParallelPartitionResources res;
  ParallelPartitionPass(part_fn, r.keys, r.pays, r.n, rp_keys.data(),
                        rp_pays.data(), cfg.isa, t_count, &res,
                        r_starts.data());
  const double partition_s = timer.Seconds();
  g_join_partition_ns.Record(SecondsToNs(partition_s));
  if (timings != nullptr) timings->partition_s = partition_s;

  // Phase 2: per-part table builds, laid out in one flat bank so the
  // vectorized probe can address any part's buckets.
  timer.Reset();
  std::vector<uint32_t> bank_base(parts), bank_size(parts);
  uint64_t bank_total = 0;
  for (uint32_t p = 0; p < parts; ++p) {
    uint32_t part_n = r_starts[p + 1] - r_starts[p];
    bank_size[p] =
        static_cast<uint32_t>(NextPowerOfTwo(part_n * 2 + 32));
    bank_base[p] = static_cast<uint32_t>(bank_total);
    bank_total += bank_size[p];
  }
  AlignedBuffer<uint32_t> tk(bank_total), tp(bank_total);
  // The probe phase addresses the whole bank hash-randomly from every
  // node, so interleave it rather than letting the memset below first-touch
  // it all onto the submitting thread's node.
  numa::PlaceBuffer(tk.data(), bank_total * sizeof(uint32_t), t_count,
                    numa::Placement::kInterleaved);
  numa::PlaceBuffer(tp.data(), bank_total * sizeof(uint32_t), t_count,
                    numa::Placement::kInterleaved);
  std::memset(tk.data(), 0xFF, bank_total * sizeof(uint32_t));
  TaskPool::Get().ParallelFor(parts, t_count, [&](int, size_t task) {
    uint32_t p = static_cast<uint32_t>(task);
    uint32_t b = r_starts[p];
    uint32_t n_part = r_starts[p + 1] - b;
    if (vec) {
      BuildFlatAvx512(tk.data() + bank_base[p], tp.data() + bank_base[p],
                      bank_size[p], table_factor, rp_keys.data() + b,
                      rp_pays.data() + b, n_part);
    } else {
      BuildFlatScalar(tk.data() + bank_base[p], tp.data() + bank_base[p],
                      bank_size[p], table_factor, rp_keys.data() + b,
                      rp_pays.data() + b, n_part);
    }
  });
  const double build_s = timer.Seconds();
  g_join_build_ns.Record(SecondsToNs(build_s));
  if (timings != nullptr) timings->build_s = build_s;

  // Phase 3: probe across the bank (part chosen per key by the hash),
  // morsel-wise with work stealing; per-morsel output segments keep the
  // result layout independent of the worker schedule.
  timer.Reset();
  const MorselGrid s_grid(s.n);
  const size_t s_morsels = s_grid.count();
  std::vector<uint64_t> seg_begin(s_morsels), seg_count(s_morsels);
  TaskPool::Get().ParallelFor(s_morsels, t_count, [&](int, size_t m) {
    size_t b = s_grid.begin(m);
    seg_begin[m] = b;
    seg_count[m] =
        ProbeDispatch(vec, tk.data(), tp.data(), bank_base.data(),
                      bank_size.data(), table_factor, part_fn.factor, parts,
                      s.keys + b, s.pays + b, s_grid.size(m), out_keys + b,
                      out_spays + b, out_rpays + b);
  });
  size_t total = CompactSegments(s_morsels, seg_begin.data(),
                                 seg_count.data(), out_keys, out_rpays,
                                 out_spays);
  const double probe_s = timer.Seconds();
  g_join_probe_ns.Record(SecondsToNs(probe_s));
  if (timings != nullptr) timings->probe_s = probe_s;
  return total;
}

size_t HashJoinMaxPartition(const JoinRelation& r, const JoinRelation& s,
                            const JoinConfig& cfg, uint32_t* out_keys,
                            uint32_t* out_rpays, uint32_t* out_spays,
                            JoinTimings* timings) {
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;
  const bool vec = cfg.isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512);
  const uint32_t target =
      cfg.target_part_tuples < 64 ? 64 : cfg.target_part_tuples;
  uint32_t p_total = static_cast<uint32_t>(
      NextPowerOfTwo(r.n / target + 1));
  if (p_total > (1u << 16)) p_total = 1u << 16;
  const uint32_t total_bits = Log2Floor(p_total);
  const uint32_t table_factor = HashFactor(cfg.seed, 0);

  Timer timer;
  AlignedBuffer<uint32_t> r_keys_a(ShuffleCapacity(r.n)),
      r_pays_a(ShuffleCapacity(r.n));
  AlignedBuffer<uint32_t> s_keys_a(ShuffleCapacity(s.n)),
      s_pays_a(ShuffleCapacity(s.n));
  // The refine pass writes part-major ranges and the per-part build/probe
  // tasks map to contiguous lane blocks, so lane-block first touch keeps
  // each part's tuples on the node that builds and probes it.
  numa::PlaceBuffer(r_keys_a.data(), r_keys_a.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kNodeLocal);
  numa::PlaceBuffer(r_pays_a.data(), r_pays_a.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kNodeLocal);
  numa::PlaceBuffer(s_keys_a.data(), s_keys_a.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kNodeLocal);
  numa::PlaceBuffer(s_pays_a.data(), s_pays_a.size() * sizeof(uint32_t),
                    t_count, numa::Placement::kNodeLocal);
  std::vector<uint32_t> r_bounds(p_total + 1), s_bounds(p_total + 1);
  ParallelPartitionResources res;

  const uint32_t* rk;
  const uint32_t* rp;
  const uint32_t* sk;
  const uint32_t* sp;
  if (total_bits == 0) {
    // Degenerate single partition: no movement.
    rk = r.keys;
    rp = r.pays;
    sk = s.keys;
    sp = s.pays;
    r_bounds[0] = 0;
    r_bounds[1] = static_cast<uint32_t>(r.n);
    s_bounds[0] = 0;
    s_bounds[1] = static_cast<uint32_t>(s.n);
  } else {
    // The planner splits total_bits into as many passes as the budget
    // demands (one for the common small-table cases); every pass partitions
    // by `bits` hash bits with `rem` hash bits below them, all derived from
    // the one shared hash value, so the final layout equals a single
    // total_bits-wide hash partition.
    const PartitionBudget budget = PartitionBudget::Default();
    const uint32_t p_arg = p_total;
    const uint32_t seed = cfg.seed;
    PassFnMaker maker = [p_arg, seed](uint32_t bits, uint32_t rem) {
      return PartitionFn::HashRadix(bits, rem, p_arg, seed + 1);
    };
    // Shared mid buffers across both relations; MultiPassPartition only
    // touches scratch when the plan has more than one pass.
    AlignedBuffer<uint32_t> mid_keys, mid_pays;
    uint32_t* mk = nullptr;
    uint32_t* mp = nullptr;
    if (PlanRadixPasses(total_bits, budget).passes.size() > 1) {
      mid_keys.Reset(ShuffleCapacity(std::max(r.n, s.n)));
      mid_pays.Reset(ShuffleCapacity(std::max(r.n, s.n)));
      numa::PlaceBuffer(mid_keys.data(),
                        mid_keys.size() * sizeof(uint32_t), t_count,
                        numa::Placement::kNodeLocal);
      numa::PlaceBuffer(mid_pays.data(),
                        mid_pays.size() * sizeof(uint32_t), t_count,
                        numa::Placement::kNodeLocal);
      mk = mid_keys.data();
      mp = mid_pays.data();
    }
    MultiPassPartition(maker, total_bits, r.keys, r.pays, r.n,
                       r_keys_a.data(), r_pays_a.data(), mk, mp, cfg.isa,
                       t_count, budget, r_bounds.data(), &res);
    MultiPassPartition(maker, total_bits, s.keys, s.pays, s.n,
                       s_keys_a.data(), s_pays_a.data(), mk, mp, cfg.isa,
                       t_count, budget, s_bounds.data(), &res);
    rk = r_keys_a.data();
    rp = r_pays_a.data();
    sk = s_keys_a.data();
    sp = s_pays_a.data();
  }
  const double partition_s = timer.Seconds();
  g_join_partition_ns.Record(SecondsToNs(partition_s));
  if (timings != nullptr) timings->partition_s = partition_s;

  // Per-part cache-resident build + probe, parts distributed across threads.
  timer.Reset();
  uint32_t max_part = 0;
  for (uint32_t q = 0; q < p_total; ++q) {
    uint32_t c = r_bounds[q + 1] - r_bounds[q];
    if (c > max_part) max_part = c;
  }
  const uint32_t nb_max =
      static_cast<uint32_t>(NextPowerOfTwo(max_part * 2 + 32));
  std::vector<uint64_t> seg_begin(p_total), seg_count(p_total);
  const int lanes = TaskPool::LaneCount(p_total, t_count);
  // Lane-private cache-resident tables, reused across every part that lane
  // ends up claiming (including stolen ones — skewed parts rebalance).
  std::vector<AlignedBuffer<uint32_t>> lane_tk(lanes), lane_tp(lanes);
  TaskPool::Get().ParallelFor(p_total, t_count, [&](int worker, size_t task) {
    uint32_t q = static_cast<uint32_t>(task);
    AlignedBuffer<uint32_t>& tk = lane_tk[worker];
    AlignedBuffer<uint32_t>& tp = lane_tp[worker];
    if (tk.size() < nb_max) {
      tk.Reset(nb_max);
      tp.Reset(nb_max);
    }
    uint32_t rb = r_bounds[q];
    uint32_t rn = r_bounds[q + 1] - rb;
    uint32_t sb = s_bounds[q];
    uint32_t sn = s_bounds[q + 1] - sb;
    seg_begin[q] = sb;
    if (sn == 0) {
      seg_count[q] = 0;
      return;
    }
    uint32_t nb = static_cast<uint32_t>(NextPowerOfTwo(rn * 2 + 32));
    std::memset(tk.data(), 0xFF, nb * sizeof(uint32_t));
    if (vec) {
      BuildFlatAvx512(tk.data(), tp.data(), nb, table_factor, rk + rb,
                      rp + rb, rn);
    } else {
      BuildFlatScalar(tk.data(), tp.data(), nb, table_factor, rk + rb,
                      rp + rb, rn);
    }
    const uint32_t base0 = 0;
    seg_count[q] = ProbeDispatch(
        vec, tk.data(), tp.data(), &base0, &nb, table_factor, 1, 1,
        sk + sb, sp + sb, sn, out_keys + sb, out_spays + sb,
        out_rpays + sb);
  });
  size_t total = CompactSegments(p_total, seg_begin.data(), seg_count.data(),
                                 out_keys, out_rpays, out_spays);
  // The paper reports build and probe separately; per-part interleaving
  // makes an exact split impossible, so attribute the whole phase to
  // build+probe proportionally by |R| vs |S|.
  const double phase = timer.Seconds();
  const double frac =
      r.n + s.n == 0 ? 0.5 : static_cast<double>(r.n) / (r.n + s.n);
  g_join_build_ns.Record(SecondsToNs(phase * frac));
  g_join_probe_ns.Record(SecondsToNs(phase * (1 - frac)));
  if (timings != nullptr) {
    timings->build_s = phase * frac;
    timings->probe_s = phase * (1 - frac);
  }
  return total;
}

}  // namespace simddb
