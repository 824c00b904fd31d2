#include "join/hash_join.h"

#include <cstring>
#include <memory>
#include <vector>

#include "hash/linear_probing.h"
#include "obs/metrics.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/plan.h"
#include "util/aligned_buffer.h"
#include "util/bits.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace simddb {
namespace {

// Join phase timers fed from the same Timer measurements as JoinTimings,
// so JSONL rows and the paper-figure CSVs agree on the split.
obs::PhaseTimer g_join_partition_ns("join_partition_ns");
obs::PhaseTimer g_join_build_ns("join_build_ns");
obs::PhaseTimer g_join_probe_ns("join_probe_ns");

uint64_t SecondsToNs(double s) {
  return s <= 0 ? 0 : static_cast<uint64_t>(s * 1e9);
}

// Buckets of the table for n build tuples: load factor below one half.
size_t TableBuckets(size_t n) { return NextPowerOfTwo(n * 2 + 32); }

// The vector probe runs on AVX-512 only; an AVX2 config probes scalar.
Isa ProbeIsa(const JoinConfig& cfg) {
  return cfg.isa == Isa::kAvx512 ? Isa::kAvx512 : Isa::kScalar;
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

// Read-only probe of one table by S, morsel-wise with work stealing;
// per-morsel output segments keep the result layout independent of the
// worker schedule. Returns the match count.
size_t ProbeMorsels(const LinearProbingTable& table, const JoinRelation& s,
                    const JoinConfig& cfg, int threads, uint32_t* out_keys,
                    uint32_t* out_rpays, uint32_t* out_spays) {
  const Isa isa = ProbeIsa(cfg);
  const MorselGrid grid(s.n);
  std::vector<uint64_t> seg_begin(grid.count()), seg_count(grid.count());
  TaskPool::Get().ParallelFor(grid.count(), threads, [&](int, size_t m) {
    const size_t b = grid.begin(m);
    seg_begin[m] = b;
    seg_count[m] = table.Probe(isa, s.keys + b, s.pays + b, grid.size(m),
                               out_keys + b, out_spays + b, out_rpays + b);
  });
  return CompactSegments(grid.count(), seg_begin.data(), seg_count.data(),
                         out_keys, out_rpays, out_spays);
}

}  // namespace

size_t HashJoinNoPartition(const JoinRelation& r, const JoinRelation& s,
                           const JoinConfig& cfg, uint32_t* out_keys,
                           uint32_t* out_rpays, uint32_t* out_spays,
                           JoinTimings* timings) {
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;
  LinearProbingTable table(TableBuckets(r.n), cfg.seed);

  // One shared table: the build's pool dispatches return before the probe's
  // starts, so probe lanes see the complete table. The vectorized probe
  // emits a match when its lane reaches it, so the output order follows the
  // table layout, which BuildShared keeps equal to the serial build's at
  // every lane count.
  Timer timer;
  table.BuildShared(r.keys, r.pays, r.n, t_count);
  const double build_s = timer.Seconds();

  timer.Reset();
  const size_t total =
      ProbeMorsels(table, s, cfg, t_count, out_keys, out_rpays, out_spays);
  const double probe_s = timer.Seconds();
  g_join_build_ns.Record(SecondsToNs(build_s));
  g_join_probe_ns.Record(SecondsToNs(probe_s));
  if (timings != nullptr) {
    timings->build_s = build_s;
    timings->probe_s = probe_s;
  }
  return total;
}

size_t HashJoinMinPartition(const JoinRelation& r, const JoinRelation& s,
                            const JoinConfig& cfg, uint32_t* out_keys,
                            uint32_t* out_rpays, uint32_t* out_spays,
                            JoinTimings* timings) {
  const int t_count = cfg.threads < 1 ? 1 : cfg.threads;

  // Partition R into the table's home-bucket ranges, then fill every range
  // on its own lane without atomics: the executor's build, which on one
  // lane is one range and the serial walk.
  Timer timer;
  const size_t nb = TableBuckets(r.n);
  LinearProbingTable table(nb, cfg.seed);
  const uint32_t parts = LinearProbingTable::BuildPartitions(
      nb, TaskPool::LaneCount(r.n, t_count));
  double partition_s = 0;
  table.BuildPartitioned(cfg.isa, r.keys, r.pays, r.n, t_count, parts,
                         &partition_s);
  const double build_s = timer.Seconds() - partition_s;
  g_join_partition_ns.Record(SecondsToNs(partition_s));
  g_join_build_ns.Record(SecondsToNs(build_s));
  if (timings != nullptr) {
    timings->partition_s = partition_s;
    timings->build_s = build_s;
  }

  timer.Reset();
  const size_t total =
      ProbeMorsels(table, s, cfg, t_count, out_keys, out_rpays, out_spays);
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

  Timer timer;
  AlignedBuffer<uint32_t> r_keys_a(ShuffleCapacity(r.n)),
      r_pays_a(ShuffleCapacity(r.n));
  AlignedBuffer<uint32_t> s_keys_a(ShuffleCapacity(s.n)),
      s_pays_a(ShuffleCapacity(s.n));
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
  std::vector<uint64_t> seg_begin(p_total), seg_count(p_total);
  const int lanes = TaskPool::LaneCount(p_total, t_count);
  // One cache-resident table per lane, sized for the largest part and
  // cleared for every part that lane ends up claiming (including stolen
  // ones — skewed parts rebalance).
  std::vector<std::unique_ptr<LinearProbingTable>> tables(lanes);
  const Isa probe_isa = ProbeIsa(cfg);
  TaskPool::Get().ParallelFor(p_total, t_count, [&](int worker, size_t task) {
    uint32_t q = static_cast<uint32_t>(task);
    uint32_t rb = r_bounds[q];
    uint32_t rn = r_bounds[q + 1] - rb;
    uint32_t sb = s_bounds[q];
    uint32_t sn = s_bounds[q + 1] - sb;
    seg_begin[q] = sb;
    if (sn == 0) {
      seg_count[q] = 0;
      return;
    }
    std::unique_ptr<LinearProbingTable>& table = tables[worker];
    if (table == nullptr) {
      table = std::make_unique<LinearProbingTable>(TableBuckets(max_part),
                                                   cfg.seed);
    } else {
      table->Clear();
    }
    if (vec) {
      table->BuildAvx512(rk + rb, rp + rb, rn, /*assume_unique_keys=*/true);
    } else {
      table->BuildScalar(rk + rb, rp + rb, rn);
    }
    seg_count[q] = table->Probe(probe_isa, sk + sb, sp + sb, sn,
                                out_keys + sb, out_spays + sb, out_rpays + sb);
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
