// Extension benchmark: end-to-end composed query through the executor
// (src/exec/). The plan is TPC-H Q3 shaped — filter a 128K-row dimension R
// on its key range, build the join table, filter a 2M-row fact S on a value
// predicate, probe, and group the join output by R's attribute with
// SUM/COUNT/MIN/MAX — the same kernels every operator bench measures in
// isolation, now run as the executor's two fused pipelines (build, then
// probe) over its chunk grids.
//
// Sweep: isa {scalar, avx2, avx512} x S selectivity {ramp, 1%, 10%, 50%} x
// threads {1, 8}. Every R key range below is dense, so the executor joins
// through the direct-indexed table; BM_ExecQuerySparseKeys keeps an
// end-to-end row on the hash table.
//
// Selectivity 0 is the phase-changing input: S values ramp linearly with
// row position, so under the fixed predicate the per-chunk qualifier
// density slides from 100% down to 0% across the table.
//
// Under --metrics (or the metrics-forced CI build) each row carries the
// executor's observability instruments: chunks_pushed (the build grid plus
// the probe grid per query), pipelines_fused (two per query) and the phase
// timers exec_build_ns and exec_fused_ns.
//
// BM_DecodeBlock times the compressed scan's decode kernels alone, per ISA,
// width and encoding (FOR unpack, or delta unpack plus prefix sum).

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "compress/column.h"
#include "compress/pack.h"
#include "exec/query.h"
#include "util/rng.h"

namespace simddb::bench {
namespace {

constexpr size_t kRTuples = size_t{128} << 10;  // dimension: 128K rows
constexpr size_t kSTuples = size_t{2} << 20;    // fact: 2M rows
constexpr uint32_t kValMax = 999'999;

/// Selectivity axis sentinel: 0 selects the phase-changing ramp input.
constexpr uint32_t kSelRamp = 0;

void BM_ExecQuery(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const uint32_t sel_pct = static_cast<uint32_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  if (!RequireIsa(state, isa)) return;

  // R keys must be unique for the PK-FK join: sequential 1..kRTuples.
  static AlignedBuffer<uint32_t>* r_keys = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillSequential(b->data(), kRTuples, 1);
    return b;
  }();
  static AlignedBuffer<uint32_t>* r_attrs = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillUniform(b->data(), kRTuples, 5, 1, 1024);
    return b;
  }();
  const auto& s = KeyPayColumns::Get(kSTuples, 1,
                                     static_cast<uint32_t>(kRTuples), 6);
  static AlignedBuffer<uint32_t>* s_vals = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    FillUniform(b->data(), kSTuples, 7, 0, kValMax);
    return b;
  }();
  // Phase-changing input: values ramp linearly with row position, so the
  // fixed `val <= kValMax/2` predicate below qualifies ~100% of early
  // chunks and ~0% of late ones — the per-chunk selectivity slides through
  // the scalar/vector crossover mid-query.
  static AlignedBuffer<uint32_t>* s_vals_ramp = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    for (size_t i = 0; i < kSTuples; ++i) {
      b->data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1} * i / kSTuples);
    }
    return b;
  }();

  exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r_keys->data();
  plan.r_attrs = r_attrs->data();
  plan.n_r = kRTuples;
  plan.r_lo = 1;
  plan.r_hi = static_cast<uint32_t>((3 * kRTuples) / 4);  // keep 75% of R
  plan.s_fks = s.keys.data();
  plan.s_vals = sel_pct == kSelRamp ? s_vals_ramp->data() : s_vals->data();
  plan.n_s = kSTuples;
  plan.s_lo = 0;
  // sel% of S for the uniform inputs; the ramp keeps ~50% overall but
  // distributes it as a 100% -> 0% per-chunk density slide.
  plan.s_hi = sel_pct == kSelRamp
                  ? kValMax / 2
                  : static_cast<uint32_t>(
                        (uint64_t{kValMax} + 1) * sel_pct / 100 - 1);

  exec::ExecConfig cfg;
  cfg.isa = isa;
  cfg.threads = threads;

  size_t groups = 0;
  for (auto _ : state) {
    exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
    groups = res.group_keys.size();
    benchmark::DoNotOptimize(res.sums.data());
  }
  // Throughput over the fact table: the fact scan dominates the input.
  SetTuplesPerSecond(state, static_cast<double>(kSTuples));
  state.SetLabel(std::string("query_q3") + " isa=" + IsaName(isa) +
                 " sel=" + std::to_string(sel_pct) +
                 " threads=" + std::to_string(threads) +
                 " groups=" + std::to_string(groups));
}

// {isa, S selectivity % (0 = ramp), threads}. Fixed iterations so the
// counter totals are comparable across rows; wall-clock since the work
// spans lanes.
BENCHMARK(BM_ExecQuery)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 10, 50}, {1, 8}})
    ->Iterations(40)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sparse build keys: the BM_ExecQuery plan at 10% selectivity with R's keys
// spread 16 apart and S's foreign keys following them. The 96K-key build
// side then spans 1.5M key values, more than twice its 2^18-bucket hash
// table, so HashBuildOp builds the LinearProbingTable; every other row of
// this binary has dense keys and builds the direct-indexed table. Args
// {isa, S selectivity %, threads}.
constexpr uint32_t kSparseKeyStride = 16;

void BM_ExecQuerySparseKeys(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const uint32_t sel_pct = static_cast<uint32_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  if (!RequireIsa(state, isa)) return;

  static AlignedBuffer<uint32_t>* r_keys = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    for (size_t i = 0; i < kRTuples; ++i) {
      (*b)[i] = static_cast<uint32_t>(1 + i * kSparseKeyStride);
    }
    return b;
  }();
  static AlignedBuffer<uint32_t>* r_attrs = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillUniform(b->data(), kRTuples, 5, 1, 1024);
    return b;
  }();
  static AlignedBuffer<uint32_t>* s_fks = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    FillUniform(b->data(), kSTuples, 6, 1, static_cast<uint32_t>(kRTuples));
    for (size_t i = 0; i < kSTuples; ++i) {
      (*b)[i] = 1 + ((*b)[i] - 1) * kSparseKeyStride;
    }
    return b;
  }();
  static AlignedBuffer<uint32_t>* s_vals = [] {
    auto* b = new AlignedBuffer<uint32_t>(kSTuples + 16);
    FillUniform(b->data(), kSTuples, 7, 0, kValMax);
    return b;
  }();

  exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r_keys->data();
  plan.r_attrs = r_attrs->data();
  plan.n_r = kRTuples;
  plan.r_lo = 1;
  // The first 75% of R's rows, as in BM_ExecQuery.
  plan.r_hi = static_cast<uint32_t>(1 + ((3 * kRTuples) / 4 - 1) *
                                            kSparseKeyStride);
  plan.s_fks = s_fks->data();
  plan.s_vals = s_vals->data();
  plan.n_s = kSTuples;
  plan.s_lo = 0;
  plan.s_hi =
      static_cast<uint32_t>((uint64_t{kValMax} + 1) * sel_pct / 100 - 1);

  exec::ExecConfig cfg;
  cfg.isa = isa;
  cfg.threads = threads;

  size_t groups = 0;
  for (auto _ : state) {
    exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
    groups = res.group_keys.size();
    benchmark::DoNotOptimize(res.sums.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kSTuples));
  state.SetLabel("query_q3_sparse_keys isa=" + std::string(IsaName(isa)) +
                 " sel=" + std::to_string(sel_pct) +
                 " threads=" + std::to_string(threads) +
                 " groups=" + std::to_string(groups));
}

BENCHMARK(BM_ExecQuerySparseKeys)
    ->ArgsProduct({{0, 1, 2}, {10}, {1, 8}})
    ->Iterations(40)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Compressed storage axis: the same Q3 plan over CompressColumn'd S base
// tables (scan-over-compressed, src/compress/) vs the raw columns. Args
// {isa, sel code, threads, storage 0=raw/1=packed}.
//
// Sel codes reuse the BM_ExecQuery meanings (0 = ramp, 1 = 1% uniform) and
// add 77 = block-clustered: every 1024-row block of S draws both columns
// from a narrow 128-value window whose value base ramps across the domain —
// the layout FOR compression exists for. Clustered rows carry the footprint
// counters the >= 4x gate divides (compress_packed_bytes /
// compress_raw_bytes), and under the 1% predicate their zone maps skip
// ~99% of blocks, which is what makes the compressed-not-slower compare
// gate hold: the scan classifies most blocks from metadata alone and never
// touches their packed bytes, while the raw baseline streams all 16 MB.
// Ramp rows gate the skip protocol itself (blocks_skipped /
// blocks_all_pass / bytes_unpacked): the predicate keeps the first half of
// the value blocks entirely (decode-as-emit) and skips the second half.
constexpr uint32_t kSelClustered = 77;

void BM_ExecQueryCompressed(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const uint32_t sel_code = static_cast<uint32_t>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  const bool compressed = state.range(3) != 0;
  if (!RequireIsa(state, isa)) return;

  static AlignedBuffer<uint32_t>* r_keys = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillSequential(b->data(), kRTuples, 1);
    return b;
  }();
  static AlignedBuffer<uint32_t>* r_attrs = [] {
    auto* b = new AlignedBuffer<uint32_t>(kRTuples + 16);
    FillUniform(b->data(), kRTuples, 5, 1, 1024);
    return b;
  }();

  struct SColumns {
    AlignedBuffer<uint32_t> fks, vals;
    compress::CompressedColumn fks_c, vals_c;
  };
  static SColumns* s_uniform = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    FillUniform(s->fks.data(), kSTuples, 6, 1,
                static_cast<uint32_t>(kRTuples));
    FillUniform(s->vals.data(), kSTuples, 7, 0, kValMax);
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();
  static SColumns* s_ramp = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    FillUniform(s->fks.data(), kSTuples, 6, 1,
                static_cast<uint32_t>(kRTuples));
    for (size_t i = 0; i < kSTuples; ++i) {
      s->vals.data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1} * i / kSTuples);
    }
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();
  static SColumns* s_clustered = [] {
    auto* s = new SColumns;
    s->fks.Reset(kSTuples + 16);
    s->vals.Reset(kSTuples + 16);
    Pcg32 rng(8);
    const size_t n_blocks =
        (kSTuples + compress::kBlockTuples - 1) / compress::kBlockTuples;
    for (size_t i = 0; i < kSTuples; ++i) {
      const size_t block = i / compress::kBlockTuples;
      // FK locality: each block references a 128-key neighborhood of R.
      s->fks.data()[i] = 1 +
                         static_cast<uint32_t>((block * 677) %
                                               (kRTuples - 128)) +
                         rng.NextBounded(128);
      // Value locality: 128-wide window whose base ramps across the domain,
      // so per-block zone maps are tight and widths are 7 bits.
      s->vals.data()[i] =
          static_cast<uint32_t>(uint64_t{kValMax + 1 - 128} * block /
                                n_blocks) +
          rng.NextBounded(128);
    }
    s->fks_c = compress::CompressColumn(s->fks.data(), kSTuples);
    s->vals_c = compress::CompressColumn(s->vals.data(), kSTuples);
    return s;
  }();

  const SColumns& s = sel_code == kSelRamp        ? *s_ramp
                      : sel_code == kSelClustered ? *s_clustered
                                                  : *s_uniform;

  exec::ScanJoinAggregatePlan plan;
  plan.r_keys = r_keys->data();
  plan.r_attrs = r_attrs->data();
  plan.n_r = kRTuples;
  plan.r_lo = 1;
  plan.r_hi = static_cast<uint32_t>((3 * kRTuples) / 4);
  plan.s_fks = s.fks.data();
  plan.s_vals = s.vals.data();
  plan.n_s = kSTuples;
  plan.s_lo = 0;
  // The ramp keeps its ~50% predicate; clustered rows run the 1% predicate
  // (1% of the value domain ~= 1% of the blocks, the skip showcase).
  plan.s_hi = sel_code == kSelRamp
                  ? kValMax / 2
                  : static_cast<uint32_t>((uint64_t{kValMax} + 1) *
                                              (sel_code == kSelClustered
                                                   ? 1
                                                   : sel_code) /
                                              100 -
                                          1);
  if (compressed) {
    plan.s_fks_c = &s.fks_c;
    plan.s_vals_c = &s.vals_c;
  }

  exec::ExecConfig cfg;
  cfg.isa = isa;
  cfg.threads = threads;

  size_t groups = 0;
  for (auto _ : state) {
    exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
    groups = res.group_keys.size();
    benchmark::DoNotOptimize(res.sums.data());
  }
  SetTuplesPerSecond(state, static_cast<double>(kSTuples));
  if (compressed) {
    // Static storage properties, not per-iteration deltas: the footprint
    // gate divides them directly (S payload+meta over S raw bytes).
    state.counters["compress_packed_bytes"] = benchmark::Counter(
        static_cast<double>(s.fks_c.packed_bytes() + s.vals_c.packed_bytes()));
    state.counters["compress_raw_bytes"] = benchmark::Counter(
        static_cast<double>(s.fks_c.raw_bytes() + s.vals_c.raw_bytes()));
  }
  state.SetLabel(std::string(compressed ? "query_q3_compressed"
                                        : "query_q3_raw") +
                 " isa=" + IsaName(isa) +
                 " sel=" + std::to_string(sel_code) +
                 " threads=" + std::to_string(threads) +
                 " storage=" + (compressed ? "packed" : "raw") +
                 " groups=" + std::to_string(groups));
}

// {isa, sel code (0 = ramp, 1 = 1% uniform, 77 = clustered), threads,
// storage}. Raw/packed pairs register adjacently per cell so the
// compressed-vs-raw compare gates measure them seconds apart: on a shared
// host the ambient load drifts by tens of percent across a full sweep.
BENCHMARK(BM_ExecQueryCompressed)
    ->ArgsProduct({{0, 2}, {0}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {0}, {8}, {0, 1}})
    ->ArgsProduct({{0, 2}, {1}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {1}, {8}, {0, 1}})
    ->ArgsProduct({{0, 2}, {77}, {1}, {0, 1}})
    ->ArgsProduct({{0, 2}, {77}, {8}, {0, 1}})
    ->Iterations(40)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Decode kernels: each iteration decodes 1,024 packed 1,024-value blocks,
// one after another, into one chunk-sized output buffer that stays in L1,
// through the entries CompressedColumn::DecodeBlock calls: UnpackBlock for
// FOR blocks, UnpackDeltaBlock (unpack plus prefix sum) for delta blocks.
// Every block holds random bits-wide values. Args {isa, bits, encoding
// 0=FOR/1=delta}.
constexpr size_t kDecodeBlocks = 1024;

void BM_DecodeBlock(benchmark::State& state) {
  const Isa isa = static_cast<Isa>(state.range(0));
  const unsigned bits = static_cast<unsigned>(state.range(1));
  const bool delta = state.range(2) != 0;
  if (!RequireIsa(state, isa)) return;

  const size_t words = compress::PackedWords(compress::kBlockTuples, bits);
  AlignedBuffer<uint32_t> packed(
      compress::PackedWordsCapacity(kDecodeBlocks * compress::kBlockTuples,
                                    bits));
  packed.Clear();
  const uint32_t mask =
      bits == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << bits) - 1);
  Pcg32 rng(bits);
  std::vector<uint32_t> vals(compress::kBlockTuples);
  for (size_t b = 0; b < kDecodeBlocks; ++b) {
    for (uint32_t& v : vals) v = rng.Next() & mask;
    compress::PackBlock(vals.data(), vals.size(), 0, bits,
                        packed.data() + b * words);
  }
  AlignedBuffer<uint32_t> out(compress::PackedCapacity(compress::kBlockTuples));

  for (auto _ : state) {
    for (size_t b = 0; b < kDecodeBlocks; ++b) {
      const uint32_t* src = packed.data() + b * words;
      if (delta) {
        compress::UnpackDeltaBlock(isa, src, compress::kBlockTuples, 7, bits,
                                   out.data(), out.size());
      } else {
        compress::UnpackBlock(isa, src, compress::kBlockTuples, 7, bits,
                              out.data(), out.size());
      }
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  SetTuplesPerSecond(state,
                     static_cast<double>(kDecodeBlocks * compress::kBlockTuples));
  state.SetLabel(std::string("decode_block isa=") + IsaName(isa) +
                 " bits=" + std::to_string(bits) +
                 " enc=" + (delta ? "delta" : "for"));
}

BENCHMARK(BM_DecodeBlock)
    ->ArgsProduct({{0, 1, 2}, {1, 10, 16, 20, 32}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
