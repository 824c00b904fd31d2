#include "exec/adaptive.h"

#include <cassert>

namespace simddb::exec {
namespace {

// Registry keeps raw pointers, so instruments must have static storage.
obs::Counter g_switches("adaptive_switches");
obs::Counter g_explore_chunks("explore_chunks");

// Per-operator chosen-variant histogram: one counter per (kind, isa[, scan
// mode]) cell, bumped once per chunk (or fused window) that ran the
// variant. The scan-representation axis only exists where the dispatcher
// can actually switch representations (scan source, fused window).
obs::Counter g_scan_scalar_compact("chosen_scan_scalar_compact");
obs::Counter g_scan_scalar_bitmap("chosen_scan_scalar_bitmap");
obs::Counter g_scan_avx2_compact("chosen_scan_avx2_compact");
obs::Counter g_scan_avx2_bitmap("chosen_scan_avx2_bitmap");
obs::Counter g_scan_avx512_compact("chosen_scan_avx512_compact");
obs::Counter g_scan_avx512_bitmap("chosen_scan_avx512_bitmap");
obs::Counter g_bloom_scalar("chosen_bloom_scalar");
obs::Counter g_bloom_avx2("chosen_bloom_avx2");
obs::Counter g_bloom_avx512("chosen_bloom_avx512");
obs::Counter g_join_scalar("chosen_join_scalar");
obs::Counter g_join_avx2("chosen_join_avx2");
obs::Counter g_join_avx512("chosen_join_avx512");
obs::Counter g_groupby_scalar("chosen_groupby_scalar");
obs::Counter g_groupby_avx2("chosen_groupby_avx2");
obs::Counter g_groupby_avx512("chosen_groupby_avx512");
obs::Counter g_fused_scalar_compact("chosen_fused_scalar_compact");
obs::Counter g_fused_scalar_bitmap("chosen_fused_scalar_bitmap");
obs::Counter g_fused_avx2_compact("chosen_fused_avx2_compact");
obs::Counter g_fused_avx2_bitmap("chosen_fused_avx2_bitmap");
obs::Counter g_fused_avx512_compact("chosen_fused_avx512_compact");
obs::Counter g_fused_avx512_bitmap("chosen_fused_avx512_bitmap");

obs::Counter* ChosenCounter(OpKind kind, const AdaptiveVariant& v) {
  const int i = static_cast<int>(v.isa);
  const bool bm = v.scan_mode == ScanMode::kBitmap;
  switch (kind) {
    case OpKind::kScan: {
      static obs::Counter* const t[3][2] = {
          {&g_scan_scalar_compact, &g_scan_scalar_bitmap},
          {&g_scan_avx2_compact, &g_scan_avx2_bitmap},
          {&g_scan_avx512_compact, &g_scan_avx512_bitmap}};
      return t[i][bm];
    }
    case OpKind::kBloomProbe: {
      static obs::Counter* const t[3] = {&g_bloom_scalar, &g_bloom_avx2,
                                         &g_bloom_avx512};
      return t[i];
    }
    case OpKind::kJoinProbe: {
      static obs::Counter* const t[3] = {&g_join_scalar, &g_join_avx2,
                                         &g_join_avx512};
      return t[i];
    }
    case OpKind::kGroupBy: {
      static obs::Counter* const t[3] = {&g_groupby_scalar, &g_groupby_avx2,
                                         &g_groupby_avx512};
      return t[i];
    }
    case OpKind::kFusedWindow: {
      static obs::Counter* const t[3][2] = {
          {&g_fused_scalar_compact, &g_fused_scalar_bitmap},
          {&g_fused_avx2_compact, &g_fused_avx2_bitmap},
          {&g_fused_avx512_compact, &g_fused_avx512_bitmap}};
      return t[i][bm];
    }
  }
  return &g_scan_scalar_compact;
}

ScanMode OtherMode(ScanMode m) {
  return m == ScanMode::kCompact ? ScanMode::kBitmap : ScanMode::kCompact;
}

}  // namespace

AdaptiveDispatcher::AdaptiveDispatcher(const ExecConfig& cfg,
                                       ScanMode plan_scan_mode) {
  seed_ = cfg.seed;
  rotate_for_testing_ = cfg.adaptive.rotate_for_testing;
  // ISA candidates, static choice first so variant 0 == static dispatch and
  // the pre-timing winner is exactly what IsaMode::kStatic would have run.
  std::vector<Isa> isas{cfg.isa};
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (isa != cfg.isa && IsaSupported(isa)) isas.push_back(isa);
  }
  for (int k = 0; k < kNumOpKinds; ++k) {
    OpState& s = ops_[k];
    const OpKind kind = static_cast<OpKind>(k);
    // The representation axis applies where the dispatcher can actually
    // switch representations per chunk: the dynamic scan source. The fused
    // path routes per-ISA only — each extra fused variant is a whole extra
    // FusedPipeline instantiation whose per-lane state must be Prepared
    // every query and explored every round, and doubling the set for the
    // mode axis costs more in setup + explore tax than the compact/bitmap
    // spread recovers (the fused scan's bitmap conversion is fused into
    // the pipeline either way).
    const bool has_mode_axis = kind == OpKind::kScan;
    for (ScanMode mode : {plan_scan_mode, OtherMode(plan_scan_mode)}) {
      for (Isa isa : isas) s.variants.push_back({isa, mode});
      if (!has_mode_axis) break;
    }
    s.stats = std::vector<VariantStats>(s.variants.size());
    if (kind == OpKind::kFusedWindow) {
      // The fused driver paces its own schedule (it precomputes the whole
      // round/span structure and runs the grid in one dispatch, resolving
      // exploit winners lazily via DecideAndGetWinner), so it never calls
      // Acquire; the lengths are set for completeness only.
      s.explore_len = 1;
      s.exploit_len = 1;
    } else {
      s.explore_len = cfg.adaptive.explore_chunks < 1
                          ? 1
                          : cfg.adaptive.explore_chunks;
      s.exploit_len = cfg.adaptive.exploit_chunks < 1
                          ? 1
                          : cfg.adaptive.exploit_chunks;
    }
  }
}

AdaptiveDispatcher::Ticket AdaptiveDispatcher::Acquire(OpKind kind) {
  OpState& s = ops_[static_cast<int>(kind)];
  const uint64_t v = static_cast<uint64_t>(s.variants.size());
  Ticket t;
  if (v <= 1) {
    // One variant: nothing to time, nothing to switch.
    ChosenCounter(kind, s.variants[0])->Add(1);
    return t;
  }
  const uint64_t explore_span = v * s.explore_len;
  const uint64_t round_len = explore_span + s.exploit_len;
  const uint64_t pos_total = s.seq.fetch_add(1, std::memory_order_relaxed);
  const uint64_t round = pos_total / round_len;
  const uint64_t pos = pos_total % round_len;
  if (pos == 0) {
    // New round: decay the accumulated samples (halve, don't reset). One
    // explore window is a small noisy sample, so the decision blends fresh
    // evidence with a geometrically-fading history; a real phase flip still
    // overturns the history within a couple of rounds. Lanes still
    // reporting the old round race benignly — timing noise, never
    // correctness.
    for (VariantStats& st : s.stats) {
      st.ns.store(st.ns.load(std::memory_order_relaxed) / 2,
                  std::memory_order_relaxed);
      st.tuples.store(st.tuples.load(std::memory_order_relaxed) / 2,
                      std::memory_order_relaxed);
    }
  }
  if (pos < explore_span) {
    // Rotate the explore order by round and seed: the first-explored
    // variant pays any cold-cache cost, so it must not always be the same.
    t.variant = static_cast<int>((pos / s.explore_len + round + seed_) % v);
    t.explore = true;
    g_explore_chunks.Add(1);
  } else {
    if (pos == explore_span) DecideWinner(s, kind, round);
    t.variant = s.winner.load(std::memory_order_relaxed);
  }
  ChosenCounter(kind, s.variants[static_cast<size_t>(t.variant)])->Add(1);
  return t;
}

void AdaptiveDispatcher::Report(OpKind kind, int variant, uint64_t ns,
                                uint64_t tuples) {
  OpState& s = ops_[static_cast<int>(kind)];
  VariantStats& st = s.stats[static_cast<size_t>(variant)];
  // Empty chunks cost ~0ns on every variant; clamp so they cannot divide
  // the round's cost estimate by zero.
  const uint64_t tu = tuples < 1 ? 1 : tuples;
  // Outlier clamp: on a shared host a single preemption (tens of µs to ms)
  // landing inside one timed chunk would otherwise poison the variant's
  // whole round — and, with decay, the next couple of decisions. Once a
  // variant has enough history to know its own scale, cap each sample at
  // 8x its historical per-tuple cost: real variant gaps are a few x, so
  // the clamp only ever bites on scheduling noise.
  const uint64_t hist_ns = st.ns.load(std::memory_order_relaxed);
  const uint64_t hist_tu = st.tuples.load(std::memory_order_relaxed);
  if (hist_tu >= 4 && hist_ns > 0) {
    const double cap =
        8.0 * static_cast<double>(hist_ns) / static_cast<double>(hist_tu) *
        static_cast<double>(tu);
    if (static_cast<double>(ns) > cap) ns = static_cast<uint64_t>(cap);
  }
  st.ns.fetch_add(ns, std::memory_order_relaxed);
  st.tuples.fetch_add(tu, std::memory_order_relaxed);
}

bool AdaptiveDispatcher::DecideWinner(OpState& s, OpKind kind,
                                      uint64_t round) {
  // First lane past the explore span of this round decides; later lanes of
  // the same round see decided_round already advanced and keep the winner.
  uint64_t expected = s.decided_round.load(std::memory_order_relaxed);
  if (expected > round ||
      !s.decided_round.compare_exchange_strong(expected, round + 1,
                                               std::memory_order_relaxed)) {
    return false;
  }
  const int v = static_cast<int>(s.variants.size());
  const int old_winner = s.winner.load(std::memory_order_relaxed);
  int best = old_winner;
  if (rotate_for_testing_) {
    // Deterministic test schedule: force a different winner every round so
    // the byte-identity matrix provably crosses a switch inside a morsel
    // grid regardless of real kernel timings.
    best = static_cast<int>(round % static_cast<uint64_t>(v));
  } else {
    double best_cost = -1.0;
    double incumbent_cost = -1.0;
    for (int i = 0; i < v; ++i) {
      const uint64_t ns = s.stats[i].ns.load(std::memory_order_relaxed);
      const uint64_t tu = s.stats[i].tuples.load(std::memory_order_relaxed);
      if (tu == 0) continue;  // no sample yet: not eligible
      const double cost = static_cast<double>(ns) / static_cast<double>(tu);
      if (i == old_winner) incumbent_cost = cost;
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    // Hysteresis: a challenger must beat the incumbent by >10% to take
    // over. Variants that genuinely tie (tiny kernel inputs at very low
    // selectivity) must not flip-flop on measurement jitter.
    if (best != old_winner && incumbent_cost >= 0.0 &&
        best_cost > 0.9 * incumbent_cost) {
      best = old_winner;
    }
  }
  if (best != old_winner) {
    s.winner.store(best, std::memory_order_relaxed);
    switches_.fetch_add(1, std::memory_order_relaxed);
    g_switches.Add(1);
  }
  (void)kind;
  return true;
}

int AdaptiveDispatcher::DecideAndGetWinner(OpKind kind, uint64_t round) {
  OpState& s = ops_[static_cast<int>(kind)];
  if (DecideWinner(s, kind, round)) {
    // This call closed round `round`: decay the samples so the next round
    // blends fresh evidence with a halved history — the same per-round
    // blending Acquire's pos==0 path applies to the chunk-paced kinds.
    // Lanes still reporting this round's explore chunks race benignly.
    for (VariantStats& st : s.stats) {
      st.ns.store(st.ns.load(std::memory_order_relaxed) / 2,
                  std::memory_order_relaxed);
      st.tuples.store(st.tuples.load(std::memory_order_relaxed) / 2,
                      std::memory_order_relaxed);
    }
  }
  return s.winner.load(std::memory_order_relaxed);
}

void AdaptiveDispatcher::CountChosen(OpKind kind, int variant,
                                     uint64_t chunks) {
  OpState& s = ops_[static_cast<int>(kind)];
  ChosenCounter(kind, s.variants[static_cast<size_t>(variant)])->Add(chunks);
}

void AdaptiveDispatcher::CountExplored(uint64_t chunks) {
  g_explore_chunks.Add(chunks);
}

}  // namespace simddb::exec
