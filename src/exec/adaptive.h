#ifndef SIMDDB_EXEC_ADAPTIVE_H_
#define SIMDDB_EXEC_ADAPTIVE_H_

// Micro-adaptive operator selection (Vectorwise-style micro-adaptivity).
//
// BENCH_query.json shows the static per-query ISA choice is a real
// performance bug: gather/compress-heavy kernels (bloom probe, join probe)
// invert their scalar-vs-vector ranking with input selectivity — at 50%
// fact selectivity the AVX2 bloom probe is >2x slower than scalar, while at
// 1-10% it wins — exactly the input dependence the source paper predicts.
// No plan-time choice is right for a phase-changing input, so the executor
// re-times its variants on live chunks and switches mid-query.
//
// The AdaptiveDispatcher keeps one schedule per operator kind (scan, bloom
// probe, join probe, group-by, fused window); the table build has one
// kernel on every ISA (HashBuildOp), so it has none. Each schedule cycles
// through rounds of
//
//   explore:  K chunks per variant, timed (obs::ThreadCpuNs around the
//             kernel call only — CPU time, so a preempted lane doesn't
//             charge the stall to the variant it was running), accumulated
//             as ns/tuple per variant;
//   exploit:  M chunks on the round's winner, untimed.
//
// Variants are {scalar, AVX2, AVX-512} filtered by host capability, crossed
// with {compact, bitmap} for the dynamic scan source (the fused path routes
// per-ISA only: an extra fused variant is a whole extra FusedPipeline whose
// per-lane state must be Prepared every query and explored every round). Re-exploring every round tracks phase changes (selectivity ramps,
// clustered keys); the explore order rotates by round and by cfg.seed so
// repeated runs do not always charge the same variant for the cold chunk.
// Timing statistics DECAY at round boundaries (halved, not reset): a single
// explore window is a small, noisy sample — especially the fused whole-window
// wall times — so the winner decision weighs fresh evidence against a
// geometrically-fading history instead of betting M chunks on two
// measurements. A phase flip still overturns the history within ~2 rounds.
// The incumbent winner also gets 10% hysteresis: near-equal variants (common
// at very low selectivity, where every kernel sees a handful of tuples) must
// not flip-flop on measurement jitter. Individual samples are clamped at 8x
// the variant's historical per-tuple cost — on a shared host one preemption
// inside a timed chunk would otherwise poison a whole round's decision.
//
// One attribution rule keeps the greedy per-op decisions honest: a
// bitmap-mode scan defers its compaction cost to whichever downstream
// operator first Compacts the chunk, so in adaptive mode the scan compacts
// inside its own timed scope — the representation axis is judged on its
// end-to-end per-chunk cost, not on the cheap half it would externalize.
//
// Correctness is free: every variant of every operator produces the same
// canonical result by construction (the exec_test.cc / exec_adaptive_test.cc
// matrices prove byte-identity across ISAs, scan modes, threads, and chunk
// sizes), so the dispatcher can switch on any chunk boundary — including in
// the middle of a morsel-parallel ParallelFor — without any barrier. All
// dispatcher state is relaxed atomics: concurrent lanes may race on the
// timing statistics, which can only perturb *which* variant wins, never what
// the query returns (benign by design, and clean under TSan).
//
// Observability: `adaptive_switches` counts winner changes, `explore_chunks`
// counts timed chunks, and the per-operator `chosen_<op>_<variant>` counters
// histogram which variant each chunk actually ran — all exported into bench
// JSONL rows by the registry like every other instrument.

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/isa.h"
#include "exec/pipeline.h"
#include "obs/metrics.h"

namespace simddb::exec {

/// Operator kinds with their own adaptive schedule. kFusedWindow routes the
/// per-ISA FusedPipeline instantiations at span granularity: the fused
/// driver (fused.cc) precomputes its round/span structure, runs the whole
/// grid in one dispatch, and resolves each exploit span's winner lazily via
/// DecideAndGetWinner instead of calling Acquire per chunk.
enum class OpKind : int {
  kScan = 0,
  kBloomProbe = 1,
  kJoinProbe = 2,
  kGroupBy = 3,
  kFusedWindow = 4,
};
inline constexpr int kNumOpKinds = 5;

/// One selectable implementation of an operator kind. scan_mode is
/// meaningful for kScan only (the representation axis); the other kinds —
/// including kFusedWindow, which routes per-ISA — carry the plan's mode
/// unchanged.
struct AdaptiveVariant {
  Isa isa = Isa::kScalar;
  ScanMode scan_mode = ScanMode::kCompact;
};

class AdaptiveDispatcher {
 public:
  /// Builds the per-kind variant lists from the host's supported ISAs.
  /// Variant 0 of every kind is the static choice (cfg.isa, plan scan
  /// mode), so the initial winner before any timing equals static dispatch.
  AdaptiveDispatcher(const ExecConfig& cfg, ScanMode plan_scan_mode);

  struct Ticket {
    int variant = 0;    ///< index into variants(kind)
    bool explore = false;  ///< true: caller times the kernel and Reports
  };

  /// Claims the next schedule slot for one chunk (or one fused window) of
  /// `kind`. Thread-safe; called concurrently by worker lanes.
  Ticket Acquire(OpKind kind);

  /// Records an explore measurement. `tuples` normalizes the cost (chunk
  /// sizes differ at grid tails); pass the kernel's input tuple count, or
  /// the window's chunk count for kFusedWindow.
  void Report(OpKind kind, int variant, uint64_t ns, uint64_t tuples);

  /// Deterministic explore-slot variant for schedules the caller paces
  /// itself (the fused driver precomputes its whole round/span structure
  /// and runs it in one dispatch, so it cannot thread Acquire's positional
  /// counter through the lanes). Same rotation as Acquire's explore slots.
  int ExploreVariant(OpKind kind, uint64_t round, int slot) const {
    const OpState& s = ops_[static_cast<int>(kind)];
    const uint64_t v = static_cast<uint64_t>(s.variants.size());
    if (v <= 1) return 0;
    return static_cast<int>((static_cast<uint64_t>(slot) + round + seed_) % v);
  }

  /// Decides round `round`'s winner from the samples reported so far and
  /// returns it; idempotent per round (first caller decides, later callers
  /// read). The stats decay happens here — once per decided round — so a
  /// self-paced schedule gets the same halve-per-round blending Acquire's
  /// pos==0 path gives the chunk-paced kinds.
  int DecideAndGetWinner(OpKind kind, uint64_t round);

  /// Bumps the chosen-variant histogram: self-paced schedules count their
  /// own chunks (Acquire does this for the chunk-paced kinds).
  void CountChosen(OpKind kind, int variant, uint64_t chunks);
  /// Bumps the explore_chunks instrument for self-paced explore work.
  void CountExplored(uint64_t chunks);

  const AdaptiveVariant& variant(OpKind kind, int v) const {
    return ops_[static_cast<int>(kind)].variants[static_cast<size_t>(v)];
  }
  int num_variants(OpKind kind) const {
    return static_cast<int>(ops_[static_cast<int>(kind)].variants.size());
  }
  /// The current exploit choice (for tests and diagnostics).
  const AdaptiveVariant& current(OpKind kind) const {
    const OpState& s = ops_[static_cast<int>(kind)];
    return s.variants[static_cast<size_t>(
        s.winner.load(std::memory_order_relaxed))];
  }
  uint64_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

 private:
  struct VariantStats {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> tuples{0};
    VariantStats() = default;
    VariantStats(const VariantStats&) {}
  };
  struct OpState {
    std::vector<AdaptiveVariant> variants;
    std::vector<VariantStats> stats;  ///< current round's explore samples
    std::atomic<uint64_t> seq{0};     ///< schedule position (chunks/windows)
    std::atomic<int> winner{0};
    std::atomic<uint64_t> decided_round{0};  ///< last round a winner was picked
    /// Schedule lengths in Acquire units: explore_len slots per variant,
    /// then exploit_len slots on the winner.
    uint32_t explore_len = 1;
    uint32_t exploit_len = 1;
  };

  /// Returns true when this call won the once-per-round decision race.
  bool DecideWinner(OpState& s, OpKind kind, uint64_t round);

  OpState ops_[kNumOpKinds];
  uint64_t seed_ = 0;
  bool rotate_for_testing_ = false;
  std::atomic<uint64_t> switches_{0};
};

/// RAII helper for the dynamic operators: resolves the effective (isa,
/// scan mode) for one chunk and, on explore tickets, times the enclosed
/// kernel call and reports it. Construct immediately before the kernel,
/// call set_tuples with the kernel's input size, destroy right after.
class AdaptiveOpScope {
 public:
  AdaptiveOpScope(AdaptiveDispatcher* d, OpKind kind, Isa static_isa,
                  ScanMode static_mode)
      : d_(d), kind_(kind), isa_(static_isa), mode_(static_mode) {
    if (d_ == nullptr) return;
    ticket_ = d_->Acquire(kind_);
    const AdaptiveVariant& v = d_->variant(kind_, ticket_.variant);
    isa_ = v.isa;
    mode_ = v.scan_mode;
    if (ticket_.explore) start_ns_ = obs::ThreadCpuNs();
  }
  ~AdaptiveOpScope() {
    if (d_ != nullptr && ticket_.explore) {
      d_->Report(kind_, ticket_.variant, obs::ThreadCpuNs() - start_ns_,
                 tuples_);
    }
  }
  AdaptiveOpScope(const AdaptiveOpScope&) = delete;
  AdaptiveOpScope& operator=(const AdaptiveOpScope&) = delete;

  Isa isa() const { return isa_; }
  ScanMode scan_mode() const { return mode_; }
  void set_tuples(uint64_t n) { tuples_ = n; }

 private:
  AdaptiveDispatcher* d_;
  OpKind kind_;
  Isa isa_;
  ScanMode mode_;
  AdaptiveDispatcher::Ticket ticket_{};
  uint64_t start_ns_ = 0;
  uint64_t tuples_ = 0;
};

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_ADAPTIVE_H_
