#ifndef SIMDDB_OBS_METRICS_H_
#define SIMDDB_OBS_METRICS_H_

// Operator observability: near-zero-overhead counters and phase timers.
//
// The paper argues in per-phase breakdowns (Fig. 13 shuffle phases, Fig. 17
// power proxy) and hardware-event terms (§10); the scheduler's "stealing
// wins" claims need steal counts, not just wall-clock tuples/s. This layer
// provides the substrate every perf PR reports against:
//
//   - `Counter`: a per-worker-sharded monotonic counter (cacheline-padded
//     relaxed atomics, so concurrent lanes never bounce a line);
//   - `PhaseTimer` + `ScopedPhase`: accumulated wall time per named phase,
//     recorded by RAII scopes on the dispatching thread;
//   - `MetricsRegistry`: process-wide name -> instrument directory used by
//     the bench harness to export every sample into JSONL rows.
//
// Overhead contract: everything is gated on MetricsEnabled(), one relaxed
// atomic load + predictable branch, and instrumentation sites sit at
// morsel/phase granularity (>= ~16K tuples of work per event), never inside
// per-tuple loops. Disabled-mode overhead on the fig5 selection-scan bench
// must stay < 2% (see DESIGN.md "Observability"). Metrics are OFF by
// default; enable with the SIMDDB_METRICS=1 environment variable, at
// runtime via EnableMetrics(true), or unconditionally at compile time with
// -DSIMDDB_METRICS=ON (cmake option; defines SIMDDB_METRICS_FORCE).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace simddb::obs {

class QueryMetricSink;

/// True when the build forces metrics on (-DSIMDDB_METRICS=ON); runtime
/// EnableMetrics(false) cannot turn them off in such a build.
inline constexpr bool kMetricsForced =
#ifdef SIMDDB_METRICS_FORCE
    true;
#else
    false;
#endif

namespace detail {
extern std::atomic<bool> g_enabled;  // initialized from SIMDDB_METRICS env
uint32_t ThisThreadShard();          // stable per-thread shard index

/// Credits delta to slot id of the calling thread's attribution sink (see
/// QueryMetricSink), if one is scoped. The thread-local sink pointer is
/// defined and touched only in metrics.cc: the call costs nothing when
/// metrics are off and one call per morsel-granularity event when they
/// are on.
void SinkAdd(uint32_t id, uint64_t delta);

/// Makes sink the calling thread's attribution sink; returns the previous.
QueryMetricSink* ExchangeMetricSink(QueryMetricSink* sink);
}  // namespace detail

/// One relaxed load + branch: the gate every instrument checks first.
inline bool MetricsEnabled() {
  if constexpr (kMetricsForced) return true;
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime switch (no-op in a SIMDDB_METRICS_FORCE build). Counters are not
/// cleared; pair with MetricsRegistry::ResetAll() for a clean measurement.
void EnableMetrics(bool on);

/// Monotonic ns timestamp (steady clock) for phase timing and tracing.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-worker sharded counter. Add() is wait-free: each thread increments
/// its own cacheline-padded shard; Value() sums the shards. Instances must
/// have static storage duration (the registry keeps raw pointers).
class Counter {
 public:
  explicit Counter(const char* name);

  /// Gated add: no-op unless metrics are enabled.
  void Add(uint64_t delta) {
    if (!MetricsEnabled()) return;
    AddAlways(delta);
  }

  /// Ungated add, for call sites that already checked MetricsEnabled().
  /// Also credits the calling thread's attribution sink, if one is scoped
  /// (per-query counter isolation — see QueryMetricSink).
  void AddAlways(uint64_t delta) {
    shards_[detail::ThisThreadShard() & (kShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
    detail::SinkAdd(id_, delta);
  }

  /// Sum over all shards (racy-consistent snapshot, fine for reporting).
  uint64_t Value() const;

  void Reset();

  const char* name() const { return name_; }

  /// Dense registry-assigned instrument id (QueryMetricSink slot index).
  uint32_t id() const { return id_; }

 private:
  static constexpr uint32_t kShards = 32;  // power of two
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  const char* name_;
  uint32_t id_;
  Shard shards_[kShards];
};

/// Accumulated wall time of a named phase. Updated once per phase execution
/// (operator-call granularity), so two plain atomics suffice.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name);

  /// Gated record of one phase execution.
  void Record(uint64_t ns) {
    if (!MetricsEnabled()) return;
    RecordAlways(ns);
  }

  void RecordAlways(uint64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    detail::SinkAdd(id_, ns);
  }

  uint64_t TotalNs() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  uint64_t Calls() const { return calls_.load(std::memory_order_relaxed); }
  void Reset();

  const char* name() const { return name_; }
  uint32_t id() const { return id_; }

 private:
  const char* name_;
  uint32_t id_;
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> calls_{0};
};

/// RAII phase scope: times [construction, destruction) into a PhaseTimer
/// and, when tracing is active, records a chrome-trace event (see trace.h).
/// Costs one MetricsEnabled() check when disabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseTimer& timer)
      : timer_(timer), active_(MetricsEnabled()) {
    if (active_) start_ns_ = NowNs();
  }
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer& timer_;
  bool active_;
  uint64_t start_ns_ = 0;
};

/// One named value in a registry snapshot. Timers sample their total ns
/// under their own name (all timer names end in _ns by convention).
struct MetricSample {
  const char* name;
  uint64_t value;
};

/// Process-wide directory of every Counter/PhaseTimer. Instruments register
/// themselves at static-init time; the bench harness snapshots between
/// cases to attribute deltas to each JSONL row. Registration also assigns
/// each instrument a dense id — the slot index QueryMetricSink accumulates
/// under.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Returns the instrument's dense id (registration order, one id space
  /// shared by counters and timers).
  uint32_t Register(Counter* c);
  uint32_t Register(PhaseTimer* t);

  /// All counters then all timers, in registration order.
  std::vector<MetricSample> Snapshot() const;

  /// Instruments registered so far (== the id ceiling).
  size_t InstrumentCount() const;

  /// Name of the instrument with dense id `id` (nullptr if out of range).
  const char* InstrumentName(uint32_t id) const;

  /// Zeroes every registered instrument (start of a measured region).
  void ResetAll();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::vector<Counter*> counters_;
  std::vector<PhaseTimer*> timers_;
  std::vector<const char*> names_by_id_;  // dense id -> name
};

// ---------------------------------------------------------------------------
// Per-query attribution
// ---------------------------------------------------------------------------

/// Concurrency-safe per-query accumulator: every AddAlways/RecordAlways on a
/// thread whose tls sink points here is *also* credited to the matching slot
/// of this sink. The TaskPool forwards the submitting thread's sink to the
/// worker lanes of each dispatch, so a query's sink sees exactly the work
/// done on the query's behalf — concurrent queries cannot bleed into each
/// other the way raw registry snapshot-deltas do (the registry is global;
/// two overlapping queries' deltas are inseparable there).
///
/// Sized at construction to the instruments registered so far; instruments
/// registered later are silently not attributed (all library instruments
/// register at static init, so this only affects late test-local ones).
class QueryMetricSink {
 public:
  QueryMetricSink();

  void Add(uint32_t id, uint64_t delta) {
    if (id < n_) slots_[id].fetch_add(delta, std::memory_order_relaxed);
  }

  /// Accumulated value under the instrument named `name` (0 if unknown).
  uint64_t ValueOf(const char* name) const;

  /// Every nonzero slot as (name, value), in id order.
  std::vector<MetricSample> Samples() const;

 private:
  size_t n_;
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
};

/// The calling thread's current attribution sink (nullptr when unscoped).
QueryMetricSink* CurrentMetricSink();

/// RAII: routes this thread's instrument updates into `sink` (in addition
/// to the global shards) for the scope's lifetime; restores the previous
/// sink on exit. Pool dispatches started inside the scope extend it to the
/// participating worker lanes.
class ScopedMetricSink {
 public:
  explicit ScopedMetricSink(QueryMetricSink* sink)
      : prev_(detail::ExchangeMetricSink(sink)) {}
  ~ScopedMetricSink() { detail::ExchangeMetricSink(prev_); }

  ScopedMetricSink(const ScopedMetricSink&) = delete;
  ScopedMetricSink& operator=(const ScopedMetricSink&) = delete;

 private:
  QueryMetricSink* prev_;
};

// ---------------------------------------------------------------------------
// Registry snapshot/delta helpers
// ---------------------------------------------------------------------------

/// Absolute registry values right now, as a name -> value map (empty while
/// metrics are off). The serial-measurement primitive: pair with DeltaSince
/// around a region to attribute its registry growth. For *concurrent*
/// attribution use QueryMetricSink — a global snapshot cannot separate two
/// overlapping queries.
std::map<std::string, uint64_t> SnapshotMap();

/// Per-name growth of the registry since `before` (names that did not grow
/// are omitted). Thread-safe; both sides are racy-consistent sums, fine for
/// reporting and gating.
std::map<std::string, uint64_t> DeltaSince(
    const std::map<std::string, uint64_t>& before);

}  // namespace simddb::obs

#endif  // SIMDDB_OBS_METRICS_H_
