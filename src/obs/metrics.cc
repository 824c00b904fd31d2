#include "obs/metrics.h"

#include <cstdlib>
#include <cstring>

#include "obs/trace.h"

namespace simddb::obs {
namespace detail {

namespace {
bool EnvEnablesMetrics() {
  const char* env = std::getenv("SIMDDB_METRICS");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
         std::strcmp(env, "true") == 0 || std::strcmp(env, "ON") == 0;
}
}  // namespace

std::atomic<bool> g_enabled{EnvEnablesMetrics()};

uint32_t ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

namespace {
// Every access stays in this file. An extern thread_local read through the
// header would go through GCC's TLS wrapper, whose UBSan null check the
// linker's TLS relaxation turns into a test of stale flags (a false
// "store to null pointer" in -fsanitize=undefined builds).
thread_local QueryMetricSink* g_tls_sink = nullptr;
}  // namespace

void SinkAdd(uint32_t id, uint64_t delta) {
  if (g_tls_sink != nullptr) g_tls_sink->Add(id, delta);
}

QueryMetricSink* ExchangeMetricSink(QueryMetricSink* sink) {
  QueryMetricSink* prev = g_tls_sink;
  g_tls_sink = sink;
  return prev;
}

}  // namespace detail

QueryMetricSink* CurrentMetricSink() { return detail::g_tls_sink; }

void EnableMetrics(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name) : name_(name) {
  id_ = MetricsRegistry::Get().Register(this);
}

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  return sum;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

PhaseTimer::PhaseTimer(const char* name) : name_(name) {
  id_ = MetricsRegistry::Get().Register(this);
}

void PhaseTimer::Reset() {
  total_ns_.store(0, std::memory_order_relaxed);
  calls_.store(0, std::memory_order_relaxed);
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  const uint64_t dur = NowNs() - start_ns_;
  timer_.RecordAlways(dur);
  EmitTraceEvent(timer_.name(), start_ns_, dur);
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

uint32_t MetricsRegistry::Register(Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(c);
  names_by_id_.push_back(c->name());
  return static_cast<uint32_t>(names_by_id_.size() - 1);
}

uint32_t MetricsRegistry::Register(PhaseTimer* t) {
  std::lock_guard<std::mutex> lock(mu_);
  timers_.push_back(t);
  names_by_id_.push_back(t->name());
  return static_cast<uint32_t>(names_by_id_.size() - 1);
}

size_t MetricsRegistry::InstrumentCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_by_id_.size();
}

const char* MetricsRegistry::InstrumentName(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_by_id_.size() ? names_by_id_[id] : nullptr;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + timers_.size());
  for (const Counter* c : counters_) out.push_back({c->name(), c->Value()});
  for (const PhaseTimer* t : timers_) {
    out.push_back({t->name(), t->TotalNs()});
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter* c : counters_) c->Reset();
  for (PhaseTimer* t : timers_) t->Reset();
}

QueryMetricSink::QueryMetricSink()
    : n_(MetricsRegistry::Get().InstrumentCount()),
      slots_(new std::atomic<uint64_t>[n_]) {
  for (size_t i = 0; i < n_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

uint64_t QueryMetricSink::ValueOf(const char* name) const {
  MetricsRegistry& reg = MetricsRegistry::Get();
  for (uint32_t id = 0; id < n_; ++id) {
    const char* n = reg.InstrumentName(id);
    if (n != nullptr && std::strcmp(n, name) == 0) {
      return slots_[id].load(std::memory_order_relaxed);
    }
  }
  return 0;
}

std::vector<MetricSample> QueryMetricSink::Samples() const {
  MetricsRegistry& reg = MetricsRegistry::Get();
  std::vector<MetricSample> out;
  for (uint32_t id = 0; id < n_; ++id) {
    const uint64_t v = slots_[id].load(std::memory_order_relaxed);
    if (v == 0) continue;
    const char* n = reg.InstrumentName(id);
    if (n != nullptr) out.push_back({n, v});
  }
  return out;
}

std::map<std::string, uint64_t> SnapshotMap() {
  std::map<std::string, uint64_t> snap;
  if (!MetricsEnabled()) return snap;
  for (const MetricSample& s : MetricsRegistry::Get().Snapshot()) {
    snap[s.name] = s.value;
  }
  return snap;
}

std::map<std::string, uint64_t> DeltaSince(
    const std::map<std::string, uint64_t>& before) {
  std::map<std::string, uint64_t> deltas;
  if (!MetricsEnabled()) return deltas;
  for (const MetricSample& s : MetricsRegistry::Get().Snapshot()) {
    auto it = before.find(s.name);
    const uint64_t b = it == before.end() ? 0 : it->second;
    if (s.value > b) deltas[s.name] = s.value - b;
  }
  return deltas;
}

}  // namespace simddb::obs
