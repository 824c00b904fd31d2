// Observability layer tests: strict-JSON validity of every line the bench
// reporter can emit (the original reporter produced invalid JSON for label
// values like "1." and for nan/inf rates), counter sharding and reset,
// phase timers and scoped phases, registry snapshots, the chrome-trace
// writer, and the perf_event_open wrapper's graceful-fallback contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/task_pool.h"

namespace simddb::obs {
namespace {

// ---------------------------------------------------------------------------
// Strict recursive-descent JSON validator (RFC 8259). Deliberately
// independent of the code under test: jsonl.h must satisfy an outside
// grammar, not its own.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::strchr("+-.eE0123456789", s_[pos_]) != nullptr) {
      ++pos_;
    }
    return pos_ > start &&
           JsonIsNumberToken(s_.substr(start, pos_ - start));
  }

  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

bool IsValidJson(std::string_view s) { return JsonValidator(s).Valid(); }

// Extracts the raw token after "key": in a flat JSON object line.
std::string RawField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t p = line.find(needle);
  if (p == std::string::npos) return "";
  p += needle.size();
  size_t e = p;
  if (line[p] == '"') {
    e = p + 1;
    while (e < line.size() && line[e] != '"') {
      if (line[e] == '\\') ++e;
      ++e;
    }
    ++e;
  } else {
    while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  }
  return line.substr(p, e - p);
}

// ---------------------------------------------------------------------------
// JSON number grammar

TEST(JsonlTest, NumberTokenGrammar) {
  for (const char* ok : {"0", "-0", "7", "-1", "123", "1.5", "-2.25", "0.5",
                         "1e9", "1E9", "1e+9", "1.5e-3", "2E-17",
                         "17179869184"}) {
    EXPECT_TRUE(JsonIsNumberToken(ok)) << ok;
  }
  for (const char* bad :
       {"", "-", ".", "1.", ".5", "-.5", "01", "007", "+1", "1e", "1e+",
        "1.e5", "nan", "-nan", "inf", "-inf", "NaN", "Infinity", "1.5.2",
        "1,5", "0x10", " 1", "1 "}) {
    EXPECT_FALSE(JsonIsNumberToken(bad)) << bad;
  }
}

TEST(JsonlTest, NonFiniteDoublesBecomeNull) {
  std::string out;
  JsonAppendNumber(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  out.clear();
  JsonAppendNumber(&out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  JsonAppendNumber(&out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  JsonAppendNumber(&out, 0.1);
  EXPECT_TRUE(JsonIsNumberToken(out)) << out;
}

TEST(JsonlTest, FieldValuesOnlyUnquotedWhenRealNumbers) {
  // "1." passed the old reporter's numeric sniff and was emitted unquoted —
  // invalid JSON. It must be quoted now; a real number stays bare.
  std::string out = "{\"a\":0";
  JsonAppendField(&out, "trailing_dot", "1.");
  JsonAppendField(&out, "leading_zero", "01");
  JsonAppendField(&out, "real", "2.5");
  out.push_back('}');
  EXPECT_TRUE(IsValidJson(out)) << out;
  EXPECT_EQ(RawField(out, "trailing_dot"), "\"1.\"");
  EXPECT_EQ(RawField(out, "leading_zero"), "\"01\"");
  EXPECT_EQ(RawField(out, "real"), "2.5");
}

// ---------------------------------------------------------------------------
// Bench row assembly

TEST(JsonlTest, EveryBenchRowVariantParsesAsJson) {
  std::vector<BenchJsonRow> rows;

  BenchJsonRow plain;
  plain.name = "fig5/scan/1048576";
  plain.label = "scalar_branching n=1048576 sel=0.5";
  plain.threads = 1;
  plain.real_time = 123.456;
  plain.time_unit = "us";
  plain.iterations = 1000;
  plain.has_tuples_per_s = true;
  plain.tuples_per_s = 2.5e9;
  rows.push_back(plain);

  BenchJsonRow nasty;
  nasty.name = "we\"ird\\name\twith\ncontrols";
  nasty.label = "v=1. w=01 x=\"quoted\" tab\tok bare_tok isa=avx512";
  nasty.real_time = std::numeric_limits<double>::quiet_NaN();
  nasty.time_unit = "ns";
  nasty.has_tuples_per_s = true;
  nasty.tuples_per_s = std::numeric_limits<double>::infinity();
  nasty.metrics.emplace_back("steals", 17.0);
  nasty.metrics.emplace_back("weird metric\"name",
                             -std::numeric_limits<double>::infinity());
  rows.push_back(nasty);

  BenchJsonRow empty;
  rows.push_back(empty);

  for (const BenchJsonRow& row : rows) {
    const std::string line = BuildBenchJsonLine(row);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_TRUE(IsValidJson(std::string_view(line.data(), line.size() - 1)))
        << line;
  }
}

TEST(JsonlTest, BenchRowLabelParsing) {
  BenchJsonRow row;
  row.name = "case";
  row.label = "vector_selstore_direct n=4096 sel=0.5 threads=8";
  row.threads = 1;  // must be overridden by the label's threads=8
  row.time_unit = "us";
  const std::string line = BuildBenchJsonLine(row);
  EXPECT_TRUE(IsValidJson(std::string_view(line.data(), line.size() - 1)))
      << line;
  EXPECT_EQ(RawField(line, "variant"), "\"vector_selstore_direct\"");
  EXPECT_EQ(RawField(line, "n"), "4096");
  EXPECT_EQ(RawField(line, "sel"), "0.5");
  EXPECT_EQ(RawField(line, "threads"), "8");
  // ISA inferred from the variant name ("vector" => avx512).
  EXPECT_EQ(RawField(line, "isa"), "\"avx512\"");
  EXPECT_EQ(line.find("\"threads\":\"1\""), std::string::npos);
}

TEST(JsonlTest, BenchRowExplicitIsaEmittedOnce) {
  BenchJsonRow row;
  row.name = "case";
  // "vector" in the variant would also trigger the inference heuristic; the
  // explicit isa= token must win and appear exactly once.
  row.label = "vector_thing isa=scalar";
  row.time_unit = "ms";
  const std::string line = BuildBenchJsonLine(row);
  EXPECT_TRUE(IsValidJson(std::string_view(line.data(), line.size() - 1)))
      << line;
  EXPECT_EQ(RawField(line, "isa"), "\"scalar\"");
  size_t count = 0;
  for (size_t at = line.find("\"isa\":"); at != std::string::npos;
       at = line.find("\"isa\":", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(JsonlTest, BenchRowMetricsAppended) {
  BenchJsonRow row;
  row.name = "sched";
  row.label = "skewed";
  row.time_unit = "ms";
  row.metrics.emplace_back("steals", 12);
  row.metrics.emplace_back("morsels", 4096);
  row.metrics.emplace_back("part_shuffle_ns", 1.5e6);
  const std::string line = BuildBenchJsonLine(row);
  EXPECT_TRUE(IsValidJson(std::string_view(line.data(), line.size() - 1)))
      << line;
  EXPECT_EQ(RawField(line, "steals"), "12");
  EXPECT_EQ(RawField(line, "morsels"), "4096");
  EXPECT_EQ(RawField(line, "part_shuffle_ns"), "1500000");
}

// ---------------------------------------------------------------------------
// Counters, timers, registry

TEST(MetricsTest, CounterShardsSumAcrossThreads) {
  EnableMetrics(true);
  static Counter counter("obs_test_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EnableMetrics(false);
}

TEST(MetricsTest, DisabledCounterAddsNothing) {
  if (kMetricsForced) GTEST_SKIP() << "metrics forced on at compile time";
  EnableMetrics(false);
  static Counter counter("obs_test_gated_counter");
  counter.Reset();
  counter.Add(123);
  EXPECT_EQ(counter.Value(), 0u);
  counter.AddAlways(5);  // the ungated entry point still lands
  EXPECT_EQ(counter.Value(), 5u);
  counter.Reset();
}

TEST(MetricsTest, PhaseTimerAccumulatesAndResets) {
  EnableMetrics(true);
  static PhaseTimer timer("obs_test_timer_ns");
  timer.Reset();
  timer.Record(100);
  timer.Record(250);
  EXPECT_EQ(timer.TotalNs(), 350u);
  EXPECT_EQ(timer.Calls(), 2u);
  timer.Reset();
  EXPECT_EQ(timer.TotalNs(), 0u);
  EXPECT_EQ(timer.Calls(), 0u);
  EnableMetrics(false);
}

TEST(MetricsTest, ScopedPhaseRecordsElapsedTime) {
  EnableMetrics(true);
  static PhaseTimer timer("obs_test_scoped_ns");
  timer.Reset();
  {
    ScopedPhase phase(timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(timer.TotalNs(), 1'000'000u);  // >= 1 ms of the ~5 ms sleep
  EXPECT_EQ(timer.Calls(), 1u);
  timer.Reset();
  EnableMetrics(false);
}

TEST(MetricsTest, RegistrySnapshotContainsInstrumentsAndResetsAll) {
  EnableMetrics(true);
  static Counter counter("obs_test_registry_counter");
  static PhaseTimer timer("obs_test_registry_timer_ns");
  counter.Reset();
  timer.Reset();
  counter.Add(7);
  timer.Record(9);
  std::map<std::string, uint64_t> snap;
  for (const MetricSample& s : MetricsRegistry::Get().Snapshot()) {
    snap[s.name] = s.value;
  }
  EXPECT_EQ(snap.at("obs_test_registry_counter"), 7u);
  EXPECT_EQ(snap.at("obs_test_registry_timer_ns"), 9u);
  // The scheduler's counters registered when their translation unit was
  // linked in (this reference to the pool guarantees that here), so every
  // snapshot carries the fields — as zeros when idle — and bench rows
  // always have them.
  simddb::TaskPool::Get().ParallelFor(1, 1, [](int, size_t) {});
  snap.clear();
  for (const MetricSample& s : MetricsRegistry::Get().Snapshot()) {
    snap[s.name] = s.value;
  }
  EXPECT_TRUE(snap.count("steals"));
  EXPECT_TRUE(snap.count("morsels"));
  EXPECT_TRUE(snap.count("dispatches"));
  MetricsRegistry::Get().ResetAll();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(timer.TotalNs(), 0u);
  EnableMetrics(false);
}

TEST(MetricsTest, SnapshotMapAndDeltaSince) {
  EnableMetrics(true);
  static Counter counter("obs_test_delta_counter");
  counter.Reset();
  counter.Add(3);
  const std::map<std::string, uint64_t> before = SnapshotMap();
  EXPECT_EQ(before.at("obs_test_delta_counter"), 3u);
  std::map<std::string, uint64_t> delta = DeltaSince(before);
  EXPECT_EQ(delta.count("obs_test_delta_counter"), 0u);  // no growth
  counter.Add(5);
  delta = DeltaSince(before);
  EXPECT_EQ(delta.at("obs_test_delta_counter"), 5u);
  counter.Reset();
  EnableMetrics(false);
}

// Regression: two concurrent queries, each under its own scoped sink, must
// come out with exactly their own deltas — no bleed between sinks, no loss
// to the global registry. (The original bench snapshot/delta helper was a
// global diff and could not separate overlapping queries at all.)
TEST(MetricsTest, ConcurrentQuerySinksDoNotBleed) {
  EnableMetrics(true);
  static Counter counter("obs_test_sink_counter");
  static PhaseTimer timer("obs_test_sink_timer_ns");
  counter.Reset();
  timer.Reset();

  constexpr uint64_t kAddsA = 40'000, kAddsB = 7'000;
  QueryMetricSink sink_a, sink_b;
  std::atomic<int> ready{0};
  auto run = [&ready](QueryMetricSink* sink, uint64_t adds, uint64_t ns) {
    ScopedMetricSink scope(sink);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();  // maximize overlap
    for (uint64_t i = 0; i < adds; ++i) counter.Add(1);
    timer.Record(ns);
  };
  std::thread ta(run, &sink_a, kAddsA, uint64_t{111});
  std::thread tb(run, &sink_b, kAddsB, uint64_t{55});
  ta.join();
  tb.join();

  std::map<std::string, uint64_t> a, b;
  for (const MetricSample& s : sink_a.Samples()) a[s.name] = s.value;
  for (const MetricSample& s : sink_b.Samples()) b[s.name] = s.value;
  EXPECT_EQ(a.at("obs_test_sink_counter"), kAddsA);
  EXPECT_EQ(b.at("obs_test_sink_counter"), kAddsB);
  EXPECT_EQ(a.at("obs_test_sink_timer_ns"), 111u);
  EXPECT_EQ(b.at("obs_test_sink_timer_ns"), 55u);
  // The global registry still saw everything.
  EXPECT_EQ(counter.Value(), kAddsA + kAddsB);
  EXPECT_EQ(timer.TotalNs(), 166u);
  counter.Reset();
  timer.Reset();
  EnableMetrics(false);
}

// The sink follows work dispatched onto TaskPool workers: instrument
// updates made by worker lanes inside a ParallelFor land in the
// dispatching thread's sink, not just updates made on the calling thread.
TEST(MetricsTest, QuerySinkExtendsToPoolWorkers) {
  EnableMetrics(true);
  static Counter counter("obs_test_pool_sink_counter");
  counter.Reset();
  constexpr size_t kTasks = 512;
  QueryMetricSink sink;
  {
    ScopedMetricSink scope(&sink);
    simddb::TaskPool::Get().ParallelFor(kTasks, 4,
                                        [](int, size_t) { counter.Add(1); });
  }
  std::map<std::string, uint64_t> got;
  for (const MetricSample& s : sink.Samples()) got[s.name] = s.value;
  EXPECT_EQ(got.at("obs_test_pool_sink_counter"), kTasks);
  EXPECT_EQ(counter.Value(), kTasks);
  counter.Reset();
  EnableMetrics(false);
}

// ---------------------------------------------------------------------------
// Chrome trace

TEST(TraceTest, WritesValidChromeTraceJson) {
  static PhaseTimer timer("obs_test_trace_phase_ns");
  StartTrace();
  EXPECT_TRUE(TraceEnabled());
  for (int i = 0; i < 3; ++i) {
    ScopedPhase phase(timer);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  StopTrace();
  EXPECT_FALSE(TraceEnabled());
  std::ostringstream os;
  WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs_test_trace_phase_ns"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  timer.Reset();
  EnableMetrics(false);  // StartTrace turned metrics on
}

TEST(TraceTest, EmptyTraceIsStillValidJson) {
  StartTrace();
  StopTrace();
  EnableMetrics(false);
  std::ostringstream os;
  WriteChromeTrace(os);
  EXPECT_TRUE(IsValidJson(os.str())) << os.str();
}

// ---------------------------------------------------------------------------
// perf_event_open wrapper

TEST(PerfCountersTest, GracefulWhetherAvailableOrNot) {
  PerfCounters perf;
  if (!perf.available()) {
    // Denied syscall / non-Linux stub: everything is a defined no-op.
    PerfCounters::Reading r = perf.Read();
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.cycles, 0u);
    r = perf.Stop();
    EXPECT_FALSE(r.valid);
    return;
  }
  perf.Start();
  // Burn some cycles so the counters have something to count.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 1'000'000; ++i) sink = sink + i * i;
  PerfCounters::Reading mid = perf.Read();
  EXPECT_TRUE(mid.valid);
  PerfCounters::Reading end = perf.Stop();
  EXPECT_TRUE(end.valid);
  // Monotone: Stop() reads at or after the mid Read().
  EXPECT_GE(end.cycles, mid.cycles);
  EXPECT_GE(end.instructions, mid.instructions);
  EXPECT_GT(end.instructions + end.cycles, 0u);
}

}  // namespace
}  // namespace simddb::obs
