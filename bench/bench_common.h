#ifndef SIMDDB_BENCH_BENCH_COMMON_H_
#define SIMDDB_BENCH_BENCH_COMMON_H_

// Shared helpers for the per-figure benchmark binaries. Each binary
// regenerates one table or figure of the paper's §10; rows/series are
// encoded as google-benchmark cases with throughput counters in billion
// tuples per second ("Gtps"), the unit the paper's figures use.
//
// Every binary uses SIMDDB_BENCH_MAIN() instead of BENCHMARK_MAIN(), which
// adds harness flags on top of google-benchmark's:
//
//   --json <path>   append (never truncate: collection scripts accumulate
//                   rows across binaries) one JSON object per completed
//                   case: name, label-encoded k=v fields (variant/isa/
//                   threads/...), throughput in tuples per second, and —
//                   when metrics are on — every obs counter/timer delta
//                   (steals, morsels, *_ns phases).
//   --metrics       obs::EnableMetrics(true) for the whole run.
//   --trace <path>  capture phase timings and write a chrome://tracing
//                   JSON file at exit (implies --metrics).
//
// SIMDDB_PERF=1 in the environment additionally samples hardware events
// (cycles / instructions / LLC-misses) per case via perf_event_open, when
// the kernel allows it (rows silently omit the fields otherwise).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/isa.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/task_pool.h"

namespace simddb::bench {

/// True when SIMDDB_PERF requests hardware-event sampling per case.
inline bool PerfRequested() {
  static const bool on = [] {
    const char* env = std::getenv("SIMDDB_PERF");
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  }();
  return on;
}

/// Attaches the delta of every registered obs instrument (and, under
/// SIMDDB_PERF=1, of the hardware events) since the previous call as plain
/// user counters, so each case's row reports its own share. No-op while
/// metrics are disabled. Called by SetTuplesPerSecond, i.e. once per case
/// from the harness thread after the measured loop.
inline void ExportMetricsCounters(benchmark::State& state) {
  if (obs::MetricsEnabled()) {
    static auto* last = new std::map<std::string, uint64_t>();
    for (const obs::MetricSample& s :
         obs::MetricsRegistry::Get().Snapshot()) {
      uint64_t& prev = (*last)[s.name];
      const uint64_t delta = s.value - prev;
      prev = s.value;
      state.counters[s.name] =
          benchmark::Counter(static_cast<double>(delta));
    }
  }
  if (PerfRequested()) {
    static obs::PerfCounters* perf = [] {
      auto* p = new obs::PerfCounters();
      if (p->available()) p->Start();
      return p;
    }();
    if (perf->available()) {
      static obs::PerfCounters::Reading prev{};
      const obs::PerfCounters::Reading now = perf->Read();
      state.counters["cycles"] =
          benchmark::Counter(static_cast<double>(now.cycles - prev.cycles));
      state.counters["instructions"] = benchmark::Counter(
          static_cast<double>(now.instructions - prev.instructions));
      state.counters["llc_misses"] = benchmark::Counter(
          static_cast<double>(now.llc_misses - prev.llc_misses));
      prev = now;
    }
  }
}

/// Sets the standard throughput counter (billion tuples per second) and
/// exports any active observability counters for this case.
inline void SetTuplesPerSecond(benchmark::State& state, double tuples_per_iter) {
  state.counters["Gtps"] = benchmark::Counter(
      tuples_per_iter * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  ExportMetricsCounters(state);
}

/// A lazily-built, cached uniform (key, payload) column pair, shared across
/// benchmark cases of one binary so data generation isn't repeated.
struct KeyPayColumns {
  AlignedBuffer<uint32_t> keys;
  AlignedBuffer<uint32_t> pays;

  static const KeyPayColumns& Get(size_t n, uint32_t key_min,
                                  uint32_t key_max, uint64_t seed) {
    static std::map<std::tuple<size_t, uint32_t, uint32_t, uint64_t>,
                    std::unique_ptr<KeyPayColumns>>* cache =
        new std::map<std::tuple<size_t, uint32_t, uint32_t, uint64_t>,
                     std::unique_ptr<KeyPayColumns>>();
    auto key = std::make_tuple(n, key_min, key_max, seed);
    auto it = cache->find(key);
    if (it == cache->end()) {
      auto cols = std::make_unique<KeyPayColumns>();
      cols->keys.Reset(n + 16);
      cols->pays.Reset(n + 16);
      FillUniform(cols->keys.data(), n, seed, key_min, key_max);
      FillSequential(cols->pays.data(), n, 0);
      it = cache->emplace(key, std::move(cols)).first;
    }
    return *it->second;
  }
};

/// Skips the benchmark case when the required ISA is unavailable.
inline bool RequireIsa(benchmark::State& state, Isa isa) {
  if (!IsaSupported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return false;
  }
  return true;
}

/// Console reporter that additionally appends one JSON object per finished
/// case to a JSONL stream. Line assembly (label parsing, quoting, number
/// validity) lives in obs/jsonl.h so the unit suite can verify that every
/// emitted line is valid JSON without a google-benchmark dependency.
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLinesReporter(std::ostream* json_out) : json_(json_out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      WriteRun(run);
    }
  }

 private:
  void WriteRun(const Run& run) {
    obs::BenchJsonRow row;
    row.name = run.benchmark_name();
    row.label = run.report_label;
    row.threads = run.threads;
    row.real_time = run.GetAdjustedRealTime();
    row.time_unit = benchmark::GetTimeUnitString(run.time_unit);
    row.iterations = static_cast<long long>(run.iterations);
    for (const auto& [name, counter] : run.counters) {
      if (name == "Gtps") {
        // Rate counters divide by the measured time base: CPU time of the
        // calling thread by default, wall-clock under UseRealTime(). For
        // multithreaded operators the CPU base inflates throughput
        // (workers' time isn't counted), so always report the wall-clock
        // rate.
        double rate = counter.value * 1e9;
        if (run.run_name.time_type.find("real_time") == std::string::npos &&
            run.real_accumulated_time > 0) {
          rate *= run.cpu_accumulated_time / run.real_accumulated_time;
        }
        row.has_tuples_per_s = true;
        row.tuples_per_s = rate;
      } else {
        // Observability counters / perf events from ExportMetricsCounters.
        row.metrics.emplace_back(name, counter.value);
      }
    }
    *json_ << obs::BuildBenchJsonLine(row);
    json_->flush();
  }

  std::ostream* json_;
};

/// main() body behind SIMDDB_BENCH_MAIN(): strips the harness flags
/// (`--json <path>`, `--metrics`, `--trace <path>`; `=`-forms accepted)
/// from argv and hands the rest to google-benchmark. Runs with the
/// JSONL-teeing console reporter when a --json path was given; the JSONL
/// file is opened in append mode so collection scripts can accumulate rows
/// from several binaries into one file (the old truncating open silently
/// discarded every binary's rows but the last).
inline int BenchMain(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  bool metrics_flag = false;
  std::vector<char*> args;
  args.reserve(argc + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_flag = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int n_args = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&n_args, args.data());
  if (benchmark::ReportUnrecognizedArguments(n_args, args.data())) return 1;
  if (metrics_flag) obs::EnableMetrics(true);
  // Naming the pool links its scheduler counters into every binary, so
  // every --json row carries steals and morsels (zero where the kernels
  // never dispatch to the pool, as in the single-threaded scans).
  (void)TaskPool::MaxWorkers();
  if (!trace_path.empty()) obs::StartTrace();  // also enables metrics
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    std::ofstream out(json_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot open --json file %s\n", json_path.c_str());
      return 1;
    }
    JsonLinesReporter reporter(&out);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  if (!trace_path.empty()) {
    obs::StopTrace();
    std::ofstream tf(trace_path);
    if (!tf) {
      std::fprintf(stderr, "cannot open --trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    obs::WriteChromeTrace(tf);
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace simddb::bench

/// Drop-in replacement for BENCHMARK_MAIN() adding the `--json` flag.
#define SIMDDB_BENCH_MAIN()                              \
  int main(int argc, char** argv) {                      \
    return ::simddb::bench::BenchMain(argc, argv);       \
  }                                                      \
  int main(int, char**)

#endif  // SIMDDB_BENCH_BENCH_COMMON_H_
