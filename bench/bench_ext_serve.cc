// Extension benchmark: sustained concurrent serving through src/server/.
// N client threads call QueryScheduler::Run on one process-wide Catalog and
// QueryScheduler; every iteration is one wave — each client submits one
// Q3-shaped query (its own disjoint value window over the shared fact
// table) and blocks for the ResultSet. The axes:
//
//   clients {8, 64} x executor threads {1, 8}
//
// Every query runs its own probe sweep of S; R's join index serves every
// build side. The fact table's value column is sequential, so the
// per-client windows are contiguous disjoint chunk bands, and each query's
// pipeline stops at its scan outside its own band.
//
// Per-row counters beyond the registry deltas:
//
//   qps                queries completed per second of wall time
//   p50_ns / p99_ns    per-query latency percentiles over the whole run
//                      (Run call, admission wait included)
//   min_query_morsels  MIN over queries of stats.morsels_drained — the
//                      no-starvation observable the baseline gate holds
//                      >= 1
//   queries_completed  total ResultSets with ok = true (waves x clients)
//
// The reported Gtps counts logical tuples served (clients x |S| per wave).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "exec/query.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/catalog.h"
#include "server/scheduler.h"

namespace simddb::bench {
namespace {

constexpr size_t kRTuples = size_t{64} << 10;  // dimension: 64K rows
constexpr size_t kSTuples = size_t{1} << 20;   // fact: 1M rows

/// The process-wide catalog a serving process would load at startup:
/// R(pk, attr) with unique sequential keys, S(fk, val) with val = row
/// position (clustered: a value window is a contiguous chunk band).
const server::Catalog& ServeCatalog() {
  static server::Catalog* catalog = [] {
    auto* c = new server::Catalog();
    AlignedBuffer<uint32_t> r_keys(kRTuples + 16), r_attrs(kRTuples + 16);
    FillSequential(r_keys.data(), kRTuples, 1);
    FillUniform(r_attrs.data(), kRTuples, 5, 1, 1024);
    c->RegisterTable("R", r_keys.data(), r_attrs.data(), kRTuples);
    AlignedBuffer<uint32_t> s_fks(kSTuples + 16), s_vals(kSTuples + 16);
    FillUniform(s_fks.data(), kSTuples, 6, 1,
                static_cast<uint32_t>(kRTuples));
    FillSequential(s_vals.data(), kSTuples, 0);
    c->RegisterTable("S", s_fks.data(), s_vals.data(), kSTuples);
    return c;
  }();
  return *catalog;
}

/// Client i of `clients` probes its own disjoint window of the fact table.
server::QuerySpec ClientSpec(int i, int clients) {
  server::QuerySpec spec;
  spec.build_table = "R";
  spec.probe_table = "S";
  spec.r_lo = 1;
  spec.r_hi = static_cast<uint32_t>((3 * kRTuples) / 4);
  const uint32_t w = static_cast<uint32_t>(kSTuples / clients);
  spec.s_lo = static_cast<uint32_t>(i) * w;
  spec.s_hi = spec.s_lo + w - 1;
  return spec;
}

void BM_Serve(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));

  const server::Catalog& catalog = ServeCatalog();
  server::QueryScheduler sched(&catalog);

  exec::ExecConfig cfg;
  cfg.threads = threads;

  std::vector<uint64_t> latencies_ns;
  latencies_ns.reserve(64 * static_cast<size_t>(clients));
  uint64_t completed = 0;
  uint64_t min_morsels = ~uint64_t{0};

  for (auto _ : state) {
    std::vector<server::ResultSet> results(clients);
    std::vector<uint64_t> wave_ns(clients);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        const server::QuerySpec spec = ClientSpec(i, clients);
        ready.fetch_add(1);
        while (ready.load() < clients) std::this_thread::yield();
        const uint64_t t0 = obs::NowNs();
        results[i] = sched.Run(spec, cfg);
        wave_ns[i] = obs::NowNs() - t0;
      });
    }
    for (auto& w : workers) w.join();
    for (int i = 0; i < clients; ++i) {
      if (!results[i].ok) {
        state.SkipWithError(("query failed: " + results[i].error).c_str());
        return;
      }
      ++completed;
      latencies_ns.push_back(wave_ns[i]);
      min_morsels = std::min(min_morsels, results[i].stats.morsels_drained);
    }
  }

  std::sort(latencies_ns.begin(), latencies_ns.end());
  auto pct = [&](double p) {
    if (latencies_ns.empty()) return uint64_t{0};
    const size_t at = std::min(
        latencies_ns.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies_ns.size())));
    return latencies_ns[at];
  };
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(clients), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["p50_ns"] = benchmark::Counter(static_cast<double>(pct(0.50)));
  state.counters["p99_ns"] = benchmark::Counter(static_cast<double>(pct(0.99)));
  state.counters["min_query_morsels"] = benchmark::Counter(
      static_cast<double>(completed > 0 ? min_morsels : 0));
  state.counters["queries_completed"] =
      benchmark::Counter(static_cast<double>(completed));
  // Logical serving throughput: every query answers over the whole fact
  // table's key space, so a wave serves clients x |S| tuples.
  SetTuplesPerSecond(state,
                     static_cast<double>(kSTuples) * static_cast<double>(clients));
  state.SetLabel("serve clients=" + std::to_string(clients) +
                 " threads=" + std::to_string(threads));
}

// {clients, threads}. Fixed iterations keep the counter totals comparable
// across rows (the same number of waves in each).
BENCHMARK(BM_Serve)
    ->ArgsProduct({{8, 64}, {1, 8}})
    ->Iterations(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_ServeWeighted: mixed-weight fairness under contention. Two client
// classes share one scheduler — half submit at weight 1, half at weight 4 —
// and every client resubmits its fixed-cost query (a disjoint 1/clients
// window of S, identical work per query) for a fixed wall window per
// iteration. The TaskPool's weighted-fair vtime advances tasks/weight, so a
// weight-4 query's morsels are charged at a quarter rate and its class
// should complete queries at a multiple of the weight-1 class's rate.
//
//   wfq_w1_completed / wfq_w4_completed   completions per class, whole run
//
// The baseline gate holds the per-class completion ratio w4/w1 above 1.3 —
// well under the ideal 4x (morsel granularity, admission-free scheduling
// and the non-pool tail of each query all dilute the share) but strictly
// above "weights ignored". Executor threads >= 2 is a precondition: the
// threads=1 inline path runs morsels on the caller and cannot be throttled
// by the pool's fair queue.
void BM_ServeWeighted(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr uint64_t kWindowNs = 250'000'000;  // 250 ms per iteration

  const server::Catalog& catalog = ServeCatalog();
  server::QueryScheduler sched(&catalog);

  exec::ExecConfig cfg;
  cfg.threads = threads;

  uint64_t w1_completed = 0, w4_completed = 0;

  for (auto _ : state) {
    std::vector<uint64_t> done(clients, 0);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        const server::QuerySpec spec = ClientSpec(i, clients);
        const uint64_t weight = (i % 2 == 0) ? 1 : 4;
        ready.fetch_add(1);
        while (ready.load() < clients) std::this_thread::yield();
        const uint64_t deadline = obs::NowNs() + kWindowNs;
        while (obs::NowNs() < deadline) {
          const server::ResultSet rs = sched.Run(spec, cfg, weight);
          if (!rs.ok) return;  // surfaces below as a missing completion
          ++done[i];
        }
      });
    }
    for (auto& w : workers) w.join();
    for (int i = 0; i < clients; ++i) {
      ((i % 2 == 0) ? w1_completed : w4_completed) += done[i];
    }
  }

  // The row reports no tuple rate, so it exports its own registry deltas;
  // on the error path too, or they would land on the next row.
  ExportMetricsCounters(state);
  if (w1_completed == 0 || w4_completed == 0) {
    state.SkipWithError("a weight class finished zero queries");
    return;
  }
  state.counters["wfq_w1_completed"] =
      benchmark::Counter(static_cast<double>(w1_completed));
  state.counters["wfq_w4_completed"] =
      benchmark::Counter(static_cast<double>(w4_completed));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(w1_completed + w4_completed),
      benchmark::Counter::kIsRate);
  state.SetLabel("wfq clients=" + std::to_string(clients) +
                 " threads=" + std::to_string(threads) + " weights=1,4");
}

// {clients, threads}. threads >= 2 by construction (see above); clients
// split evenly between the weight classes.
BENCHMARK(BM_ServeWeighted)
    ->ArgsProduct({{8}, {8}})
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_ServeWire: the BM_Serve wave pattern pushed through the real network
// stack — a net::Server on a Unix-domain socket, persistent client
// connections, one QUERY line and one framed response per client per wave.
// Row counts are validated against the trailer every wave, so the row also
// functions as a continuous byte-framing check under concurrency. Extra
// counters:
//
//   wire_rows      total ROW frames decoded across the run
//   wire_queries   QUERY exchanges that returned OK
//
// The tuples/s yardstick matches BM_Serve (clients x |S| logical tuples per
// wave), making the wire tax directly readable against the in-process rows.
void BM_ServeWire(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));

  const server::Catalog& catalog = ServeCatalog();
  net::ServerOptions opts;
  opts.unix_path = "/tmp/simddb_bench_wire_" + std::to_string(getpid()) +
                   "_" + std::to_string(state.range(0)) + "_" +
                   std::to_string(state.range(1)) + ".sock";
  opts.handler_threads = clients;
  opts.exec.threads = threads;
  net::Server server(&catalog, opts);
  std::string error;
  if (!server.Start(&error)) {
    state.SkipWithError(("server start failed: " + error).c_str());
    return;
  }

  // Persistent connections and pre-rendered request lines, one per client.
  std::vector<net::Client> conns(clients);
  std::vector<std::string> lines(clients);
  for (int i = 0; i < clients; ++i) {
    if (!conns[i].ConnectUnix(opts.unix_path, &error)) {
      state.SkipWithError(("connect failed: " + error).c_str());
      server.Stop();
      return;
    }
    const server::QuerySpec spec = ClientSpec(i, clients);
    lines[i] = "QUERY build=R probe=S r=[" + std::to_string(spec.r_lo) + "," +
               std::to_string(spec.r_hi) + "] s=[" +
               std::to_string(spec.s_lo) + "," + std::to_string(spec.s_hi) +
               "]";
  }

  std::vector<uint64_t> latencies_ns;
  latencies_ns.reserve(64 * static_cast<size_t>(clients));
  std::atomic<uint64_t> wire_rows{0};
  uint64_t wire_queries = 0;

  for (auto _ : state) {
    std::vector<bool> ok(clients, false);
    std::vector<uint64_t> rows(clients, 0);
    std::vector<uint64_t> wave_ns(clients);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < clients) std::this_thread::yield();
        const uint64_t t0 = obs::NowNs();
        const net::WireResult r = conns[i].Query(lines[i]);
        wave_ns[i] = obs::NowNs() - t0;
        ok[i] = r.ok && r.rows.size() == r.rows_declared;
        rows[i] = r.rows.size();
      });
    }
    for (auto& w : workers) w.join();
    for (int i = 0; i < clients; ++i) {
      if (!ok[i]) {
        state.SkipWithError("wire query failed or row framing mismatched");
        server.Stop();
        return;
      }
      ++wire_queries;
      wire_rows.fetch_add(rows[i]);
      latencies_ns.push_back(wave_ns[i]);
    }
  }

  for (auto& c : conns) c.Quit();
  server.Stop();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  auto pct = [&](double p) {
    if (latencies_ns.empty()) return uint64_t{0};
    const size_t at = std::min(
        latencies_ns.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies_ns.size())));
    return latencies_ns[at];
  };
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(clients), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["p50_ns"] = benchmark::Counter(static_cast<double>(pct(0.50)));
  state.counters["p99_ns"] = benchmark::Counter(static_cast<double>(pct(0.99)));
  state.counters["wire_rows"] =
      benchmark::Counter(static_cast<double>(wire_rows.load()));
  state.counters["wire_queries"] =
      benchmark::Counter(static_cast<double>(wire_queries));
  SetTuplesPerSecond(state,
                     static_cast<double>(kSTuples) * static_cast<double>(clients));
  state.SetLabel("wire clients=" + std::to_string(clients) +
                 " threads=" + std::to_string(threads));
}

// {clients, threads}: the socket tax at single-threaded and saturated
// executor settings, same wave shape as the in-process family.
BENCHMARK(BM_ServeWire)
    ->ArgsProduct({{8}, {1, 8}})
    ->Iterations(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
