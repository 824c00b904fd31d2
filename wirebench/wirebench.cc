// wirebench: closed-loop load generator for the simddb serving stack.
//
// One process hosts an in-process net::Server on a Unix socket and drives
// it through net::Client connections sending QUERY lines, exactly as
// remote clients would. Every response is checked row by row against a
// scalar reference computed by the benchmark itself (stats.h).
//
//   wirebench --workload short_hot --seed 1 --seconds 25 --trace 0
//
// A run:
//   1. generates every table of the full catalog from --seed (written, so
//      pre-faulted) and the workload's distinct query lines, and computes
//      each line's reference result;
//   2. sets the stack up kSetUps times (catalog RegisterTable calls,
//      Server::Start, connecting the clients) and keeps the last one;
//      setup_s is the median;
//   3. frees the inputs, warms up, and runs the closed loops for --seconds
//      with metrics off (--trace 0), or half untraced and half with
//      obs::EnableMetrics(true) (--trace 1), followed by an in-process
//      replay of each distinct line through parse -> bind -> build -> run
//      -> encode, timed call by call;
//   4. prints a provenance header, every metric by name and unit, and as
//      the last line one JSON object: the end-to-end metrics (--trace 0) or
//      the per-layer metrics (--trace 1).
//
// Exit status: 0 when every query returned the reference result; 1 when
// any failed (the result line then says "correct": false); 2 on bad
// arguments or a stack that would not start; 3 when a percentile lacks the
// samples to back it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "compress/column.h"
#include "core/isa.h"
#include "exec/query.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "server/catalog.h"
#include "server/scheduler.h"
#include "stats.h"

namespace {

using namespace simddb;
using wirebench::QuerySample;
using wirebench::RefQuery;
using wirebench::RefRow;

/// Distinct values of R.attr, hence result rows per query.
constexpr uint32_t kGroups = 256;

/// qps and cpu_ms_per_query are medians over this many blocks of a phase.
constexpr size_t kRateBlocks = 16;
/// Period of the process CPU readings taken during a phase.
constexpr int kCpuPeriodMs = 10;
/// A timed phase runs on until this many queries were answered, so p90
/// always has more than kMinTailSamples samples beyond it.
constexpr uint64_t kMinTimedQueries = 120;
/// Stack set-ups per run; setup_s is their median, so one slow page-fault
/// storm does not move it.
constexpr int kSetUps = 5;

// ---------------------------------------------------------------------------
// Catalog and workloads

enum class TableKind { kBuild, kProbeClustered, kProbeUniform, kProbeSequential };

struct TableSpec {
  const char* name;
  size_t rows;
  TableKind kind;
  int build_index;  ///< probe tables: index of the R their fk points into
  bool compress;
};

// The full catalog every run loads, as a stock server loads its catalog at
// start: ~37M rows, of which the packed pair also gets compressed twins.
constexpr TableSpec kTables[] = {
    {"hot_R", size_t{1} << 16, TableKind::kBuild, -1, false},
    {"hot_S", size_t{1} << 18, TableKind::kProbeClustered, 0, false},
    {"large_R", size_t{1} << 20, TableKind::kBuild, -1, false},
    {"large_S", size_t{1} << 21, TableKind::kProbeUniform, 2, false},
    {"packed_R", size_t{1} << 16, TableKind::kBuild, -1, true},
    {"packed_S", size_t{1} << 25, TableKind::kProbeSequential, 4, true},
};
constexpr int kNumTables = sizeof(kTables) / sizeof(kTables[0]);

/// hot_S.val = row + jitter in [0, kClusterJitter): clustered, so an s=
/// window selects a contiguous band of rows.
constexpr uint32_t kClusterJitter = 1024;
/// large_S.val is uniform over [0, kUniformDomain).
constexpr uint32_t kUniformDomain = uint32_t{1} << 24;

struct Workload {
  const char* name;
  int build_table, probe_table;
  bool packed;
  int connections, handlers, max_inflight, exec_threads;
  int distinct_queries;
  double s_window;  ///< fraction of the probe value domain a query selects
  double r_window;  ///< fraction of the build keys (1 = no r= clause)
};

constexpr Workload kWorkloads[] = {
    {"short_hot", 0, 1, false, 4, 4, 2, 1, 16, 1.0 / 8, 1.0},
    {"scan_large", 2, 3, false, 1, 1, 1, 2, 4, 1.0 / 2, 3.0 / 4},
    {"packed_window", 4, 5, true, 2, 2, 2, 1, 16, 1.0 / 32, 1.0},
};

// ---------------------------------------------------------------------------
// Seeded inputs

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Columns {
  std::vector<uint32_t> keys, vals;
};

Columns GenerateTable(uint64_t seed, int t) {
  const TableSpec& spec = kTables[t];
  const size_t n = spec.rows;
  const uint64_t base = Mix(seed * 0x100 + static_cast<uint64_t>(t));
  Columns c;
  c.keys.resize(n);
  c.vals.resize(n);
  if (spec.kind == TableKind::kBuild) {
    // Unique keys: a seeded permutation of 1..n. attr picks the group.
    for (size_t i = 0; i < n; ++i) c.keys[i] = static_cast<uint32_t>(i + 1);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(c.keys[i], c.keys[Mix(base ^ (i << 1)) % (i + 1)]);
    }
    for (size_t i = 0; i < n; ++i) {
      c.vals[i] = static_cast<uint32_t>(Mix(base + 2 * i + 1) % kGroups);
    }
    return c;
  }
  const uint64_t r_rows = kTables[spec.build_index].rows;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Mix(base + i);
    c.keys[i] = static_cast<uint32_t>(1 + (h % r_rows));
    const uint32_t hi = static_cast<uint32_t>(h >> 32);
    switch (spec.kind) {
      case TableKind::kProbeClustered:
        c.vals[i] = static_cast<uint32_t>(i) + hi % kClusterJitter;
        break;
      case TableKind::kProbeUniform:
        c.vals[i] = hi % kUniformDomain;
        break;
      default:
        c.vals[i] = static_cast<uint32_t>(i);
        break;
    }
  }
  return c;
}

/// Inclusive value domain of a probe table's val column.
std::pair<uint64_t, uint64_t> ValDomain(int t) {
  const TableSpec& spec = kTables[t];
  switch (spec.kind) {
    case TableKind::kProbeClustered:
      return {0, spec.rows - 1 + kClusterJitter - 1};
    case TableKind::kProbeUniform:
      return {0, kUniformDomain - 1};
    default:
      return {0, spec.rows - 1};
  }
}

struct QueryDef {
  std::string line;
  RefQuery q;
  std::vector<RefRow> reference;
};

/// A window of `frac` of [lo, hi] at a seeded offset: every query selects
/// the same number of values, only where the window sits changes.
std::pair<uint32_t, uint32_t> Window(uint64_t lo, uint64_t hi, double frac,
                                     uint64_t h) {
  const uint64_t span = hi - lo + 1;
  const uint64_t width = std::max<uint64_t>(1, static_cast<uint64_t>(span * frac));
  const uint64_t start = lo + h % (span - width + 1);
  return {static_cast<uint32_t>(start), static_cast<uint32_t>(start + width - 1)};
}

std::vector<QueryDef> MakeQueries(const Workload& w, uint64_t seed, Isa isa) {
  std::vector<QueryDef> defs(static_cast<size_t>(w.distinct_queries));
  const auto [vlo, vhi] = ValDomain(w.probe_table);
  const uint64_t r_rows = kTables[w.build_table].rows;
  for (size_t i = 0; i < defs.size(); ++i) {
    QueryDef& d = defs[i];
    const uint64_t h = Mix(Mix(seed) + 0x5EED0000 + i);
    std::tie(d.q.s_lo, d.q.s_hi) = Window(vlo, vhi, w.s_window, h);
    d.line = std::string("QUERY build=") + kTables[w.build_table].name +
             " probe=" + kTables[w.probe_table].name;
    if (w.r_window < 1.0) {
      std::tie(d.q.r_lo, d.q.r_hi) = Window(1, r_rows, w.r_window, Mix(h));
      d.line += " r=[" + std::to_string(d.q.r_lo) + "," +
                std::to_string(d.q.r_hi) + "]";
    }
    d.line += " s=[" + std::to_string(d.q.s_lo) + "," +
              std::to_string(d.q.s_hi) + "]";
    if (w.packed) d.line += " storage=packed";
    d.line += std::string(" isa=") + IsaName(isa);
  }
  return defs;
}

/// Reference results of every distinct query, on two threads.
void ComputeReferences(std::vector<QueryDef>* defs, const Columns& r,
                       const Columns& s) {
  auto work = [&](size_t first) {
    for (size_t i = first; i < defs->size(); i += 2) {
      QueryDef& d = (*defs)[i];
      d.reference = wirebench::ReferenceResult(
          r.keys.data(), r.vals.data(), r.keys.size(),
          static_cast<uint32_t>(r.keys.size()), s.keys.data(), s.vals.data(),
          s.keys.size(), d.q);
    }
  };
  std::thread helper(work, 1);
  work(0);
  helper.join();
}

// ---------------------------------------------------------------------------
// Clocks and process accounting

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double RssMb() {
  long pages_total = 0, pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; spans of one query share query_id.

struct Span {
  uint64_t query_id;
  int span_id;
  int parent;  ///< span_id of the parent within the query, -1 at the root
  const char* name;
  uint64_t start_ns, end_ns;
  int track;  ///< connection index, or -1 for the in-process replay
};

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                uint64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query_id\":%llu,"
                 "\"span_id\":%d,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.track + 1,
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.query_id), s.span_id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// The serving stack: catalog + server + connected clients

struct Stack {
  std::unique_ptr<server::Catalog> catalog;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  double register_s = 0.0;
  double setup_s = 0.0;

  ~Stack() {
    for (auto& c : clients) c->Quit();
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    catalog.reset();
  }
};

std::unique_ptr<Stack> SetUp(const std::vector<Columns>& inputs,
                             const Workload& w, const std::string& socket_path,
                             std::string* error) {
  auto st = std::make_unique<Stack>();
  const uint64_t t0 = obs::NowNs();
  st->catalog = std::make_unique<server::Catalog>();
  for (int t = 0; t < kNumTables; ++t) {
    server::TableOptions topts;
    topts.compress = kTables[t].compress;
    if (st->catalog->RegisterTable(kTables[t].name, inputs[t].keys.data(),
                                   inputs[t].vals.data(), kTables[t].rows,
                                   topts) == nullptr) {
      *error = std::string("RegisterTable failed for ") + kTables[t].name;
      return nullptr;
    }
  }
  const uint64_t t1 = obs::NowNs();
  net::ServerOptions opts;
  opts.unix_path = socket_path;
  opts.handler_threads = w.handlers;
  opts.exec.threads = w.exec_threads;
  opts.exec.isa = BestIsa();
  opts.scheduler.max_inflight = w.max_inflight;
  opts.scheduler.policy = server::AdmissionPolicy::kBlock;
  st->server = std::make_unique<net::Server>(st->catalog.get(), opts);
  if (!st->server->Start(error)) {
    st->server.reset();
    return nullptr;
  }
  for (int c = 0; c < w.connections; ++c) {
    auto client = std::make_unique<net::Client>();
    if (!client->ConnectUnix(socket_path, error)) return nullptr;
    st->clients.push_back(std::move(client));
  }
  const uint64_t t2 = obs::NowNs();
  st->register_s = Seconds(t1 - t0);
  st->setup_s = Seconds(t2 - t0);
  return st;
}

/// Catalog-resident bytes (raw buffers plus compressed twins) per user
/// byte registered. The catalog pads each raw column by 16 values, as its
/// scan kernels may overshoot one vector.
double BytesPerUserByte(const server::Catalog& cat) {
  double resident = 0.0, user = 0.0;
  for (int t = 0; t < kNumTables; ++t) {
    const server::Table* tab = cat.Find(kTables[t].name);
    if (tab == nullptr) continue;
    user += 2.0 * sizeof(uint32_t) * static_cast<double>(tab->rows());
    resident += 2.0 * sizeof(uint32_t) * static_cast<double>(tab->rows() + 16);
    if (tab->keys_compressed() != nullptr) {
      resident += static_cast<double>(tab->keys_compressed()->packed_bytes() +
                                      tab->vals_compressed()->packed_bytes());
    }
  }
  return wirebench::Ratio(resident, user);
}

// ---------------------------------------------------------------------------
// Closed loops

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<QuerySample> samples;  ///< OK, correct queries
  uint64_t morsels = 0;              ///< sum of trailer morsels=
  uint64_t start_ns = 0;
  std::vector<wirebench::CpuReading> cpu;  ///< process CPU every kCpuPeriodMs
  std::vector<Span> spans;

  wirebench::BlockRates Rates() const {
    std::vector<uint64_t> done;
    done.reserve(samples.size());
    for (const QuerySample& s : samples) done.push_back(s.end_ns);
    return wirebench::MedianBlockRates(std::move(done), start_ns, cpu, kRateBlocks);
  }
};

std::atomic<uint64_t> g_next_query_id{1};

/// Every connection sends its next line as soon as the previous reply is
/// decoded, until `seconds` have passed since the start and at least
/// `min_queries` have been answered in all. Queries started before the end
/// finish and count. Meanwhile the calling thread reads the process CPU
/// time every kCpuPeriodMs.
PhaseResult RunClosedLoops(Stack& st, const std::vector<QueryDef>& defs,
                           double seconds, uint64_t min_queries, bool spans) {
  const size_t conns = st.clients.size();
  std::vector<PhaseResult> per(conns);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> deadline_ns{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& r = per[c];
      net::Client& client = *st.clients[c];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t deadline = deadline_ns.load(std::memory_order_relaxed);
      for (size_t k = c;; k += conns) {
        const uint64_t t0 = obs::NowNs();
        if (t0 >= deadline && answered.load(std::memory_order_relaxed) >= min_queries) {
          break;
        }
        const QueryDef& d = defs[k % defs.size()];
        net::WireResult res = client.Query(d.line);
        const uint64_t t1 = obs::NowNs();
        ++r.attempted;
        answered.fetch_add(1, std::memory_order_relaxed);
        if (!res.ok) {
          ++r.failed;
          std::fprintf(stderr, "query failed: %s -> %s\n", d.line.c_str(),
                       res.error.c_str());
          if (res.error.rfind("transport", 0) == 0) break;  // connection gone
          continue;
        }
        const std::string mismatch =
            wirebench::CheckRows(res.rows, res.rows_declared, d.reference);
        if (!mismatch.empty()) {
          ++r.failed;
          std::fprintf(stderr, "wrong result: %s: %s\n", d.line.c_str(),
                       mismatch.c_str());
          continue;
        }
        r.samples.push_back({t1 - t0, res.exec_ns, res.queue_ns, t1});
        r.morsels += res.morsels;
        if (spans) {
          const uint64_t id = g_next_query_id.fetch_add(1);
          const int track = static_cast<int>(c);
          r.spans.push_back({id, 0, -1, "client.query", t0, t1, track});
          // The trailer carries durations only: the queue and exec
          // intervals are placed with the unclaimed residual split evenly
          // before and after them.
          const uint64_t claimed = res.queue_ns + res.exec_ns;
          const uint64_t slack = t1 - t0 > claimed ? (t1 - t0 - claimed) / 2 : 0;
          const uint64_t q0 = t0 + slack;
          r.spans.push_back({id, 1, 0, "server.queue", q0, q0 + res.queue_ns, track});
          r.spans.push_back({id, 2, 0, "server.exec", q0 + res.queue_ns,
                             q0 + claimed, track});
        }
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  PhaseResult all;
  all.cpu.push_back({obs::NowNs(), ProcessCpuNs()});
  all.start_ns = all.cpu.back().wall_ns;
  deadline_ns.store(all.start_ns + static_cast<uint64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  while (finished.load(std::memory_order_acquire) < conns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kCpuPeriodMs));
    all.cpu.push_back({obs::NowNs(), ProcessCpuNs()});
  }
  for (std::thread& t : threads) t.join();

  for (PhaseResult& r : per) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.morsels += r.morsels;
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.spans.insert(all.spans.end(), r.spans.begin(), r.spans.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// In-process replay of one query line, call by call

struct ReplayTimes {
  double parse_us = 0, bind_us = 0, encode_us = 0, resp_bytes = 0;
  double build_ms = 0, run_ms = 0, run_cpu_ms = 0;
  double join_hit_frac = 0;
  bool ok = false;
};

template <typename Fn>
double MeanNsOver(int iters, Fn&& fn) {
  const uint64_t t0 = obs::NowNs();
  for (int i = 0; i < iters; ++i) fn();
  return static_cast<double>(obs::NowNs() - t0) / iters;
}

ReplayTimes Replay(const server::Catalog& cat, const QueryDef& d,
                   const exec::ExecConfig& base_cfg, std::vector<Span>* spans) {
  ReplayTimes out;
  const uint64_t id = g_next_query_id.fetch_add(1);
  const uint64_t root0 = obs::NowNs();
  auto span = [&](int sid, const char* name, uint64_t a, uint64_t b) {
    spans->push_back({id, sid, 0, name, a, b, -1});
  };

  // net: ParseRequest + ToSpec (sub-microsecond: averaged over a loop).
  net::Request req;
  net::ParseError perr;
  server::QuerySpec spec;
  uint64_t a = obs::NowNs();
  bool parsed = true;
  out.parse_us = MeanNsOver(1000, [&] {
    parsed = parsed && net::ParseRequest(d.line, &req, &perr);
    spec = net::ToSpec(req.query);
  }) / 1e3;
  span(1, "net.parse", a, obs::NowNs());
  if (!parsed) return out;

  // server: BindQuery.
  exec::ScanJoinAggregatePlan plan;
  std::string err;
  bool bound = true;
  a = obs::NowNs();
  out.bind_us = MeanNsOver(1000, [&] {
    bound = bound && server::BindQuery(cat, spec, &plan, &err);
  }) / 1e3;
  span(2, "server.bind", a, obs::NowNs());
  if (!bound) return out;

  exec::ExecConfig cfg = base_cfg;
  if (req.query.has_isa) cfg.isa = req.query.isa;

  // exec: the build pipeline alone, then the whole plan.
  a = obs::NowNs();
  {
    exec::Query q;
    exec::AddBuildPipeline(q, plan);
    q.Run(cfg);
  }
  uint64_t b = obs::NowNs();
  out.build_ms = static_cast<double>(b - a) / 1e6;
  span(3, "exec.build", a, b);

  const uint64_t cpu0 = ProcessCpuNs();
  a = obs::NowNs();
  exec::QueryResult res = exec::RunScanJoinAggregate(plan, cfg);
  b = obs::NowNs();
  out.run_cpu_ms = static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
  out.run_ms = static_cast<double>(b - a) / 1e6;
  out.join_hit_frac = wirebench::Ratio(static_cast<double>(res.rows_joined),
                                       static_cast<double>(res.rows_scanned));
  span(4, "exec.run", a, b);

  // net: AppendRow x rows + AppendQueryOk.
  std::string bytes;
  server::QueryStats qs;
  a = obs::NowNs();
  out.encode_us = MeanNsOver(100, [&] {
    bytes.clear();
    for (size_t i = 0; i < res.group_keys.size(); ++i) {
      net::AppendRow(&bytes, res.group_keys[i], res.sums[i], res.counts[i],
                     res.mins[i], res.maxs[i]);
    }
    net::AppendQueryOk(&bytes, res.group_keys.size(), qs);
  }) / 1e3;
  b = obs::NowNs();
  span(5, "net.encode", a, b);
  spans->push_back({id, 0, -1, "replay", root0, b, -1});
  out.resp_bytes = static_cast<double>(bytes.size());

  // The replayed result must match the reference too.
  std::vector<net::WireRow> rows(res.group_keys.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = {res.group_keys[i], res.sums[i], res.counts[i], res.mins[i],
               res.maxs[i]};
  }
  out.ok = wirebench::CheckRows(rows, rows.size(), d.reference).empty();
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string socket_path;
  std::string spans_path;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--socket") {
      a->socket_path = v;
    } else if (flag == "--spans") {
      a->spans_path = v;
    } else if (flag == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload <name> [--seed n] [--seconds s] "
                 "[--trace 0|1] [--socket path] [--spans path] "
                 "[--commit id]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  if (args.socket_path.empty()) {
    args.socket_path = "wirebench-" + std::to_string(getpid()) + ".sock";
  }
  obs::EnableMetrics(false);
  const Isa isa = BestIsa();

  // 1. Inputs and references, before any clock starts.
  std::vector<Columns> inputs(kNumTables);
  for (int t = 0; t < kNumTables; ++t) inputs[t] = GenerateTable(args.seed, t);
  std::vector<QueryDef> defs = MakeQueries(w, args.seed, isa);
  ComputeReferences(&defs, inputs[w.build_table], inputs[w.probe_table]);

  // 2. Set the stack up kSetUps times; keep the last.
  std::vector<double> setup_s, register_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetUps; ++k) {
    stack.reset();
    std::string error;
    stack = SetUp(inputs, w, args.socket_path, &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 2;
    }
    setup_s.push_back(stack->setup_s);
    register_s.push_back(stack->register_s);
  }
  const double bytes_per_user_byte = BytesPerUserByte(*stack->catalog);
  inputs.clear();
  inputs.shrink_to_fit();

  // 3. Warm up for 1 s on the same closed loops, then measure.
  PhaseResult warm = RunClosedLoops(*stack, defs, 1.0, 0, false);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult plain = RunClosedLoops(*stack, defs, phase_s, kMinTimedQueries, false);
  const wirebench::BlockRates rates = plain.Rates();
  const double rss_mb = RssMb();

  PhaseResult traced;
  std::map<std::string, uint64_t> deltas;
  std::vector<ReplayTimes> replays;
  double compress_s = 0.0, packed_ratio = 0.0;
  uint64_t replay_failed = 0;
  if (args.trace) {
    obs::EnableMetrics(true);
    const std::map<std::string, uint64_t> before = obs::SnapshotMap();
    traced = RunClosedLoops(*stack, defs, phase_s, kMinTimedQueries, true);
    deltas = obs::DeltaSince(before);

    exec::ExecConfig cfg;
    cfg.threads = w.exec_threads;
    cfg.isa = isa;
    const uint64_t replay_deadline = obs::NowNs() + 2'000'000'000ull;
    for (int rep = 0; rep < 5 && (rep == 0 || obs::NowNs() < replay_deadline);
         ++rep) {
      for (const QueryDef& d : defs) {
        replays.push_back(Replay(*stack->catalog, d, cfg, &traced.spans));
        if (!replays.back().ok) ++replay_failed;
      }
    }

    // compress: CompressColumn over every compressed table's columns.
    double raw = 0.0, packed = 0.0;
    for (int t = 0; t < kNumTables; ++t) {
      if (!kTables[t].compress) continue;
      const server::Table* tab = stack->catalog->Find(kTables[t].name);
      const uint64_t c0 = obs::NowNs();
      compress::CompressedColumn k =
          compress::CompressColumn(tab->keys(), tab->rows());
      compress::CompressedColumn v =
          compress::CompressColumn(tab->vals(), tab->rows());
      compress_s += Seconds(obs::NowNs() - c0);
      raw += static_cast<double>(k.raw_bytes() + v.raw_bytes());
      packed += static_cast<double>(tab->keys_compressed()->packed_bytes() +
                                    tab->vals_compressed()->packed_bytes());
    }
    packed_ratio = wirebench::Ratio(packed, raw);
    obs::EnableMetrics(false);
  }

  // Blocks the compressed scans classify per query: R's key column and S's
  // value column, each once.
  double blocks_per_query = 0.0;
  if (w.packed) {
    blocks_per_query = static_cast<double>(
        stack->catalog->Find(kTables[w.build_table].name)
            ->keys_compressed()
            ->num_blocks() +
        stack->catalog->Find(kTables[w.probe_table].name)
            ->vals_compressed()
            ->num_blocks());
  }
  stack.reset();
  unlink(args.socket_path.c_str());

  const uint64_t attempted =
      warm.attempted + plain.attempted + traced.attempted +
      static_cast<uint64_t>(replays.size());
  const uint64_t failed = warm.failed + plain.failed + traced.failed + replay_failed;
  const bool correct = failed == 0;

  // 4. Metrics.
  std::vector<double> lat_ms;
  lat_ms.reserve(plain.samples.size());
  for (const QuerySample& s : plain.samples) {
    lat_ms.push_back(static_cast<double>(s.latency_ns) / 1e6);
  }
  const std::optional<double> p50 = wirebench::TailPercentile(lat_ms, 0.5);
  const std::optional<double> p90 = wirebench::TailPercentile(lat_ms, 0.9);
  const uint64_t ok_queries = plain.samples.size();

  std::printf("# wirebench workload=%s seed=%llu seconds=%g trace=%d setups=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kSetUps);
  std::printf("# commit=%s isa=%s nproc=%ld\n", args.commit.c_str(), IsaName(isa),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# connections=%d handlers=%d max_inflight=%d exec_threads=%d "
              "distinct_queries=%d closed_loop=1\n",
              w.connections, w.handlers, w.max_inflight, w.exec_threads,
              w.distinct_queries);
  std::printf("# queries: warmup=%llu timed=%llu traced=%llu replayed=%zu; "
              "latency percentiles over n=%llu samples (p50 tail=%llu, "
              "p90 tail=%llu)\n",
              static_cast<unsigned long long>(warm.attempted),
              static_cast<unsigned long long>(plain.attempted),
              static_cast<unsigned long long>(traced.attempted), replays.size(),
              static_cast<unsigned long long>(ok_queries),
              static_cast<unsigned long long>(ok_queries - (ok_queries + 1) / 2),
              static_cast<unsigned long long>(
                  ok_queries - std::min<uint64_t>(
                                   ok_queries, static_cast<uint64_t>(std::ceil(
                                                   0.9 * static_cast<double>(ok_queries))))));
  std::printf("# qps and cpu_ms_per_query: medians over %zu blocks of %llu "
              "queries\n",
              rates.blocks, static_cast<unsigned long long>(rates.queries_per_block));
  std::printf("# example query: %s\n", defs[0].line.c_str());
  std::printf("# set-ups (s):");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("; register (s):");
  for (double v : register_s) std::printf(" %.4f", v);
  std::printf("\n");
  if (!args.trace && (!p50 || !p90)) {
    std::fprintf(stderr,
                 "too few samples: %llu latencies cannot back p90 with %zu "
                 "samples beyond it; raise --seconds\n",
                 static_cast<unsigned long long>(ok_queries),
                 wirebench::kMinTailSamples);
    return 3;
  }

  const double failed_frac = wirebench::Ratio(static_cast<double>(failed),
                                              static_cast<double>(attempted));
  std::vector<Metric> e2e = {
      {"qps", rates.qps, "1/s"},
      {"latency_p50_ms", p50.value_or(0.0), "ms"},
      {"latency_p90_ms", p90.value_or(0.0), "ms"},
      {"cpu_ms_per_query", rates.cpu_ms_per_query, "ms"},
      {"setup_s", wirebench::Median(setup_s), "s"},
      {"bytes_per_user_byte", bytes_per_user_byte, "B/B"},
      {"rss_mb", rss_mb, "MB"},
      {"ok_frac", 1.0 - failed_frac, "frac"},
  };
  std::printf("# end-to-end (metrics and tracing off):\n");
  for (const Metric& m : e2e) {
    std::printf("#   %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("#   %-28s %14.6f %s\n", "failed_frac", failed_frac, "frac");

  if (!args.trace) {
    PrintResult(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  auto delta = [&](const char* name) {
    auto it = deltas.find(name);
    return it == deltas.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto median_of = [&](double ReplayTimes::*field) {
    std::vector<double> v;
    for (const ReplayTimes& r : replays) v.push_back(r.*field);
    return wirebench::Median(std::move(v));
  };
  const uint64_t tq = traced.samples.size();
  double exec_ns = 0, queue_ns = 0;
  for (const QuerySample& s : traced.samples) {
    exec_ns += static_cast<double>(s.exec_ns);
    queue_ns += static_cast<double>(s.queue_ns);
  }
  const double build_ms = median_of(&ReplayTimes::build_ms);
  const double run_ms = median_of(&ReplayTimes::run_ms);
  const double probe_rows =
      static_cast<double>(kTables[w.probe_table].rows);
  const double traced_qps = traced.Rates().qps;
  std::vector<Metric> layers = {
      {"net.residual_ms", wirebench::ResidualMs(traced.samples), "ms"},
      {"net.parse_us", median_of(&ReplayTimes::parse_us), "us"},
      {"net.encode_us", median_of(&ReplayTimes::encode_us), "us"},
      {"net.resp_bytes", median_of(&ReplayTimes::resp_bytes), "B"},
      {"server.queue_ms", wirebench::PerQuery(queue_ns / 1e6, tq), "ms"},
      {"server.bind_us", median_of(&ReplayTimes::bind_us), "us"},
      {"server.register_s", wirebench::Median(register_s), "s"},
      {"exec.exec_ms", wirebench::PerQuery(exec_ns / 1e6, tq), "ms"},
      {"exec.build_ms", build_ms, "ms"},
      {"exec.probe_ms", std::max(0.0, run_ms - build_ms), "ms"},
      {"exec.cpu_ms", median_of(&ReplayTimes::run_cpu_ms), "ms"},
      {"exec.ns_per_scanned_row", wirebench::Ratio(run_ms * 1e6, probe_rows), "ns"},
      {"exec.join_hit_frac", median_of(&ReplayTimes::join_hit_frac), "frac"},
      {"exec.chunks_per_query", wirebench::PerQuery(delta("chunks_pushed"), tq),
       "count"},
      {"compress.compress_s", compress_s, "s"},
      {"compress.packed_ratio", packed_ratio, "ratio"},
      {"compress.skip_frac",
       wirebench::Ratio(delta("blocks_skipped"),
                        blocks_per_query * static_cast<double>(tq)),
       "frac"},
      {"compress.unpacked_bytes_per_query",
       wirebench::PerQuery(delta("bytes_unpacked"), tq), "B"},
      {"util.morsels_per_query",
       wirebench::PerQuery(static_cast<double>(traced.morsels), tq), "count"},
      {"util.steals_per_query", wirebench::PerQuery(delta("steals"), tq), "count"},
      {"util.fair_quanta_per_query",
       wirebench::PerQuery(delta("fair_quanta"), tq), "count"},
      {"trace.overhead_frac", 1.0 - wirebench::Ratio(traced_qps, rates.qps), "frac"},
  };
  std::printf("# per-layer (traced: %llu wire queries, %zu replays):\n",
              static_cast<unsigned long long>(tq), replays.size());
  for (const Metric& m : layers) {
    std::printf("#   %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!args.spans_path.empty()) {
    uint64_t origin = ~uint64_t{0};
    for (const Span& s : traced.spans) origin = std::min(origin, s.start_ns);
    if (!WriteSpans(args.spans_path, traced.spans, origin)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
      return 2;
    }
    std::printf("# spans: %zu written to %s\n", traced.spans.size(),
                args.spans_path.c_str());
  }
  PrintResult(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}
