// Serving-layer tests (src/server/): catalog registration/lookup and
// immutability, QuerySpec binding against catalog columns, and the
// acceptance bar for concurrent serving — 8..32 client threads calling
// QueryScheduler::Run on the shared TaskPool get results byte-identical to
// serial execution of the same plans at threads {1, 8}, every query's
// morsels drain
// (no-starvation), the admission gate bounds in-flight queries under both
// policies, and per-query metric sinks attribute work with no cross-query
// bleed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/isa.h"
#include "exec/query.h"
#include "obs/metrics.h"
#include "server/catalog.h"
#include "server/scheduler.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"

namespace simddb {
namespace {

using exec::ExecConfig;
using exec::QueryResult;
using exec::ScanJoinAggregatePlan;
using server::AdmissionPolicy;
using server::Catalog;
using server::QueryScheduler;
using server::QuerySpec;
using server::ResultSet;
using server::SchedulerOptions;
using server::TableOptions;

uint64_t Metric(const char* name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Get().Snapshot()) {
    if (std::strcmp(s.name, name) == 0) return s.value;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return 0;
}

struct ScopedMetrics {
  ScopedMetrics() {
    obs::EnableMetrics(true);
    obs::MetricsRegistry::Get().ResetAll();
  }
  ~ScopedMetrics() { obs::EnableMetrics(false); }
};

/// R key strides. Dense keys (stride 1) give every build side the
/// direct-indexed join table; stride 16 spreads a build side over more
/// than twice the hash table's bucket count, so it gets the
/// LinearProbingTable.
constexpr uint32_t kDenseKeys = 1;
constexpr uint32_t kSparseKeys = 16;

/// Catalog tables shaped like the executor's Q3 plan: R(pk, attr) with
/// unique keys 1 + stride * row, S(fk, val) whose fks pick R rows
/// uniformly. `sequential_vals` makes S.val the row index, so a [lo, hi]
/// window selects a contiguous chunk band. Dense R gets a join index;
/// "Rrep" is R with its last row's key repeating the row before's, outside
/// every window below R's last two keys, so it gets none: its queries run
/// the per-query build with R's results.
struct ServerData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals, rep_keys;
  size_t n_r, n_s;
  uint32_t key_stride;
  Catalog catalog;

  explicit ServerData(size_t nr, size_t ns, bool sequential_vals = false,
                      bool compress = false, uint32_t stride = kDenseKeys)
      : n_r(nr), n_s(ns), key_stride(stride) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    for (size_t i = 0; i < nr; ++i) r_keys[i] = Key(i);  // no kEmptyKey
    FillUniform(r_attrs.data(), nr, 5, 1, 64);
    FillUniform(s_fks.data(), ns, 6, 1,
                nr == 0 ? 1 : static_cast<uint32_t>(nr));
    for (size_t i = 0; i < ns; ++i) s_fks[i] = Key(s_fks[i] - 1);
    if (sequential_vals) {
      FillSequential(s_vals.data(), ns, 0);
    } else {
      FillUniform(s_vals.data(), ns, 7, 0, 999'999);
    }
    TableOptions opts;
    opts.compress = compress;
    EXPECT_NE(
        catalog.RegisterTable("R", r_keys.data(), r_attrs.data(), nr, opts),
        nullptr);
    EXPECT_NE(
        catalog.RegisterTable("S", s_fks.data(), s_vals.data(), ns, opts),
        nullptr);
    if (nr >= 2) {
      rep_keys.Reset(nr + 16);
      std::copy(r_keys.data(), r_keys.data() + nr, rep_keys.data());
      rep_keys[nr - 1] = Key(nr - 2);
      EXPECT_NE(catalog.RegisterTable("Rrep", rep_keys.data(), r_attrs.data(),
                                      nr, opts),
                nullptr);
    }
  }

  /// The key of R row `row`.
  uint32_t Key(size_t row) const {
    return static_cast<uint32_t>(1 + row * key_stride);
  }
};

/// Binds the spec, runs its build pipeline alone and returns whether
/// HashBuildOp built the direct-indexed join table (a build that refuses a
/// repeated key still reports the layout it chose).
bool BuildsDirectTable(const Catalog& catalog, const QuerySpec& spec) {
  ScanJoinAggregatePlan plan;
  std::string error;
  EXPECT_TRUE(server::BindQuery(catalog, spec, &plan, &error)) << error;
  exec::Query q;
  exec::HashBuildOp* build = exec::AddBuildPipeline(q, plan);
  try {
    q.Run(ExecConfig{});
  } catch (const exec::QueryError&) {
  }
  return build->direct();
}

/// Whether BindQuery hands the spec's plan a join index.
bool BorrowsIndex(const Catalog& catalog, const QuerySpec& spec) {
  ScanJoinAggregatePlan plan;
  std::string error;
  EXPECT_TRUE(server::BindQuery(catalog, spec, &plan, &error)) << error;
  return plan.r_index != nullptr;
}

/// The spec's bound plan run with the per-query build: the reference every
/// index-served result must equal byte for byte.
QueryResult PerQueryBuild(const Catalog& catalog, const QuerySpec& spec,
                          const ExecConfig& cfg) {
  ScanJoinAggregatePlan plan;
  std::string error;
  EXPECT_TRUE(server::BindQuery(catalog, spec, &plan, &error)) << error;
  plan.r_index = nullptr;
  return exec::RunScanJoinAggregate(plan, cfg);
}

QuerySpec SpecFor(int i, size_t n_r) {
  QuerySpec spec;
  spec.build_table = "R";
  spec.probe_table = "S";
  spec.r_lo = 1;
  spec.r_hi = static_cast<uint32_t>((3 * n_r) / 4);
  spec.s_lo = static_cast<uint32_t>((i * 37) % 700'000);
  spec.s_hi = spec.s_lo + 150'000;
  return spec;
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& ctx) {
  ASSERT_EQ(got.group_keys, want.group_keys) << ctx;
  ASSERT_EQ(got.sums, want.sums) << ctx;
  ASSERT_EQ(got.counts, want.counts) << ctx;
  ASSERT_EQ(got.mins, want.mins) << ctx;
  ASSERT_EQ(got.maxs, want.maxs) << ctx;
  EXPECT_EQ(got.rows_build, want.rows_build) << ctx;
  EXPECT_EQ(got.rows_scanned, want.rows_scanned) << ctx;
  EXPECT_EQ(got.rows_joined, want.rows_joined) << ctx;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(ServerCatalogTest, RegisterFindAndImmutability) {
  Catalog catalog;
  std::vector<uint32_t> keys{1, 2, 3}, vals{10, 20, 30};
  const server::Table* t =
      catalog.RegisterTable("orders", keys.data(), vals.data(), keys.size());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rows(), 3u);
  EXPECT_EQ(t->name(), "orders");
  EXPECT_EQ(std::memcmp(t->keys(), keys.data(), 3 * sizeof(uint32_t)), 0);
  EXPECT_EQ(std::memcmp(t->vals(), vals.data(), 3 * sizeof(uint32_t)), 0);

  // The catalog owns a copy: mutating the source does not affect it.
  keys[0] = 999;
  EXPECT_EQ(t->keys()[0], 1u);

  EXPECT_EQ(catalog.Find("orders"), t);
  EXPECT_EQ(catalog.Find("nope"), nullptr);

  // Re-registration is an error, never a replace.
  EXPECT_EQ(
      catalog.RegisterTable("orders", vals.data(), keys.data(), keys.size()),
      nullptr);
  EXPECT_EQ(catalog.Find("orders"), t);

  catalog.RegisterTable("a", keys.data(), vals.data(), 2);
  EXPECT_EQ(catalog.size(), 2u);
  const std::vector<std::string> names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // ascending
  EXPECT_EQ(names[1], "orders");
}

TEST(ServerCatalogTest, CompressedTwinsRegisteredOnRequest) {
  Catalog catalog;
  std::vector<uint32_t> keys(5000), vals(5000);
  FillSequential(keys.data(), keys.size(), 1);
  FillUniform(vals.data(), vals.size(), 11, 0, 4095);
  TableOptions opts;
  opts.compress = true;
  const server::Table* t =
      catalog.RegisterTable("c", keys.data(), vals.data(), keys.size(), opts);
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->keys_compressed(), nullptr);
  ASSERT_NE(t->vals_compressed(), nullptr);
  EXPECT_EQ(t->keys_compressed()->size(), keys.size());
  EXPECT_EQ(t->vals_compressed()->size(), vals.size());

  const server::Table* raw =
      catalog.RegisterTable("raw", keys.data(), vals.data(), keys.size());
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->keys_compressed(), nullptr);
}

TEST(ServerCatalogTest, JoinIndexAndBytesPerTable) {
  // Each table's raw, packed-twin and join-index bytes, and their sums. A
  // join index goes to the tables with unique keys over a narrow range
  // and no reserved value (exec::JoinIndex::Build); a compressed table's
  // key range comes from its twin's zone maps. "probe_packed" is shaped
  // like a probe table: foreign keys over 512 values, refused.
  std::vector<uint32_t> keys(5000), vals(5000), probe(5000);
  FillSequential(keys.data(), keys.size(), 1);
  FillUniform(vals.data(), vals.size(), 11, 0, 4095);
  FillUniform(probe.data(), probe.size(), 12, 1, 512);
  std::vector<uint32_t> repeat = keys, sparse = keys, reserved = keys;
  repeat[4999] = repeat[0];
  for (uint32_t& k : sparse) k *= 16;
  reserved[4999] = 0xFFFFFFFFu;
  Catalog catalog;
  TableOptions packed;
  packed.compress = true;
  struct Case {
    const char* name;
    const std::vector<uint32_t>* keys;
    bool compress, indexed;
  };
  const Case cases[] = {{"dense", &keys, false, true},
                        {"dense_packed", &keys, true, true},
                        {"repeat", &repeat, false, false},
                        {"sparse", &sparse, false, false},
                        {"sparse_packed", &sparse, true, false},
                        {"probe_packed", &probe, true, false},
                        {"reserved", &reserved, true, false}};
  server::TableBytes sum;
  for (const Case& c : cases) {
    const server::Table* t = catalog.RegisterTable(
        c.name, c.keys->data(), vals.data(), vals.size(),
        c.compress ? packed : TableOptions{});
    ASSERT_NE(t, nullptr) << c.name;
    EXPECT_EQ(t->join_index() != nullptr, c.indexed) << c.name;
    const server::TableBytes b = t->bytes();
    EXPECT_EQ(b.raw, 2 * 4 * (vals.size() + 16)) << c.name;
    EXPECT_EQ(b.packed,
              c.compress ? t->keys_compressed()->packed_bytes() +
                               t->vals_compressed()->packed_bytes()
                         : 0u)
        << c.name;
    // 4 B per key-range slot plus 12 B per 1,024-slot block summary.
    EXPECT_EQ(b.index, c.indexed ? 4 * 5000 + 12 * 5 : 0u) << c.name;
    if (c.compress) {
      EXPECT_GT(b.packed, 0u) << c.name;
    }
    sum.raw += b.raw;
    sum.packed += b.packed;
    sum.index += b.index;
  }
  const server::TableBytes total = catalog.bytes();
  EXPECT_EQ(total.raw, sum.raw);
  EXPECT_EQ(total.packed, sum.packed);
  EXPECT_EQ(total.index, sum.index);
  EXPECT_EQ(total.index, 2 * (4 * 5000 + 12 * 5));
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

TEST(ServerSessionTest, BindResolvesCatalogColumns) {
  ServerData d(1024, 4096);
  QueryScheduler sched(&d.catalog);

  QuerySpec spec = SpecFor(0, d.n_r);
  ScanJoinAggregatePlan plan;
  std::string error;
  ASSERT_TRUE(server::BindQuery(d.catalog, spec, &plan, &error)) << error;
  EXPECT_EQ(plan.r_keys, d.catalog.Find("R")->keys());
  EXPECT_EQ(plan.r_attrs, d.catalog.Find("R")->vals());
  EXPECT_EQ(plan.n_r, d.n_r);
  EXPECT_EQ(plan.s_fks, d.catalog.Find("S")->keys());
  EXPECT_EQ(plan.n_s, d.n_s);
  EXPECT_EQ(plan.s_lo, spec.s_lo);
  EXPECT_EQ(plan.s_hi, spec.s_hi);
  ASSERT_NE(d.catalog.Find("R")->join_index(), nullptr);
  EXPECT_EQ(plan.r_index, d.catalog.Find("R")->join_index());
  spec.build_table = "Rrep";
  ASSERT_TRUE(server::BindQuery(d.catalog, spec, &plan, &error)) << error;
  EXPECT_EQ(plan.r_index, nullptr);
  spec.build_table = "R";

  spec.probe_table = "missing";
  EXPECT_FALSE(server::BindQuery(d.catalog, spec, &plan, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);

  spec.probe_table = "S";
  spec.prefer_compressed = true;  // tables registered without twins
  EXPECT_FALSE(server::BindQuery(d.catalog, spec, &plan, &error));
}

TEST(ServerSessionTest, CompressedExecutionMatchesRaw) {
  ServerData d(2048, 16384, /*sequential_vals=*/false, /*compress=*/true);
  QueryScheduler sched(&d.catalog);
  ExecConfig cfg;
  cfg.threads = 4;

  QuerySpec spec = SpecFor(1, d.n_r);
  ResultSet raw = sched.Run(spec, cfg);
  ASSERT_TRUE(raw.ok) << raw.error;
  spec.prefer_compressed = true;
  ResultSet comp = sched.Run(spec, cfg);
  ASSERT_TRUE(comp.ok) << comp.error;
  ExpectSameResult(comp.result, raw.result, "compressed vs raw");
}

// ---------------------------------------------------------------------------
// Concurrent serving: byte-identity + no-starvation
// ---------------------------------------------------------------------------

TEST(ServerSchedulerTest, ConcurrentSessionsByteIdenticalVsSerial) {
  // Even clients build on R, through its join index; odd ones on Rrep,
  // through the per-query direct build.
  ServerData d(4096, 65536);
  auto spec_for = [&](int i) {
    QuerySpec spec = SpecFor(i, d.n_r);
    if (i % 2 == 1) spec.build_table = "Rrep";
    return spec;
  };
  ASSERT_TRUE(BorrowsIndex(d.catalog, spec_for(0)));
  ASSERT_FALSE(BorrowsIndex(d.catalog, spec_for(1)));
  ASSERT_TRUE(BuildsDirectTable(d.catalog, spec_for(1)));
  for (int clients : {8, 32}) {
    for (int threads : {1, 8}) {
      ExecConfig cfg;
      cfg.threads = threads;

      // Serial reference: the same bound plans straight through the
      // executor, one at a time, each with its per-query build.
      std::vector<QueryResult> want;
      for (int i = 0; i < clients; ++i) {
        want.push_back(PerQueryBuild(d.catalog, spec_for(i), cfg));
      }

      QueryScheduler sched(&d.catalog);
      std::vector<ResultSet> got(clients);
      std::vector<std::thread> workers;
      for (int i = 0; i < clients; ++i) {
        workers.emplace_back([&, i] {
          got[i] = sched.Run(spec_for(i), cfg);
        });
      }
      for (auto& w : workers) w.join();

      for (int i = 0; i < clients; ++i) {
        const std::string ctx = "clients=" + std::to_string(clients) +
                                " threads=" + std::to_string(threads) +
                                " q=" + std::to_string(i);
        ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
        ExpectSameResult(got[i].result, want[i], ctx);
        // No-starvation: every query's morsels drained, including at
        // threads = 1 (inline path).
        EXPECT_GE(got[i].stats.morsels_drained, 1u) << ctx;
      }
      EXPECT_EQ(sched.queries_completed(), static_cast<uint64_t>(clients));
    }
  }
}

TEST(ServerSchedulerTest, PartitionedBuildsUnderConcurrencyMatchThreadsOne) {
  // 24,576 R rows: each query's 18,432-key build side spans two
  // partition-pass morsels, so at threads 2 and 8 every query builds its
  // table in home-bucket ranges on the shared pool while the others run.
  // The keys are sparse: dense ones would take the direct-indexed table,
  // which has no partitioned build. The reference is serial, scalar and
  // threads 1; the concurrent runs use the widest ISA and alternate raw
  // and packed storage.
  ServerData d(24'576, 65'536, /*sequential_vals=*/false, /*compress=*/true,
               kSparseKeys);
  // SpecFor's window, over the first 18,432 rows' keys.
  auto spec_for = [&](int i) {
    QuerySpec spec = SpecFor(i, d.n_r);
    spec.r_hi = d.Key(18'431);
    return spec;
  };
  ASSERT_FALSE(BuildsDirectTable(d.catalog, spec_for(0)));
  constexpr int kClients = 8;
  std::vector<QueryResult> want;
  for (int i = 0; i < kClients; ++i) {
    ScanJoinAggregatePlan plan;
    std::string error;
    ASSERT_TRUE(server::BindQuery(d.catalog, spec_for(i), &plan, &error));
    want.push_back(exec::RunScanJoinAggregate(plan, ExecConfig{}));
  }
  Isa widest = Isa::kScalar;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (IsaSupported(isa)) widest = isa;
  }
  for (int threads : {2, 8}) {
    ExecConfig cfg;
    cfg.isa = widest;
    cfg.threads = threads;
    QueryScheduler sched(&d.catalog);
    std::vector<ResultSet> got(kClients);
    std::vector<std::thread> workers;
    for (int i = 0; i < kClients; ++i) {
      workers.emplace_back([&, i] {
        QuerySpec spec = spec_for(i);
        spec.prefer_compressed = i % 2 == 1;
        got[i] = sched.Run(spec, cfg);
      });
    }
    for (auto& w : workers) w.join();
    for (int i = 0; i < kClients; ++i) {
      const std::string ctx =
          "threads=" + std::to_string(threads) + " q=" + std::to_string(i);
      ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
      EXPECT_EQ(got[i].result.rows_build, 18'432u) << ctx;
      ExpectSameResult(got[i].result, want[i], ctx);
    }
  }
}

TEST(ServerSchedulerTest, AdmissionBlocksAtMaxInflight) {
  ServerData d(2048, 32768);
  SchedulerOptions opts;
  opts.max_inflight = 2;
  opts.policy = AdmissionPolicy::kBlock;
  QueryScheduler sched(&d.catalog, opts);
  EXPECT_EQ(sched.max_inflight(), 2);
  ExecConfig cfg;
  cfg.threads = 4;

  constexpr int kClients = 12;
  std::vector<ResultSet> got(kClients);
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      got[i] = sched.Run(SpecFor(i, d.n_r), cfg);
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    EXPECT_FALSE(got[i].stats.rejected);
  }
  EXPECT_EQ(sched.queries_completed(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(sched.queries_rejected(), 0u);
}

TEST(ServerSchedulerTest, AdmissionRejectPolicyRefusesOverload) {
  ServerData d(4096, 262144);
  SchedulerOptions opts;
  opts.max_inflight = 1;
  opts.policy = AdmissionPolicy::kReject;
  QueryScheduler sched(&d.catalog, opts);
  ExecConfig cfg;
  cfg.threads = 2;

  constexpr int kClients = 8;
  std::atomic<int> ready{0};
  std::vector<ResultSet> got(kClients);
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      got[i] = sched.Run(SpecFor(i, d.n_r), cfg);
    });
  }
  for (auto& w : workers) w.join();

  int ok = 0, rejected = 0;
  for (const ResultSet& rs : got) {
    if (rs.ok) {
      ++ok;
    } else {
      EXPECT_TRUE(rs.stats.rejected);
      EXPECT_NE(rs.error.find("admission"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kClients);
  EXPECT_GE(ok, 1);
  // 8 simultaneous arrivals against a 1-slot gate: overlap is certain
  // enough that at least one rejection must occur.
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(sched.queries_rejected(), static_cast<uint64_t>(rejected));
}

// ---------------------------------------------------------------------------
// Join index
// ---------------------------------------------------------------------------

/// r= windows over ServerData's dense keys [1, n_r]: inverted, one key,
/// wholly below or above, edges inside 1,024-key blocks, and full.
std::vector<std::pair<uint32_t, uint32_t>> ServedWindows(size_t n_r) {
  const uint32_t kmax = static_cast<uint32_t>(n_r);
  return {{500, 400},  {5, 5},     {0, 0},          {kmax + 1, 0xFFFFFFFFu},
          {101, 5001}, {0, 2048},  {3001, 0xFFFFFFFFu}, {0, 0xFFFFFFFFu}};
}

TEST(ServerJoinIndexTest, ServedWindowsMatchThePerQueryBuild) {
  // Every window, ISA and thread count, raw and packed storage, with the
  // windows' sessions running concurrently: the index-served result equals
  // the per-query build of the same bound plan, rows_build included.
  ServerData d(8192, 65536, /*sequential_vals=*/true, /*compress=*/true);
  const auto windows = ServedWindows(d.n_r);
  auto spec_for = [&](size_t w, bool packed) {
    QuerySpec spec;
    spec.build_table = "R";
    spec.probe_table = "S";
    spec.r_lo = windows[w].first;
    spec.r_hi = windows[w].second;
    spec.s_lo = static_cast<uint32_t>(w * 4096);
    spec.s_hi = spec.s_lo + 40'000;
    spec.prefer_compressed = packed;
    return spec;
  };
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    for (int threads : {1, 2, 8}) {
      ExecConfig cfg;
      cfg.isa = isa;
      cfg.threads = threads;
      for (bool packed : {false, true}) {
        QueryScheduler sched(&d.catalog);
        std::vector<ResultSet> got(windows.size());
        std::vector<std::thread> workers;
        for (size_t w = 0; w < windows.size(); ++w) {
          workers.emplace_back([&, w] {
            got[w] = sched.Run(spec_for(w, packed), cfg);
          });
        }
        for (auto& t : workers) t.join();
        for (size_t w = 0; w < windows.size(); ++w) {
          const std::string ctx =
              std::string(IsaName(isa)) + " t=" + std::to_string(threads) +
              (packed ? " packed" : " raw") + " r=[" +
              std::to_string(windows[w].first) + "," +
              std::to_string(windows[w].second) + "]";
          ASSERT_TRUE(got[w].ok) << ctx << ": " << got[w].error;
          ExpectSameResult(got[w].result,
                           PerQueryBuild(d.catalog, spec_for(w, packed), cfg),
                           ctx);
        }
      }
    }
  }
}

TEST(ServerJoinIndexTest, ConcurrentSessionsReadOneIndex) {
  // 16 sessions, 8 queries each over shifting windows, all probing R's one
  // join index at once (the TSan job runs this).
  ServerData d(8192, 65536);
  const exec::JoinIndex* index = d.catalog.Find("R")->join_index();
  ASSERT_NE(index, nullptr);
  constexpr int kSessions = 16;
  constexpr int kQueries = 8;
  ExecConfig cfg;
  cfg.threads = 2;
  const QuerySpec base = SpecFor(0, d.n_r);
  std::vector<QuerySpec> specs;
  std::vector<QueryResult> want;
  for (int s = 0; s < kSessions; ++s) {
    for (int q = 0; q < kQueries; ++q) {
      QuerySpec spec = base;
      spec.r_lo = static_cast<uint32_t>(1 + 331 * (s + q));
      spec.r_hi = spec.r_lo + static_cast<uint32_t>(1000 * (q + 1));
      spec.s_lo = static_cast<uint32_t>(((s * kQueries + q) * 37) % 700'000);
      spec.s_hi = spec.s_lo + 150'000;
      specs.push_back(spec);
      want.push_back(PerQueryBuild(d.catalog, spec, cfg));
    }
  }
  QueryScheduler sched(&d.catalog);
  std::vector<ResultSet> got(want.size());
  std::atomic<int> other_index{0};
  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      for (int q = 0; q < kQueries; ++q) {
        const QuerySpec& spec = specs[s * kQueries + q];
        ScanJoinAggregatePlan plan;
        std::string error;
        if (!server::BindQuery(d.catalog, spec, &plan, &error) ||
            plan.r_index != index) {
          ++other_index;
        }
        got[s * kQueries + q] = sched.Run(spec, cfg);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(other_index.load(), 0);
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string ctx = "query " + std::to_string(i);
    ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
    ExpectSameResult(got[i].result, want[i], ctx);
  }
}

// ---------------------------------------------------------------------------
// Build tables that repeat a key
// ---------------------------------------------------------------------------

/// ServerData plus "Rdup": R's rows with key 1 written over the first 8
/// keys and over row 30,000, registered as a second build table. The far
/// copy sits in a chunk that starts on another lane and, at two or more
/// threads, in another morsel of the partitioned build. Key 1 is R's
/// smallest key: the direct-indexed table's first slot.
struct RepeatedKeyServerData : ServerData {
  AlignedBuffer<uint32_t> dup_keys;
  explicit RepeatedKeyServerData(uint32_t stride)
      : ServerData(40'960, 32768, false, false, stride) {
    dup_keys.Reset(n_r + 16);
    std::copy(r_keys.data(), r_keys.data() + n_r, dup_keys.data());
    std::fill(dup_keys.data(), dup_keys.data() + 8, 1u);
    dup_keys[30'000] = 1u;
    EXPECT_NE(catalog.RegisterTable("Rdup", dup_keys.data(), r_attrs.data(),
                                    n_r),
              nullptr);
  }
};

QuerySpec DupSpec(uint32_t r_lo) {
  QuerySpec spec;
  spec.build_table = "Rdup";
  spec.probe_table = "S";
  spec.r_lo = r_lo;
  return spec;
}

TEST(ServerSchedulerTest, DuplicateBuildKeysFailQueryAndKeepServing) {
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    RepeatedKeyServerData d(stride);
    EXPECT_EQ(BuildsDirectTable(d.catalog, DupSpec(1)), stride == kDenseKeys);
    EXPECT_EQ(BuildsDirectTable(d.catalog, DupSpec(9)), stride == kDenseKeys);
    QueryScheduler sched(&d.catalog);
    for (int threads : {1, 2, 8}) {
      ExecConfig cfg;
      cfg.threads = threads;
      const std::string ctx = "stride=" + std::to_string(stride) +
                              " threads=" + std::to_string(threads);
      const ResultSet bad = sched.Run(DupSpec(1), cfg);
      EXPECT_FALSE(bad.ok) << ctx;
      EXPECT_FALSE(bad.stats.aborted) << ctx;
      EXPECT_NE(bad.error.find("duplicate build keys (key 1 repeats)"),
                std::string::npos)
          << ctx << ": " << bad.error;
      // The repeats lie outside r=[9, ...]: that query runs.
      const ResultSet good = sched.Run(DupSpec(9), cfg);
      ASSERT_TRUE(good.ok) << ctx << ": " << good.error;
      EXPECT_FALSE(good.result.group_keys.empty()) << ctx;
    }
    EXPECT_EQ(sched.queries_completed(), 6u);  // every slot was released
  }
}

// ---------------------------------------------------------------------------
// The reserved value 0xFFFFFFFF in base tables
// ---------------------------------------------------------------------------

/// ServerData plus three tables holding 0xFFFFFFFF: "Rkey" (R with that key
/// on row 30,000), "Rattr" (R with that attr on every fourth row from row
/// 20,000 on) and "Sres" (S with that fk on every other row). Keys of R
/// rows from 20,000 on exceed clean_r_hi, the key of row 19,999, so
/// r=[0, clean_r_hi] leaves both reserved-value build tables clean.
struct ReservedValueServerData : ServerData {
  const uint32_t clean_r_hi;
  AlignedBuffer<uint32_t> res_keys, res_attrs, res_fks;
  explicit ReservedValueServerData(uint32_t stride)
      : ServerData(40'960, 32768, false, false, stride),
        clean_r_hi(Key(19'999)) {
    res_keys.Reset(n_r + 16);
    res_attrs.Reset(n_r + 16);
    res_fks.Reset(n_s + 16);
    std::copy(r_keys.data(), r_keys.data() + n_r, res_keys.data());
    std::copy(r_attrs.data(), r_attrs.data() + n_r, res_attrs.data());
    std::copy(s_fks.data(), s_fks.data() + n_s, res_fks.data());
    res_keys[30'000] = 0xFFFFFFFFu;
    for (size_t i = 20'000; i < n_r; i += 4) res_attrs[i] = 0xFFFFFFFFu;
    for (size_t i = 0; i < n_s; i += 2) res_fks[i] = 0xFFFFFFFFu;
    EXPECT_NE(catalog.RegisterTable("Rkey", res_keys.data(), r_attrs.data(),
                                    n_r),
              nullptr);
    EXPECT_NE(catalog.RegisterTable("Rattr", r_keys.data(), res_attrs.data(),
                                    n_r),
              nullptr);
    EXPECT_NE(catalog.RegisterTable("Sres", res_fks.data(), s_vals.data(),
                                    n_s),
              nullptr);
  }
};

QuerySpec ReservedSpec(const char* build, const char* probe, uint32_t r_hi) {
  QuerySpec spec;
  spec.build_table = build;
  spec.probe_table = probe;
  spec.r_hi = r_hi;
  return spec;
}

TEST(ServerSchedulerTest, ReservedValueBuildFailsQueryAndKeepsServing) {
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    ReservedValueServerData d(stride);
    EXPECT_EQ(BuildsDirectTable(d.catalog,
                                ReservedSpec("Rkey", "S", d.clean_r_hi)),
              stride == kDenseKeys);
    QueryScheduler sched(&d.catalog);
    struct Case {
      const char* table;
      const char* error;
    };
    for (const Case& c :
         {Case{"Rkey", "reserved value 4294967295 in the build keys"},
          Case{"Rattr", "reserved value 4294967295 in the build group "
                        "attributes"}}) {
      for (int threads : {1, 2, 8}) {
        ExecConfig cfg;
        cfg.threads = threads;
        const std::string ctx =
            std::string(c.table) + " threads=" + std::to_string(threads);
        const ResultSet bad =
            sched.Run(ReservedSpec(c.table, "S", 0xFFFFFFFFu), cfg);
        EXPECT_FALSE(bad.ok) << ctx;
        EXPECT_FALSE(bad.stats.aborted) << ctx;
        EXPECT_NE(bad.error.find(c.error), std::string::npos)
            << ctx << ": " << bad.error;
        const ResultSet good =
            sched.Run(ReservedSpec(c.table, "S", d.clean_r_hi), cfg);
        ASSERT_TRUE(good.ok) << ctx << ": " << good.error;
        EXPECT_FALSE(good.result.group_keys.empty()) << ctx;
      }
    }
    EXPECT_EQ(sched.queries_completed(), 12u);  // every slot was released
  }
}

TEST(ServerSchedulerTest, ReservedValueProbeKeysJoinNothing) {
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    // Every other S row of "Sres" probes with fk 0xFFFFFFFF, which R lacks;
    // the other rows keep their fk, an R key, so each of them joins.
    constexpr int kClients = 4;
    ReservedValueServerData d(stride);
    QueryScheduler sched(&d.catalog);
    const uint32_t w = 250'000;  // session i filters val in [i*w, (i+1)*w)
    auto spec_for = [&](int i) {
      QuerySpec spec = ReservedSpec("R", "Sres", 0xFFFFFFFFu);
      spec.s_lo = static_cast<uint32_t>(i) * w;
      spec.s_hi = spec.s_lo + w - 1;
      return spec;
    };
    EXPECT_EQ(BuildsDirectTable(d.catalog, spec_for(0)), stride == kDenseKeys);
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      for (int threads : {1, 8}) {
        ExecConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        std::vector<ResultSet> got(kClients);
        std::vector<std::thread> workers;
        for (int i = 0; i < kClients; ++i) {
          workers.emplace_back([&, i] {
            got[i] = sched.Run(spec_for(i), cfg);
          });
        }
        for (auto& t : workers) t.join();
        for (int i = 0; i < kClients; ++i) {
          const std::string ctx = std::string(IsaName(isa)) +
                                  " threads=" + std::to_string(threads) +
                                  " session " + std::to_string(i);
          ASSERT_TRUE(got[i].ok) << ctx << ": " << got[i].error;
          const QuerySpec spec = spec_for(i);
          uint64_t want = 0;
          for (size_t r = 1; r < d.n_s; r += 2) {
            want += d.s_vals[r] >= spec.s_lo && d.s_vals[r] <= spec.s_hi;
          }
          uint64_t joined = 0;
          for (uint32_t c : got[i].result.counts) joined += c;
          EXPECT_EQ(got[i].result.rows_joined, want) << ctx;
          EXPECT_EQ(joined, want) << ctx;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-query metric attribution
// ---------------------------------------------------------------------------

TEST(ServerSchedulerTest, PerQueryMetricsDoNotBleedAcrossConcurrentQueries) {
  ScopedMetrics metrics;
  // Two very different probe sizes: the small query's per-query sink must
  // see its own small chunk count even while the big query concurrently
  // pushes an order of magnitude more.
  ServerData big(2048, 131072);
  ASSERT_NE(big.catalog.RegisterTable("S_small", big.s_fks.data(),
                                      big.s_vals.data(), 4096),
            nullptr);
  QueryScheduler sched(&big.catalog);
  ExecConfig cfg;
  cfg.threads = 4;

  QuerySpec big_spec = SpecFor(0, big.n_r);
  QuerySpec small_spec = SpecFor(0, big.n_r);
  small_spec.probe_table = "S_small";

  ResultSet big_rs, small_rs;
  std::thread tb([&] {
    big_rs = sched.Run(big_spec, cfg);
  });
  std::thread ts([&] {
    small_rs = sched.Run(small_spec, cfg);
  });
  tb.join();
  ts.join();
  ASSERT_TRUE(big_rs.ok) << big_rs.error;
  ASSERT_TRUE(small_rs.ok) << small_rs.error;

  const uint64_t big_pushed = big_rs.stats.metrics["chunks_pushed"];
  const uint64_t small_pushed = small_rs.stats.metrics["chunks_pushed"];
  EXPECT_GT(big_pushed, 0u);
  EXPECT_GT(small_pushed, 0u);
  // Structural bound, independent of timing: the small query's whole plan
  // is a 2-chunk build grid and a 4-chunk probe grid. If the big query's
  // concurrent 130 chunks bled into the small sink, this bound would
  // break.
  EXPECT_LT(small_pushed, 64u);
  EXPECT_GT(big_pushed, small_pushed);
  // Both sinks together never exceed what the registry recorded globally.
  EXPECT_LE(big_pushed + small_pushed, Metric("chunks_pushed"));
}

}  // namespace
}  // namespace simddb