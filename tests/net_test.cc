// Network serving layer tests (src/net/): protocol parser property
// sweeps (every optional-clause order, bounds at 0/UINT32_MAX, weight
// extremes), the malformed-input suite (truncated lines, oversized
// tokens, NUL/CRLF/garbage bytes never crash and always produce a
// structured parse error), encode/decode round-trips, and the socket
// acceptance bar: a client-issued QUERY over a real loopback socket
// (Unix-domain and TCP) returns rows byte-identical to the same
// QuerySpec run in-process through QueryScheduler::Run, under
// concurrent clients x executor threads {1, 8}, with admission rejects
// and parse errors reported on the wire and graceful drain delivering
// every in-flight response before the sockets close.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/pipeline.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "server/catalog.h"
#include "server/scheduler.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/rng.h"

namespace simddb {
namespace {

using exec::ExecConfig;
using net::Client;
using net::Command;
using net::ParsedQuery;
using net::ParseError;
using net::Request;
using net::Server;
using net::ServerOptions;
using net::WireResult;
using net::WireRow;
using net::WireTable;
using server::AdmissionPolicy;
using server::Catalog;
using server::QueryScheduler;
using server::QuerySpec;
using server::ResultSet;

// ---------------------------------------------------------------------------
// Parser: valid requests.

TEST(NetProtocolParse, MinimalQueryDefaults) {
  Request req;
  ParseError err;
  ASSERT_TRUE(net::ParseRequest("QUERY build=R probe=S", &req, &err));
  EXPECT_EQ(req.cmd, Command::kQuery);
  EXPECT_EQ(req.query.build_table, "R");
  EXPECT_EQ(req.query.probe_table, "S");
  EXPECT_EQ(req.query.r_lo, 0u);
  EXPECT_EQ(req.query.r_hi, 0xFFFFFFFFu);
  EXPECT_EQ(req.query.s_lo, 0u);
  EXPECT_EQ(req.query.s_hi, 0xFFFFFFFFu);
  EXPECT_EQ(req.query.weight, 1u);
  EXPECT_FALSE(req.query.packed);
  EXPECT_FALSE(req.query.has_isa);
}

TEST(NetProtocolParse, AllClausesAnyOrder) {
  // The full clause set in every rotation plus a few shuffles: clause
  // order must never change the parse.
  const std::vector<std::string> clauses = {
      "build=R",  "probe=S",        "r=[10,200]", "s=[5,99]",
      "weight=4", "storage=packed", "isa=avx2"};
  std::vector<size_t> idx(clauses.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  auto check = [&](const std::vector<size_t>& order) {
    std::string line = "QUERY";
    for (size_t i : order) line += " " + clauses[i];
    Request req;
    ParseError err;
    ASSERT_TRUE(net::ParseRequest(line, &req, &err))
        << line << " -> " << net::FormatParseError(err);
    EXPECT_EQ(req.query.build_table, "R");
    EXPECT_EQ(req.query.probe_table, "S");
    EXPECT_EQ(req.query.r_lo, 10u);
    EXPECT_EQ(req.query.r_hi, 200u);
    EXPECT_EQ(req.query.s_lo, 5u);
    EXPECT_EQ(req.query.s_hi, 99u);
    EXPECT_EQ(req.query.weight, 4u);
    EXPECT_TRUE(req.query.packed);
    EXPECT_TRUE(req.query.has_isa);
    EXPECT_EQ(req.query.isa, Isa::kAvx2);
  };

  // All rotations.
  for (size_t r = 0; r < idx.size(); ++r) {
    std::vector<size_t> order;
    for (size_t i = 0; i < idx.size(); ++i) {
      order.push_back(idx[(i + r) % idx.size()]);
    }
    check(order);
  }
  // Deterministic shuffles.
  Pcg32 rng(77);
  for (int t = 0; t < 50; ++t) {
    std::vector<size_t> order = idx;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
    check(order);
  }
}

TEST(NetProtocolParse, OptionalClauseSubsetsAnyPosition) {
  // Each optional clause alone, in front of / between / after the
  // required pair.
  const std::vector<std::pair<std::string, int>> optionals = {
      {"r=[0,4294967295]", 0}, {"s=[0,0]", 1},    {"weight=65536", 2},
      {"storage=raw", 3},      {"isa=scalar", 4}};
  for (const auto& [clause, which] : optionals) {
    for (const std::string& line :
         {"QUERY " + clause + " build=R probe=S",
          "QUERY build=R " + clause + " probe=S",
          "QUERY build=R probe=S " + clause}) {
      Request req;
      ParseError err;
      ASSERT_TRUE(net::ParseRequest(line, &req, &err))
          << line << " -> " << net::FormatParseError(err);
      switch (which) {
        case 0:
          EXPECT_EQ(req.query.r_lo, 0u);
          EXPECT_EQ(req.query.r_hi, 0xFFFFFFFFu);
          break;
        case 1:
          EXPECT_EQ(req.query.s_lo, 0u);
          EXPECT_EQ(req.query.s_hi, 0u);
          break;
        case 2:
          EXPECT_EQ(req.query.weight, 65536u);
          break;
        case 3:
          EXPECT_FALSE(req.query.packed);
          break;
        case 4:
          EXPECT_TRUE(req.query.has_isa);
          EXPECT_EQ(req.query.isa, Isa::kScalar);
          break;
      }
    }
  }
}

TEST(NetProtocolParse, BoundsAndWeightExtremes) {
  Request req;
  ParseError err;
  ASSERT_TRUE(net::ParseRequest(
      "QUERY build=R probe=S r=[0,0] s=[4294967295,4294967295] weight=1",
      &req, &err));
  EXPECT_EQ(req.query.r_lo, 0u);
  EXPECT_EQ(req.query.r_hi, 0u);
  EXPECT_EQ(req.query.s_lo, 0xFFFFFFFFu);
  EXPECT_EQ(req.query.s_hi, 0xFFFFFFFFu);
  EXPECT_EQ(req.query.weight, 1u);

  ASSERT_TRUE(net::ParseRequest("QUERY build=R probe=S weight=65536", &req,
                                &err));
  EXPECT_EQ(req.query.weight, 65536u);

  // Inverted range parses (it is an empty predicate, not a syntax error).
  ASSERT_TRUE(net::ParseRequest("QUERY build=R probe=S r=[9,3]", &req, &err));
  EXPECT_EQ(req.query.r_lo, 9u);
  EXPECT_EQ(req.query.r_hi, 3u);
}

TEST(NetProtocolParse, SimpleCommandsAndCrLf) {
  Request req;
  ParseError err;
  EXPECT_TRUE(net::ParseRequest("PING", &req, &err));
  EXPECT_EQ(req.cmd, Command::kPing);
  EXPECT_TRUE(net::ParseRequest("TABLES", &req, &err));
  EXPECT_EQ(req.cmd, Command::kTables);
  EXPECT_TRUE(net::ParseRequest("STATS", &req, &err));
  EXPECT_EQ(req.cmd, Command::kStats);
  EXPECT_TRUE(net::ParseRequest("QUIT", &req, &err));
  EXPECT_EQ(req.cmd, Command::kQuit);
  EXPECT_TRUE(net::ParseRequest("SHUTDOWN", &req, &err));
  EXPECT_EQ(req.cmd, Command::kShutdown);
  // Telnet-style CRLF: the '\r' is stripped, everywhere.
  EXPECT_TRUE(net::ParseRequest("PING\r", &req, &err));
  EXPECT_EQ(req.cmd, Command::kPing);
  EXPECT_TRUE(net::ParseRequest("QUERY build=R probe=S\r", &req, &err));
  EXPECT_EQ(req.query.probe_table, "S");
  // Extra whitespace between clauses is fine.
  EXPECT_TRUE(net::ParseRequest("QUERY   build=R \t probe=S  ", &req, &err));
}

// ---------------------------------------------------------------------------
// Parser: malformed input. Every case must fail with a structured error —
// sensible position, non-empty expected message — and never crash.

struct BadLine {
  const char* line;
  const char* expected_substr;  // must appear in err.expected
};

TEST(NetProtocolParse, MalformedSuite) {
  const BadLine cases[] = {
      {"", "command"},
      {"   ", "command"},
      {"query build=R probe=S", "command"},  // keywords are case-sensitive
      {"EXPLAIN build=R", "command"},
      {"PING extra", "end of line"},
      {"QUIT now", "end of line"},
      {"QUERY", "build=<table>"},
      {"QUERY build=R", "probe=<table>"},
      {"QUERY probe=S", "build=<table>"},
      {"QUERY build= probe=S", "table name"},
      {"QUERY build=R! probe=S", "table name"},
      {"QUERY build=R probe=S r=", "range"},
      {"QUERY build=R probe=S r=[5", "range"},
      {"QUERY build=R probe=S r=[5,", "range"},
      {"QUERY build=R probe=S r=[5,]", "range"},
      {"QUERY build=R probe=S r=[,5]", "range"},
      {"QUERY build=R probe=S r=[a,b]", "range"},
      {"QUERY build=R probe=S r=[1x,2]", "range"},
      {"QUERY build=R probe=S r=[-1,2]", "range"},
      {"QUERY build=R probe=S r=[1,4294967296]", "range"},  // > UINT32_MAX
      {"QUERY build=R probe=S r=(1,2)", "range"},
      {"QUERY build=R probe=S weight=0", "weight"},
      {"QUERY build=R probe=S weight=65537", "weight"},
      {"QUERY build=R probe=S weight=-3", "weight"},
      {"QUERY build=R probe=S weight=huge", "weight"},
      {"QUERY build=R probe=S weight=99999999999999999999999", "weight"},
      {"QUERY build=R probe=S scan=compact", "clause"},  // no scan= clause
      {"QUERY build=R probe=S scan=bitmap", "clause"},
      {"QUERY build=R probe=S scan=vector", "clause"},
      {"QUERY build=R probe=S storage=zip", "storage"},
      {"QUERY build=R probe=S isa=sse", "isa"},
      {"QUERY build=R probe=S build=T", "at most once"},
      {"QUERY build=R probe=S r=[1,2] r=[3,4]", "at most once"},
      {"QUERY build=R probe=S bogus=1", "clause"},
      {"QUERY build=R probe=S naked", "clause"},
      {"QUERY build=R probe=S =value", "clause"},
  };
  for (const BadLine& c : cases) {
    Request req;
    ParseError err{~size_t{0}, nullptr};
    EXPECT_FALSE(net::ParseRequest(c.line, &req, &err)) << c.line;
    ASSERT_NE(err.expected, nullptr) << c.line;
    EXPECT_NE(std::string(err.expected).find(c.expected_substr),
              std::string::npos)
        << c.line << " -> expected '" << err.expected << "'";
    EXPECT_LE(err.pos, std::strlen(c.line)) << c.line;
  }
}

TEST(NetProtocolParse, ErrorPositionsPointAtOffendingToken) {
  Request req;
  ParseError err;
  // Position of the bad clause, not of the line start.
  ASSERT_FALSE(net::ParseRequest("QUERY build=R bogus=1", &req, &err));
  EXPECT_EQ(err.pos, 14u);
  // Position of the bad VALUE inside the clause.
  ASSERT_FALSE(net::ParseRequest("QUERY build=R probe=S weight=x", &req,
                                 &err));
  EXPECT_EQ(err.pos, 29u);
  // A clause the grammar does not know points at its token.
  ASSERT_FALSE(net::ParseRequest("QUERY build=R probe=S scan=bitmap", &req,
                                 &err));
  EXPECT_EQ(err.pos, 22u);
  // Missing required clause points at end of line.
  ASSERT_FALSE(net::ParseRequest("QUERY build=R", &req, &err));
  EXPECT_EQ(err.pos, std::strlen("QUERY build=R"));
}

TEST(NetProtocolParse, HostileBytesNeverCrash) {
  // NUL and control bytes inside tokens and as whole lines, long tokens,
  // deterministic garbage fuzz: ParseRequest must return cleanly.
  Request req;
  ParseError err;
  const std::string nul_line = std::string("QUERY build=R\0 probe=S", 22);
  EXPECT_FALSE(net::ParseRequest(nul_line, &req, &err));
  EXPECT_FALSE(net::ParseRequest(std::string("\0\0\0\0", 4), &req, &err));
  EXPECT_FALSE(net::ParseRequest(std::string(10000, 'A'), &req, &err));
  {
    const std::string long_clause =
        "QUERY build=" + std::string(8000, 'x') + " probe=S";
    EXPECT_TRUE(net::ParseRequest(long_clause, &req, &err));  // valid name
  }
  Pcg32 rng(1234);
  for (int t = 0; t < 2000; ++t) {
    const size_t len = rng.Next() % 300;
    std::string line;
    line.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.Next() % 256));
    }
    net::ParseRequest(line, &req, &err);  // result irrelevant; no crash
  }
  // Garbage after a valid prefix keyword.
  for (int t = 0; t < 500; ++t) {
    std::string line = "QUERY build=R probe=S ";
    const size_t len = rng.Next() % 60;
    for (size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.Next() % 256));
    }
    net::ParseRequest(line, &req, &err);
  }
}

// ---------------------------------------------------------------------------
// Encode/decode round trips.

TEST(NetProtocolCodec, RowRoundTrip) {
  std::string out;
  net::AppendRow(&out, 0, 0, 0, 0, 0);
  net::AppendRow(&out, 0xFFFFFFFFu, ~uint64_t{0}, 0xFFFFFFFFu, 0xFFFFFFFFu,
                 0xFFFFFFFFu);
  net::AppendRow(&out, 7, 123456789012345ull, 3, 11, 99);
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] == '\n') {
      lines.push_back(out.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_EQ(lines.size(), 3u);
  WireRow r;
  ASSERT_TRUE(net::DecodeRow(lines[0], &r));
  EXPECT_EQ(r.key, 0u);
  EXPECT_EQ(r.sum, 0u);
  ASSERT_TRUE(net::DecodeRow(lines[1], &r));
  EXPECT_EQ(r.key, 0xFFFFFFFFu);
  EXPECT_EQ(r.sum, ~uint64_t{0});
  EXPECT_EQ(r.count, 0xFFFFFFFFu);
  ASSERT_TRUE(net::DecodeRow(lines[2], &r));
  EXPECT_EQ(r.key, 7u);
  EXPECT_EQ(r.sum, 123456789012345ull);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.min, 11u);
  EXPECT_EQ(r.max, 99u);

  EXPECT_FALSE(net::DecodeRow("ROW 1 2 3 4", &r));       // short
  EXPECT_FALSE(net::DecodeRow("ROW 1 2 3 4 5 6", &r));   // long
  EXPECT_FALSE(net::DecodeRow("ROW 1 2 3 4 x", &r));     // junk
  EXPECT_FALSE(net::DecodeRow("ROW 4294967296 2 3 4 5", &r));  // overflow
}

TEST(NetProtocolCodec, TrailerRoundTrip) {
  server::QueryStats stats;
  stats.exec_ns = 123456;
  stats.queue_wait_ns = 789;
  stats.morsels_drained = 42;
  std::string out;
  net::AppendQueryOk(&out, 17, stats);
  ASSERT_FALSE(out.empty());
  out.pop_back();  // '\n'
  WireResult wr;
  ASSERT_TRUE(net::DecodeQueryOk(out, &wr));
  EXPECT_EQ(wr.rows_declared, 17u);
  EXPECT_EQ(wr.exec_ns, 123456u);
  EXPECT_EQ(wr.queue_ns, 789u);
  EXPECT_EQ(wr.morsels, 42u);
  // The trailer ends after morsels=: a trailing field is malformed.
  EXPECT_FALSE(net::DecodeQueryOk(out + " shared=0", &wr));
}

TEST(NetProtocolCodec, TableAndStatRoundTrip) {
  std::string out;
  net::AppendTable(&out, "lineitem", 6001215, true);
  out.pop_back();
  WireTable t;
  ASSERT_TRUE(net::DecodeTable(out, &t));
  EXPECT_EQ(t.name, "lineitem");
  EXPECT_EQ(t.rows, 6001215u);
  EXPECT_TRUE(t.compressed);

  out.clear();
  net::AppendStat(&out, "net_bytes_in", 987654321);
  out.pop_back();
  std::string name;
  uint64_t value = 0;
  ASSERT_TRUE(net::DecodeStat(out, &name, &value));
  EXPECT_EQ(name, "net_bytes_in");
  EXPECT_EQ(value, 987654321u);
}

TEST(NetProtocolCodec, ErrFramesStaySingleLine) {
  std::string out;
  net::AppendErr(&out, "exec", "multi\nline\rdetail\0with nul");
  ASSERT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(net::ClassifyFrame(std::string_view(out).substr(0, out.size() - 1)),
            net::FrameKind::kErr);
}

// ---------------------------------------------------------------------------
// Loopback end-to-end. One fixture = one catalog + one server on a unique
// Unix socket path (TCP covered separately).

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/simddb_net_test_" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// R key strides. Dense keys (stride 1) give every build side the
/// direct-indexed join table; stride 16 spreads a build side of more than
/// two rows over more than twice the hash table's bucket count, so it gets
/// the LinearProbingTable.
constexpr uint32_t kDenseKeys = 1;
constexpr uint32_t kSparseKeys = 16;

struct NetData {
  AlignedBuffer<uint32_t> r_keys, r_attrs, s_fks, s_vals;
  size_t n_r, n_s;
  uint32_t key_stride;
  Catalog catalog;

  /// R keys 1 + stride * row; S fks pick R rows uniformly.
  explicit NetData(size_t nr, size_t ns, bool compress = false,
                   uint32_t stride = kDenseKeys)
      : n_r(nr), n_s(ns), key_stride(stride) {
    r_keys.Reset(nr + 16);
    r_attrs.Reset(nr + 16);
    s_fks.Reset(ns + 16);
    s_vals.Reset(ns + 16);
    for (size_t i = 0; i < nr; ++i) r_keys[i] = Key(i);
    FillUniform(r_attrs.data(), nr, 5, 1, 64);
    FillUniform(s_fks.data(), ns, 6, 1, static_cast<uint32_t>(nr));
    for (size_t i = 0; i < ns; ++i) s_fks[i] = Key(s_fks[i] - 1);
    FillSequential(s_vals.data(), ns, 0);
    server::TableOptions topts;
    topts.compress = compress;
    catalog.RegisterTable("R", r_keys.data(), r_attrs.data(), nr, topts);
    catalog.RegisterTable("S", s_fks.data(), s_vals.data(), ns, topts);
  }

  /// The key of R row `row`.
  uint32_t Key(size_t row) const {
    return static_cast<uint32_t>(1 + row * key_stride);
  }

  /// The r= clause selecting R rows [first, last].
  std::string Rows(size_t first, size_t last) const {
    return " r=[" + std::to_string(Key(first)) + "," +
           std::to_string(Key(last)) + "]";
  }
};

/// The wire rows must reproduce the in-process ResultSet exactly.
void ExpectWireEqualsLocal(const WireResult& wire, const ResultSet& local) {
  ASSERT_TRUE(wire.ok) << wire.error;
  ASSERT_TRUE(local.ok) << local.error;
  const exec::QueryResult& r = local.result;
  ASSERT_EQ(wire.rows.size(), r.group_keys.size());
  EXPECT_EQ(wire.rows_declared, r.group_keys.size());
  for (size_t i = 0; i < wire.rows.size(); ++i) {
    EXPECT_EQ(wire.rows[i].key, r.group_keys[i]) << i;
    EXPECT_EQ(wire.rows[i].sum, r.sums[i]) << i;
    EXPECT_EQ(wire.rows[i].count, r.counts[i]) << i;
    EXPECT_EQ(wire.rows[i].min, r.mins[i]) << i;
    EXPECT_EQ(wire.rows[i].max, r.maxs[i]) << i;
  }
}

TEST(NetServer, LoopbackByteIdentityAcrossThreadsAndModes) {
  // R is served by its join index; "Rrep", R with its last key written
  // over the row before's, gets none, so its windows below key 1,999 run
  // the per-query direct build.
  NetData data(2000, 30000, /*compress=*/true);
  AlignedBuffer<uint32_t> rep_keys(data.n_r + 16);
  std::copy(data.r_keys.data(), data.r_keys.data() + data.n_r,
            rep_keys.data());
  rep_keys[data.n_r - 1] = data.Key(data.n_r - 2);
  server::TableOptions topts;
  topts.compress = true;
  ASSERT_NE(data.catalog.RegisterTable("Rrep", rep_keys.data(),
                                       data.r_attrs.data(), data.n_r, topts),
            nullptr);
  ASSERT_NE(data.catalog.Find("R")->join_index(), nullptr);
  ASSERT_EQ(data.catalog.Find("Rrep")->join_index(), nullptr);
  for (int threads : {1, 8}) {
    ServerOptions opts;
    opts.unix_path = UniqueSocketPath();
    opts.handler_threads = 2;
    opts.exec.threads = threads;
    Server server(&data.catalog, opts);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
    ASSERT_TRUE(client.Ping());

    QueryScheduler local(&data.catalog);

    struct Case {
      const char* wire;
      bool packed;
      uint32_t r_lo, r_hi, s_lo, s_hi;
      const char* build = "R";
    };
    const Case cases[] = {
        {"QUERY build=R probe=S s=[100,8000]", false, 0, 0xFFFFFFFFu, 100,
         8000},
        {"QUERY build=R probe=S r=[1,1500] s=[0,29999]", false, 1, 1500, 0,
         29999},
        {"QUERY build=R probe=S s=[4000,12000] storage=packed", true, 0,
         0xFFFFFFFFu, 4000, 12000},
        {"QUERY build=R probe=S s=[0,0]", false, 0, 0xFFFFFFFFu, 0, 0},
        {"QUERY build=R probe=S r=[9,3]", false, 9, 3, 0, 0xFFFFFFFFu},
        {"QUERY build=Rrep probe=S r=[1,1500] s=[0,29999]", false, 1, 1500,
         0, 29999, "Rrep"},
        {"QUERY build=Rrep probe=S r=[0,1998] s=[4000,12000] storage=packed",
         true, 0, 1998, 4000, 12000, "Rrep"},
    };
    for (const Case& c : cases) {
      const WireResult wire = client.Query(c.wire);
      QuerySpec spec;
      spec.build_table = c.build;
      spec.probe_table = "S";
      spec.r_lo = c.r_lo;
      spec.r_hi = c.r_hi;
      spec.s_lo = c.s_lo;
      spec.s_hi = c.s_hi;
      spec.prefer_compressed = c.packed;
      ExecConfig cfg;
      cfg.threads = threads;
      const ResultSet rs = local.Run(spec, cfg);
      ExpectWireEqualsLocal(wire, rs);
      EXPECT_GE(wire.morsels, 1u) << c.wire;  // the no-starvation observable
    }

    // isa= clause: results are byte-identical whatever backend runs (the
    // executor clamps unsupported ISAs — degrade, don't SIGILL).
    for (const char* isa_line :
         {"QUERY build=R probe=S s=[100,8000] isa=scalar",
          "QUERY build=R probe=S s=[100,8000] isa=avx2",
          "QUERY build=R probe=S s=[100,8000] isa=avx512"}) {
      const WireResult wire = client.Query(isa_line);
      QuerySpec spec;
      spec.build_table = "R";
      spec.probe_table = "S";
      spec.s_lo = 100;
      spec.s_hi = 8000;
      ExecConfig cfg;
      cfg.threads = threads;
      const ResultSet rs = local.Run(spec, cfg);
      ExpectWireEqualsLocal(wire, rs);
    }

    client.Quit();
    server.Stop();
  }
}

TEST(NetServer, JoinIndexServedWindowsMatchThePerQueryBuild) {
  // One client per r= window sends it on every ISA, raw and packed, to
  // servers at threads {1, 2, 8}, all clients at once. Every response
  // equals the per-query build of the same bound plan, run in-process.
  NetData data(6000, 30000, /*compress=*/true);
  ASSERT_NE(data.catalog.Find("R")->join_index(), nullptr);
  const std::pair<uint32_t, uint32_t> windows[] = {
      {500, 400}, {5, 5},    {0, 0},          {6001, 0xFFFFFFFFu},
      {101, 5001}, {0, 2048}, {3001, 0xFFFFFFFFu}, {0, 0xFFFFFFFFu}};
  constexpr size_t kWindows = sizeof(windows) / sizeof(windows[0]);
  const Isa isas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};
  auto spec_for = [&](size_t w, bool packed) {
    QuerySpec spec;
    spec.build_table = "R";
    spec.probe_table = "S";
    spec.r_lo = windows[w].first;
    spec.r_hi = windows[w].second;
    spec.s_lo = static_cast<uint32_t>(w * 2000);
    spec.s_hi = spec.s_lo + 15'000;
    spec.prefer_compressed = packed;
    return spec;
  };
  auto line_for = [&](size_t w, Isa isa, bool packed) {
    const QuerySpec spec = spec_for(w, packed);
    return "QUERY build=R probe=S r=[" + std::to_string(spec.r_lo) + "," +
           std::to_string(spec.r_hi) + "] s=[" + std::to_string(spec.s_lo) +
           "," + std::to_string(spec.s_hi) + "] isa=" + IsaName(isa) +
           (packed ? " storage=packed" : " storage=raw");
  };
  // want[w][isa][packed]: results are byte-identical across thread counts.
  std::vector<exec::QueryResult> want;
  for (size_t w = 0; w < kWindows; ++w) {
    for (Isa isa : isas) {
      for (bool packed : {false, true}) {
        exec::ScanJoinAggregatePlan plan;
        std::string error;
        ASSERT_TRUE(
            server::BindQuery(data.catalog, spec_for(w, packed), &plan, &error))
            << error;
        plan.r_index = nullptr;
        ExecConfig cfg;
        cfg.isa = isa;
        want.push_back(exec::RunScanJoinAggregate(plan, cfg));
      }
    }
  }
  for (int threads : {1, 2, 8}) {
    ServerOptions opts;
    opts.unix_path = UniqueSocketPath();
    opts.handler_threads = static_cast<int>(kWindows);
    opts.exec.threads = threads;
    Server server(&data.catalog, opts);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    std::vector<std::string> failures(kWindows);
    std::vector<std::thread> clients;
    for (size_t w = 0; w < kWindows; ++w) {
      clients.emplace_back([&, w] {
        Client client;
        std::string cerr;
        if (!client.ConnectUnix(opts.unix_path, &cerr)) {
          failures[w] = cerr;
          return;
        }
        size_t i = w * 6;
        for (Isa isa : isas) {
          for (bool packed : {false, true}) {
            const std::string line = line_for(w, isa, packed);
            const WireResult wire = client.Query(line);
            const exec::QueryResult& r = want[i++];
            bool same = wire.ok && wire.rows.size() == r.group_keys.size();
            for (size_t g = 0; same && g < wire.rows.size(); ++g) {
              same = wire.rows[g].key == r.group_keys[g] &&
                     wire.rows[g].sum == r.sums[g] &&
                     wire.rows[g].count == r.counts[g] &&
                     wire.rows[g].min == r.mins[g] &&
                     wire.rows[g].max == r.maxs[g];
            }
            if (!same && failures[w].empty()) {
              failures[w] = line + ": " + (wire.ok ? "differs" : wire.error);
            }
          }
        }
        client.Quit();
      });
    }
    for (std::thread& c : clients) c.join();
    server.Stop();
    for (size_t w = 0; w < kWindows; ++w) {
      EXPECT_EQ(failures[w], "") << "threads=" << threads;
    }
  }
}

TEST(NetServer, TcpLoopback) {
  NetData data(500, 5000);
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port(), &error))
      << error;
  ASSERT_TRUE(client.Ping());
  const WireResult wire = client.Query("QUERY build=R probe=S s=[10,900]");
  QueryScheduler local(&data.catalog);
  QuerySpec spec;
  spec.build_table = "R";
  spec.probe_table = "S";
  spec.s_lo = 10;
  spec.s_hi = 900;
  ExpectWireEqualsLocal(wire, local.Run(spec, ExecConfig{}));
  client.Quit();
  server.Stop();
}

TEST(NetServer, TablesStatsAndPipelining) {
  NetData data(300, 3000, /*compress=*/true);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;

  std::vector<WireTable> tables;
  ASSERT_TRUE(client.Tables(&tables));
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].name, "R");
  EXPECT_EQ(tables[0].rows, 300u);
  EXPECT_TRUE(tables[0].compressed);
  EXPECT_EQ(tables[1].name, "S");
  EXPECT_EQ(tables[1].rows, 3000u);

  // Pipelined batch: three commands in one write; responses come back in
  // order over the single connection.
  ASSERT_TRUE(client.SendLine(
      "PING\nQUERY build=R probe=S s=[0,999]\nNOT_A_COMMAND"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "PONG");
  size_t rows = 0;
  for (;;) {
    ASSERT_TRUE(client.ReadLine(&line));
    const net::FrameKind k = net::ClassifyFrame(line);
    if (k == net::FrameKind::kRow) {
      ++rows;
      continue;
    }
    ASSERT_EQ(k, net::FrameKind::kOk) << line;
    break;
  }
  EXPECT_GE(rows, 1u);
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(net::ClassifyFrame(line), net::FrameKind::kErr) << line;
  EXPECT_EQ(line.substr(0, 10), "ERR parse ");

  // STATS reflects what this session did.
  std::vector<std::pair<std::string, uint64_t>> stats;
  ASSERT_TRUE(client.Stats(&stats));
  auto value_of = [&](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : stats) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing stat " << name;
    return 0;
  };
  EXPECT_GE(value_of("connections_opened"), 1u);
  EXPECT_EQ(value_of("connections_active"), 1u);
  EXPECT_EQ(value_of("queries_parsed"), 1u);
  EXPECT_EQ(value_of("queries_ok"), 1u);
  EXPECT_EQ(value_of("parse_errors"), 1u);
  EXPECT_GT(value_of("bytes_in"), 0u);
  EXPECT_GT(value_of("bytes_out"), 0u);
  EXPECT_EQ(value_of("sched_completed"), 1u);
  // The catalog's resident bytes, reported with metrics off: both tables'
  // slack-padded raw columns, their packed twins, and R's join index (4 B
  // per key 1..300 plus one 1,024-slot block summary; S repeats keys).
  const server::Table* r = data.catalog.Find("R");
  const server::Table* s = data.catalog.Find("S");
  EXPECT_EQ(value_of("catalog_raw_bytes"), 8u * (300 + 16) + 8u * (3000 + 16));
  EXPECT_EQ(value_of("catalog_packed_bytes"),
            r->keys_compressed()->packed_bytes() +
                r->vals_compressed()->packed_bytes() +
                s->keys_compressed()->packed_bytes() +
                s->vals_compressed()->packed_bytes());
  EXPECT_EQ(value_of("catalog_index_bytes"), 4u * 300 + 12);
  EXPECT_EQ(s->join_index(), nullptr);

  client.Quit();
  server.Stop();
  const net::ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.connections_active, 0u);
  EXPECT_EQ(final_stats.queries_parsed, 1u);
  EXPECT_EQ(final_stats.parse_errors, 1u);
}

TEST(NetServer, WireCountersInObsRegistry) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Get().ResetAll();
  NetData data(300, 3000);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  ASSERT_TRUE(client.Query("QUERY build=R probe=S").ok);
  EXPECT_FALSE(client.Query("QUERY bogus").ok);
  client.Quit();
  server.Stop();

  const std::map<std::string, uint64_t> snap = obs::SnapshotMap();
  obs::EnableMetrics(false);
  auto metric = [&](const char* name) {
    auto it = snap.find(name);
    return it == snap.end() ? uint64_t{0} : it->second;
  };
  EXPECT_EQ(metric("net_connections_opened"), 1u);
  EXPECT_EQ(metric("net_connections_closed"), 1u);
  EXPECT_EQ(metric("net_queries_parsed"), 1u);
  EXPECT_EQ(metric("net_parse_errors"), 1u);
  EXPECT_GT(metric("net_bytes_in"), 0u);
  EXPECT_GT(metric("net_bytes_out"), 0u);
}

TEST(NetServer, MalformedBytesOnTheWireNeverKillTheServer) {
  NetData data(300, 3000);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    Client client;
    ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
    // Oversized line (> kMaxLineBytes): ERR parse, connection resyncs.
    ASSERT_TRUE(client.SendLine(std::string(10000, 'x')));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.substr(0, 10), "ERR parse ");
    // The connection is still usable after the resync.
    EXPECT_TRUE(client.Ping());
    // NUL and control garbage: a structured error, not a crash.
    ASSERT_TRUE(client.SendLine(std::string("\x01\x02\x00\x7f", 4)));
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.substr(0, 10), "ERR parse ");
    EXPECT_TRUE(client.Ping());
    // Truncated line (no terminator) then abrupt close: server survives.
    ASSERT_TRUE(client.SendLine("QUERY build=R pro"));
    client.Close();
  }
  {
    // Unknown tables are an exec error on the wire, not a dropped
    // connection.
    Client client;
    ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
    const WireResult r = client.Query("QUERY build=NoSuch probe=S");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.substr(0, 5), "exec ");
    EXPECT_TRUE(client.Ping());
    client.Quit();
  }
  server.Stop();
}

TEST(NetServer, DuplicateBuildKeysAnswerErrAndTheServerKeepsServing) {
  // "Rdup" is R with key 1, its smallest, written over its first 64 keys
  // (the direct-indexed table's first slot), and "RdupLast" R with its
  // largest key written over its last 64 (the last slot): a join probe
  // into either would emit up to 64 rows per probe row. Dense and sparse
  // keys put the same tables on both join-table layouts.
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    NetData data(2000, 30000, /*compress=*/true, stride);
    AlignedBuffer<uint32_t> dup_keys(data.n_r + 16), last_keys(data.n_r + 16);
    std::copy(data.r_keys.data(), data.r_keys.data() + data.n_r,
              dup_keys.data());
    std::fill(dup_keys.data(), dup_keys.data() + 64, 1u);
    std::copy(data.r_keys.data(), data.r_keys.data() + data.n_r,
              last_keys.data());
    std::fill(last_keys.data() + data.n_r - 64, last_keys.data() + data.n_r,
              data.Key(data.n_r - 1));
    server::TableOptions topts;
    topts.compress = true;
    ASSERT_NE(data.catalog.RegisterTable("Rdup", dup_keys.data(),
                                         data.r_attrs.data(), data.n_r, topts),
              nullptr);
    ASSERT_NE(data.catalog.RegisterTable("RdupLast", last_keys.data(),
                                         data.r_attrs.data(), data.n_r, topts),
              nullptr);
    const std::string last_error =
        "exec duplicate build keys (key " +
        std::to_string(data.Key(data.n_r - 1)) + " repeats)";
    for (int threads : {1, 8}) {
      ServerOptions opts;
      opts.unix_path = UniqueSocketPath();
      opts.exec.threads = threads;
      Server server(&data.catalog, opts);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      Client client;
      ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
      struct Case {
        std::string line;
        std::string error;
      };
      for (const Case& c :
           {Case{"QUERY build=Rdup probe=S",
                 "exec duplicate build keys (key 1 repeats)"},
            Case{"QUERY build=Rdup probe=S" + data.Rows(0, 499) +
                     " storage=packed",
                 "exec duplicate build keys (key 1 repeats)"},
            Case{"QUERY build=RdupLast probe=S", last_error},
            Case{"QUERY build=RdupLast probe=S isa=avx2 storage=packed",
                 last_error}}) {
        const WireResult bad = client.Query(c.line);
        EXPECT_FALSE(bad.ok) << c.line;
        EXPECT_EQ(bad.error.rfind(c.error, 0), 0u)
            << c.line << ": " << bad.error;
        // The same connection answers a valid query afterwards.
        const WireResult good =
            client.Query("QUERY build=Rdup probe=S" + data.Rows(64, 1999));
        ASSERT_TRUE(good.ok) << good.error;
        EXPECT_FALSE(good.rows.empty());
      }
      // And the server still accepts new connections.
      Client other;
      ASSERT_TRUE(other.ConnectUnix(opts.unix_path, &error)) << error;
      EXPECT_TRUE(other.Ping());
      other.Quit();
      client.Quit();
      server.Stop();
    }
  }
}

TEST(NetServer, ReservedValueBuildAnswersErrAndTheServerKeepsServing) {
  // "Rkey" is R with key 0xFFFFFFFF on row 1,500 and "Rattr" R with attr
  // 0xFFFFFFFF on every fourth row from row 1,000 on, so R rows [0, 999]
  // are clean in both. Dense and sparse keys give the clean windows both
  // join-table layouts.
  for (uint32_t stride : {kDenseKeys, kSparseKeys}) {
    NetData data(2000, 30000, /*compress=*/true, stride);
    AlignedBuffer<uint32_t> res_keys(data.n_r + 16), res_attrs(data.n_r + 16);
    std::copy(data.r_keys.data(), data.r_keys.data() + data.n_r,
              res_keys.data());
    std::copy(data.r_attrs.data(), data.r_attrs.data() + data.n_r,
              res_attrs.data());
    res_keys[1500] = 0xFFFFFFFFu;
    for (size_t i = 1000; i < data.n_r; i += 4) res_attrs[i] = 0xFFFFFFFFu;
    server::TableOptions topts;
    topts.compress = true;
    ASSERT_NE(data.catalog.RegisterTable("Rkey", res_keys.data(),
                                         data.r_attrs.data(), data.n_r, topts),
              nullptr);
    ASSERT_NE(data.catalog.RegisterTable("Rattr", data.r_keys.data(),
                                         res_attrs.data(), data.n_r, topts),
              nullptr);
    for (int threads : {1, 8}) {
      ServerOptions opts;
      opts.unix_path = UniqueSocketPath();
      opts.exec.threads = threads;
      Server server(&data.catalog, opts);
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      Client client;
      ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
      struct Case {
        std::string line;
        const char* error;
      };
      for (const Case& c :
           {Case{"QUERY build=Rkey probe=S",
                 "exec reserved value 4294967295 in the build keys"},
            Case{"QUERY build=Rkey probe=S storage=packed isa=avx2",
                 "exec reserved value 4294967295 in the build keys"},
            Case{"QUERY build=Rattr probe=S",
                 "exec reserved value 4294967295 in the build group "
                 "attributes"},
            Case{"QUERY build=Rattr probe=S" + data.Rows(999, 1999) +
                     " storage=packed",
                 "exec reserved value 4294967295 in the build group "
                 "attributes"}}) {
        const WireResult bad = client.Query(c.line);
        EXPECT_FALSE(bad.ok) << c.line;
        EXPECT_EQ(bad.error.rfind(c.error, 0), 0u)
            << c.line << ": " << bad.error;
        // The same connection answers a valid query afterwards.
        const WireResult good =
            client.Query("QUERY build=Rattr probe=S" + data.Rows(0, 999));
        ASSERT_TRUE(good.ok) << good.error;
        EXPECT_FALSE(good.rows.empty());
      }
      // And the server still accepts new connections.
      Client other;
      ASSERT_TRUE(other.ConnectUnix(opts.unix_path, &error)) << error;
      EXPECT_TRUE(other.Ping());
      other.Quit();
      client.Quit();
      server.Stop();
    }
  }
}

TEST(NetServer, ConcurrentClientsByteIdenticalAcrossThreads) {
  NetData data(1000, 40000);
  for (int threads : {1, 8}) {
    ServerOptions opts;
    opts.unix_path = UniqueSocketPath();
    opts.handler_threads = 8;
    opts.exec.threads = threads;
    Server server(&data.catalog, opts);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    // Reference results computed in-process, one per client window.
    constexpr int kClients = 8;
    constexpr int kQueriesEach = 4;
    QueryScheduler local(&data.catalog);
    std::vector<ResultSet> reference(kClients);
    for (int i = 0; i < kClients; ++i) {
      QuerySpec spec;
      spec.build_table = "R";
      spec.probe_table = "S";
      spec.s_lo = static_cast<uint32_t>(i * 5000);
      spec.s_hi = static_cast<uint32_t>(i * 5000 + 4999);
      ExecConfig cfg;
      cfg.threads = threads;
      reference[i] = local.Run(spec, cfg);
      ASSERT_TRUE(reference[i].ok);
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int i = 0; i < kClients; ++i) {
      workers.emplace_back([&, i] {
        Client client;
        std::string cerr;
        if (!client.ConnectUnix(opts.unix_path, &cerr)) {
          ++failures;
          return;
        }
        const std::string line =
            "QUERY build=R probe=S s=[" + std::to_string(i * 5000) + "," +
            std::to_string(i * 5000 + 4999) + "]";
        for (int q = 0; q < kQueriesEach; ++q) {
          const WireResult wire = client.Query(line);
          if (!wire.ok ||
              wire.rows.size() != reference[i].result.group_keys.size()) {
            ++failures;
            return;
          }
          for (size_t g = 0; g < wire.rows.size(); ++g) {
            const exec::QueryResult& r = reference[i].result;
            if (wire.rows[g].key != r.group_keys[g] ||
                wire.rows[g].sum != r.sums[g] ||
                wire.rows[g].count != r.counts[g] ||
                wire.rows[g].min != r.mins[g] ||
                wire.rows[g].max != r.maxs[g]) {
              ++failures;
              return;
            }
          }
        }
        client.Quit();
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0) << "threads=" << threads;
    server.Stop();
    const net::ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries_parsed,
              static_cast<uint64_t>(kClients * kQueriesEach));
    EXPECT_EQ(stats.queries_ok,
              static_cast<uint64_t>(kClients * kQueriesEach));
  }
}

TEST(NetServer, AdmissionRejectOnTheWire) {
  NetData data(1000, 60000);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  opts.handler_threads = 8;  // more handlers than admission slots
  opts.scheduler.max_inflight = 1;
  opts.scheduler.policy = AdmissionPolicy::kReject;
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // 8 clients hammer concurrently; with one admission slot and reject
  // policy, overlapping queries must surface as `ERR admission` frames —
  // and every response must be either a full result or that error, never
  // a hang or a dropped connection.
  constexpr int kClients = 8;
  std::atomic<int> oks{0}, rejects{0}, anomalies{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&] {
      Client client;
      std::string cerr;
      if (!client.ConnectUnix(opts.unix_path, &cerr)) {
        ++anomalies;
        return;
      }
      for (int q = 0; q < 16; ++q) {
        const WireResult r = client.Query("QUERY build=R probe=S");
        if (r.ok) {
          ++oks;
        } else if (r.error.substr(0, 10) == "admission ") {
          ++rejects;
        } else {
          ++anomalies;
        }
      }
      client.Quit();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_GE(oks.load(), 1);
  EXPECT_GE(rejects.load(), 1) << "no contention observed";
  EXPECT_EQ(oks.load() + rejects.load(), kClients * 16);
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_rejected, static_cast<uint64_t>(rejects.load()));
  server.Stop();
}

TEST(NetServer, GracefulDrainDeliversInFlightResponses) {
  NetData data(1000, 200000);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  opts.handler_threads = 4;
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // An idle second connection: drain must close it cleanly (EOF, no
  // response bytes).
  Client idle;
  ASSERT_TRUE(idle.ConnectUnix(opts.unix_path, &error)) << error;
  ASSERT_TRUE(idle.Ping());

  // In-flight queries at shutdown: every one still gets its full result.
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0}, bad_count{0};
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&] {
      Client client;
      std::string cerr;
      if (!client.ConnectUnix(opts.unix_path, &cerr)) {
        ++bad_count;
        ++started;
        return;
      }
      ++started;
      const WireResult r = client.Query("QUERY build=R probe=S");
      if (r.ok && !r.rows.empty()) {
        ++ok_count;
      } else {
        ++bad_count;
      }
    });
  }
  while (started.load() < kClients) std::this_thread::yield();
  // "In-flight" means dispatched server-side, not just written client-side:
  // wait until the server has parsed all four QUERY lines before draining
  // (a connection whose request bytes are still unread is idle and may be
  // closed unanswered — that is correct drain behavior, not a lost query).
  while (server.stats().queries_parsed <
         static_cast<uint64_t>(kClients)) {
    std::this_thread::yield();
  }
  server.RequestShutdown();
  server.Wait();
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad_count.load(), 0);
  EXPECT_EQ(ok_count.load(), kClients);

  // The idle connection saw EOF...
  std::string line;
  EXPECT_FALSE(idle.ReadLine(&line));
  // ...and new connections are refused (socket unlinked).
  Client late;
  EXPECT_FALSE(late.ConnectUnix(opts.unix_path, &error));
}

TEST(NetServer, ShutdownCommandDrains) {
  NetData data(300, 3000);
  ServerOptions opts;
  opts.unix_path = UniqueSocketPath();
  Server server(&data.catalog, opts);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.ConnectUnix(opts.unix_path, &error)) << error;
  ASSERT_TRUE(client.SendLine("SHUTDOWN"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "OK shutdown");
  EXPECT_FALSE(client.ReadLine(&line));  // server closed after the ack
  server.Wait();
  SUCCEED();
}

}  // namespace
}  // namespace simddb
