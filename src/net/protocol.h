#ifndef SIMDDB_NET_PROTOCOL_H_
#define SIMDDB_NET_PROTOCOL_H_

// Wire protocol of the network serving layer: a line-oriented textual
// request language parsed into server::QuerySpec, and a framed textual
// response stream carrying group-by result rows plus QueryStats.
//
// Request grammar (one command per '\n'-terminated line; '\r' before the
// terminator is tolerated; clauses are space-separated and order-free,
// each clause at most once):
//
//   QUERY build=<table> probe=<table> [r=[lo,hi]] [s=[lo,hi]]
//         [weight=W] [storage=raw|packed] [isa=scalar|avx2|avx512]
//   TABLES
//   STATS
//   PING
//   QUIT
//   SHUTDOWN
//
// `build`/`probe` name catalog tables ([A-Za-z0-9_.-]+). `r`/`s` are
// inclusive uint32 ranges filtering the build keys / probe values and
// default to the full domain. `weight` (1..65536, default 1) biases the
// scheduler's weighted-fair morsel gate. `storage=packed` binds the
// compressed table twins. `isa` overrides the server's default backend
// (clamped to host capability at plan build — degrade, don't SIGILL).
//
// Response grammar:
//
//   QUERY ->  ROW <key> <sum> <count> <min> <max>        (one per group)
//             OK rows=<n> exec_ns=<t> queue_ns=<t> morsels=<n>
//   TABLES -> TABLE <name> rows=<n> compressed=<0|1>     (one per table)
//             OK tables=<n>
//   STATS  -> STAT <name> <value>                        (one per counter)
//             OK stats=<n>
//   PING   -> PONG
//   QUIT   -> BYE                                        (then close)
//   SHUTDOWN -> OK shutdown                              (then drain)
//   any error -> ERR <kind> <detail>   kind in {parse, admission, exec}
//
// Parse errors are structured: a byte offset into the offending line plus
// an expected-token message, rendered on the wire as
// `ERR parse at <pos>: expected <what>`. The tokenizer and parser operate
// on string_views of the input line and allocate nothing; only the final
// materialization into server::QuerySpec (ToSpec) copies the table names.
//
// The same encode/decode pairs serve both sides: the server encodes rows
// and trailers, the client (net/client.h) decodes them back, and the
// round-trip is exact — uint32/uint64 values are printed in full decimal,
// so a wire result is byte-identical to the in-process ResultSet it came
// from (the property tests/net_test.cc holds end to end).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/isa.h"
#include "server/scheduler.h"

namespace simddb::net {

enum class Command { kQuery, kTables, kStats, kPing, kQuit, kShutdown };

/// A parsed QUERY line. Table names are views into the input line —
/// valid only while the line's buffer lives; ToSpec copies them out.
struct ParsedQuery {
  std::string_view build_table;
  std::string_view probe_table;
  uint32_t r_lo = 0, r_hi = 0xFFFFFFFFu;
  uint32_t s_lo = 0, s_hi = 0xFFFFFFFFu;
  uint64_t weight = 1;
  bool packed = false;  ///< storage=packed: bind compressed twins
  bool has_isa = false;
  Isa isa = Isa::kScalar;  ///< meaningful only when has_isa
};

/// A parsed request line: the command, plus the query payload when
/// cmd == kQuery.
struct Request {
  Command cmd = Command::kPing;
  ParsedQuery query;
};

/// Structured parse failure: byte offset of the offending token in the
/// line and a static expected-token message. `expected` points at string
/// literals — no allocation, no lifetime to manage.
struct ParseError {
  size_t pos = 0;
  const char* expected = "";
};

/// Parses one request line (no trailing '\n'; a trailing '\r' is
/// stripped). True on success; false fills *err. Never throws, never
/// reads outside `line`, and tolerates arbitrary bytes (NUL included).
bool ParseRequest(std::string_view line, Request* req, ParseError* err);

/// Materializes a ParsedQuery into the scheduler's QuerySpec (copies the
/// table names; sets the packed binding).
server::QuerySpec ToSpec(const ParsedQuery& q);

/// Maximum accepted request-line length, terminator excluded. Longer
/// lines are rejected with `ERR parse` and discarded to the next '\n'.
inline constexpr size_t kMaxLineBytes = 4096;

// ---------------------------------------------------------------------------
// Response encoding (server side). All Append* functions append one or
// more complete '\n'-terminated frames to *out using a stack scratch for
// number formatting — no per-call allocation beyond the buffer's growth.

void AppendRow(std::string* out, uint32_t key, uint64_t sum, uint32_t count,
               uint32_t min, uint32_t max);

/// The result trailer: `OK rows=... exec_ns=... queue_ns=... morsels=...`.
void AppendQueryOk(std::string* out, uint64_t rows,
                   const server::QueryStats& stats);

void AppendTable(std::string* out, std::string_view name, uint64_t rows,
                 bool compressed);
void AppendTablesOk(std::string* out, uint64_t tables);

void AppendStat(std::string* out, std::string_view name, uint64_t value);
void AppendStatsOk(std::string* out, uint64_t stats);

/// `ERR <kind> <detail>` — kind in {parse, admission, exec}.
void AppendErr(std::string* out, std::string_view kind,
               std::string_view detail);

/// Renders a ParseError as the wire detail: `at <pos>: expected <what>`
/// (the caller wraps it in AppendErr(out, "parse", ...)).
std::string FormatParseError(const ParseError& err);

// ---------------------------------------------------------------------------
// Response decoding (client side, and the tests' round-trip checks).

/// One decoded ROW frame.
struct WireRow {
  uint32_t key = 0;
  uint64_t sum = 0;
  uint32_t count = 0;
  uint32_t min = 0;
  uint32_t max = 0;
};

/// One decoded TABLE frame.
struct WireTable {
  std::string name;
  uint64_t rows = 0;
  bool compressed = false;
};

/// Accumulated response of one QUERY exchange.
struct WireResult {
  bool ok = false;
  std::string error;  ///< `<kind> <detail>` of the ERR frame when !ok
  std::vector<WireRow> rows;
  uint64_t rows_declared = 0;  ///< rows=<n> of the OK trailer
  uint64_t exec_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t morsels = 0;
};

/// Frame classification for the client's response loop.
enum class FrameKind { kRow, kOk, kErr, kTable, kStat, kPong, kBye, kOther };
FrameKind ClassifyFrame(std::string_view line);

bool DecodeRow(std::string_view line, WireRow* row);
/// Decodes the QUERY OK trailer into the declared counters of *result.
bool DecodeQueryOk(std::string_view line, WireResult* result);
bool DecodeTable(std::string_view line, WireTable* table);
bool DecodeStat(std::string_view line, std::string* name, uint64_t* value);

}  // namespace simddb::net

#endif  // SIMDDB_NET_PROTOCOL_H_
