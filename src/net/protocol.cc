#include "net/protocol.h"

#include <charconv>
#include <cstring>

namespace simddb::net {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer: space-separated tokens as views into the line. Positions are
// byte offsets into the original line for the structured parse errors.

struct Cursor {
  std::string_view line;
  size_t pos = 0;

  void SkipSpaces() {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  }

  /// Next space-delimited token, or empty view at end of line.
  std::string_view Next(size_t* tok_pos) {
    SkipSpaces();
    *tok_pos = pos;
    size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    return line.substr(start, pos - start);
  }
};

bool Fail(ParseError* err, size_t pos, const char* expected) {
  err->pos = pos;
  err->expected = expected;
  return false;
}

/// Strict uint parse of the WHOLE view: digits only, no sign, value must
/// fit `max`. (std::from_chars accepts partial prefixes; the wrapper
/// rejects trailing garbage so `r=[1x,2]` is a parse error, not r=[1,2].)
bool ParseUint(std::string_view s, uint64_t max, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (max - static_cast<uint64_t>(c - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ValidTableName(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// `[lo,hi]` with both bounds uint32.
bool ParseRange(std::string_view s, uint32_t* lo, uint32_t* hi) {
  if (s.size() < 5 || s.front() != '[' || s.back() != ']') return false;
  s.remove_prefix(1);
  s.remove_suffix(1);
  const size_t comma = s.find(',');
  if (comma == std::string_view::npos) return false;
  uint64_t l = 0, h = 0;
  if (!ParseUint(s.substr(0, comma), 0xFFFFFFFFu, &l)) return false;
  if (!ParseUint(s.substr(comma + 1), 0xFFFFFFFFu, &h)) return false;
  *lo = static_cast<uint32_t>(l);
  *hi = static_cast<uint32_t>(h);
  return true;
}

constexpr const char* kExpectedClause =
    "clause (build=|probe=|r=|s=|weight=|storage=|isa=)";

bool ParseQueryClauses(Cursor* cur, ParsedQuery* q, ParseError* err) {
  bool seen[7] = {};  // build probe r s weight storage isa
  for (;;) {
    size_t tok_pos = 0;
    std::string_view tok = cur->Next(&tok_pos);
    if (tok.empty()) break;
    const size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Fail(err, tok_pos, kExpectedClause);
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    const size_t val_pos = tok_pos + eq + 1;
    int slot;
    if (key == "build") {
      slot = 0;
    } else if (key == "probe") {
      slot = 1;
    } else if (key == "r") {
      slot = 2;
    } else if (key == "s") {
      slot = 3;
    } else if (key == "weight") {
      slot = 4;
    } else if (key == "storage") {
      slot = 5;
    } else if (key == "isa") {
      slot = 6;
    } else {
      return Fail(err, tok_pos, kExpectedClause);
    }
    if (seen[slot]) return Fail(err, tok_pos, "each clause at most once");
    seen[slot] = true;
    switch (slot) {
      case 0:
        if (!ValidTableName(val)) {
          return Fail(err, val_pos, "table name ([A-Za-z0-9_.-]+)");
        }
        q->build_table = val;
        break;
      case 1:
        if (!ValidTableName(val)) {
          return Fail(err, val_pos, "table name ([A-Za-z0-9_.-]+)");
        }
        q->probe_table = val;
        break;
      case 2:
        if (!ParseRange(val, &q->r_lo, &q->r_hi)) {
          return Fail(err, val_pos, "range [lo,hi] with uint32 bounds");
        }
        break;
      case 3:
        if (!ParseRange(val, &q->s_lo, &q->s_hi)) {
          return Fail(err, val_pos, "range [lo,hi] with uint32 bounds");
        }
        break;
      case 4: {
        uint64_t w = 0;
        if (!ParseUint(val, 65536, &w) || w == 0) {
          return Fail(err, val_pos, "weight in [1,65536]");
        }
        q->weight = w;
        break;
      }
      case 5:
        if (val == "raw") {
          q->packed = false;
        } else if (val == "packed") {
          q->packed = true;
        } else {
          return Fail(err, val_pos, "storage (raw|packed)");
        }
        break;
      case 6:
        if (val == "scalar") {
          q->isa = Isa::kScalar;
        } else if (val == "avx2") {
          q->isa = Isa::kAvx2;
        } else if (val == "avx512") {
          q->isa = Isa::kAvx512;
        } else {
          return Fail(err, val_pos, "isa (scalar|avx2|avx512)");
        }
        q->has_isa = true;
        break;
      default:
        break;
    }
  }
  if (!seen[0]) return Fail(err, cur->line.size(), "build=<table>");
  if (!seen[1]) return Fail(err, cur->line.size(), "probe=<table>");
  return true;
}

// ---------------------------------------------------------------------------
// Number formatting into a caller buffer (the encoders' no-alloc path).

void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

/// `prefix<v>` with the '=' included in prefix, e.g. " rows=".
void AppendField(std::string* out, std::string_view prefix, uint64_t v) {
  out->append(prefix);
  AppendU64(out, v);
}

// ---------------------------------------------------------------------------
// Decode helpers (mirror the Cursor, but over response frames).

bool TakeWord(std::string_view* s, std::string_view word) {
  if (s->substr(0, word.size()) != word) return false;
  s->remove_prefix(word.size());
  return true;
}

bool TakeUint(std::string_view* s, uint64_t max, uint64_t* out) {
  size_t n = 0;
  while (n < s->size() && (*s)[n] >= '0' && (*s)[n] <= '9') ++n;
  if (!ParseUint(s->substr(0, n), max, out)) return false;
  s->remove_prefix(n);
  return true;
}

}  // namespace

bool ParseRequest(std::string_view line, Request* req, ParseError* err) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  Cursor cur{line};
  size_t cmd_pos = 0;
  const std::string_view cmd = cur.Next(&cmd_pos);
  *req = Request{};
  if (cmd == "QUERY") {
    req->cmd = Command::kQuery;
    return ParseQueryClauses(&cur, &req->query, err);
  }
  Command c;
  if (cmd == "TABLES") {
    c = Command::kTables;
  } else if (cmd == "STATS") {
    c = Command::kStats;
  } else if (cmd == "PING") {
    c = Command::kPing;
  } else if (cmd == "QUIT") {
    c = Command::kQuit;
  } else if (cmd == "SHUTDOWN") {
    c = Command::kShutdown;
  } else {
    return Fail(err, cmd_pos,
                "command (QUERY|TABLES|STATS|PING|QUIT|SHUTDOWN)");
  }
  size_t extra_pos = 0;
  if (!cur.Next(&extra_pos).empty()) {
    return Fail(err, extra_pos, "end of line");
  }
  req->cmd = c;
  return true;
}

server::QuerySpec ToSpec(const ParsedQuery& q) {
  server::QuerySpec spec;
  spec.build_table.assign(q.build_table);
  spec.probe_table.assign(q.probe_table);
  spec.r_lo = q.r_lo;
  spec.r_hi = q.r_hi;
  spec.s_lo = q.s_lo;
  spec.s_hi = q.s_hi;
  spec.prefer_compressed = q.packed;
  return spec;
}

void AppendRow(std::string* out, uint32_t key, uint64_t sum, uint32_t count,
               uint32_t min, uint32_t max) {
  out->append("ROW ");
  AppendU64(out, key);
  out->push_back(' ');
  AppendU64(out, sum);
  out->push_back(' ');
  AppendU64(out, count);
  out->push_back(' ');
  AppendU64(out, min);
  out->push_back(' ');
  AppendU64(out, max);
  out->push_back('\n');
}

void AppendQueryOk(std::string* out, uint64_t rows,
                   const server::QueryStats& stats) {
  AppendField(out, "OK rows=", rows);
  AppendField(out, " exec_ns=", stats.exec_ns);
  AppendField(out, " queue_ns=", stats.queue_wait_ns);
  AppendField(out, " morsels=", stats.morsels_drained);
  out->push_back('\n');
}

void AppendTable(std::string* out, std::string_view name, uint64_t rows,
                 bool compressed) {
  out->append("TABLE ");
  out->append(name);
  AppendField(out, " rows=", rows);
  AppendField(out, " compressed=", compressed ? 1 : 0);
  out->push_back('\n');
}

void AppendTablesOk(std::string* out, uint64_t tables) {
  AppendField(out, "OK tables=", tables);
  out->push_back('\n');
}

void AppendStat(std::string* out, std::string_view name, uint64_t value) {
  out->append("STAT ");
  out->append(name);
  out->push_back(' ');
  AppendU64(out, value);
  out->push_back('\n');
}

void AppendStatsOk(std::string* out, uint64_t stats) {
  AppendField(out, "OK stats=", stats);
  out->push_back('\n');
}

void AppendErr(std::string* out, std::string_view kind,
               std::string_view detail) {
  out->append("ERR ");
  out->append(kind);
  out->push_back(' ');
  // Keep the frame a single line whatever the detail carries.
  for (char c : detail) {
    out->push_back(c == '\n' || c == '\r' || c == '\0' ? ' ' : c);
  }
  out->push_back('\n');
}

std::string FormatParseError(const ParseError& err) {
  std::string s = "at ";
  AppendU64(&s, err.pos);
  s.append(": expected ");
  s.append(err.expected);
  return s;
}

FrameKind ClassifyFrame(std::string_view line) {
  if (line.substr(0, 4) == "ROW ") return FrameKind::kRow;
  if (line.substr(0, 3) == "OK " || line == "OK") return FrameKind::kOk;
  if (line.substr(0, 4) == "ERR ") return FrameKind::kErr;
  if (line.substr(0, 6) == "TABLE ") return FrameKind::kTable;
  if (line.substr(0, 5) == "STAT ") return FrameKind::kStat;
  if (line == "PONG") return FrameKind::kPong;
  if (line == "BYE") return FrameKind::kBye;
  return FrameKind::kOther;
}

bool DecodeRow(std::string_view line, WireRow* row) {
  if (!TakeWord(&line, "ROW ")) return false;
  uint64_t key = 0, sum = 0, count = 0, min = 0, max = 0;
  if (!TakeUint(&line, 0xFFFFFFFFu, &key)) return false;
  if (!TakeWord(&line, " ")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &sum)) return false;
  if (!TakeWord(&line, " ")) return false;
  if (!TakeUint(&line, 0xFFFFFFFFu, &count)) return false;
  if (!TakeWord(&line, " ")) return false;
  if (!TakeUint(&line, 0xFFFFFFFFu, &min)) return false;
  if (!TakeWord(&line, " ")) return false;
  if (!TakeUint(&line, 0xFFFFFFFFu, &max)) return false;
  if (!line.empty()) return false;
  row->key = static_cast<uint32_t>(key);
  row->sum = sum;
  row->count = static_cast<uint32_t>(count);
  row->min = static_cast<uint32_t>(min);
  row->max = static_cast<uint32_t>(max);
  return true;
}

bool DecodeQueryOk(std::string_view line, WireResult* result) {
  if (!TakeWord(&line, "OK rows=")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &result->rows_declared)) return false;
  if (!TakeWord(&line, " exec_ns=")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &result->exec_ns)) return false;
  if (!TakeWord(&line, " queue_ns=")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &result->queue_ns)) return false;
  if (!TakeWord(&line, " morsels=")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &result->morsels)) return false;
  return line.empty();
}

bool DecodeTable(std::string_view line, WireTable* table) {
  if (!TakeWord(&line, "TABLE ")) return false;
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp == 0) return false;
  const std::string_view name = line.substr(0, sp);
  line.remove_prefix(sp);
  uint64_t compressed = 0;
  if (!TakeWord(&line, " rows=")) return false;
  if (!TakeUint(&line, ~uint64_t{0}, &table->rows)) return false;
  if (!TakeWord(&line, " compressed=")) return false;
  if (!TakeUint(&line, 1, &compressed)) return false;
  if (!line.empty()) return false;
  table->name.assign(name);
  table->compressed = compressed != 0;
  return true;
}

bool DecodeStat(std::string_view line, std::string* name, uint64_t* value) {
  if (!TakeWord(&line, "STAT ")) return false;
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp == 0) return false;
  const std::string_view n = line.substr(0, sp);
  line.remove_prefix(sp + 1);
  if (!TakeUint(&line, ~uint64_t{0}, value)) return false;
  if (!line.empty()) return false;
  name->assign(n);
  return true;
}

}  // namespace simddb::net
