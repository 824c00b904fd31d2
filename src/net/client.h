#ifndef SIMDDB_NET_CLIENT_H_
#define SIMDDB_NET_CLIENT_H_

// Blocking client of the wire protocol (net/protocol.h): connect over TCP
// or a Unix-domain socket, send request lines, and iterate decoded
// response frames. One Client is one connection and is single-threaded —
// concurrency comes from many clients, exactly like client threads calling
// server::QueryScheduler::Run on the in-process side.
//
//   net::Client c;
//   std::string err;
//   if (!c.ConnectUnix("/tmp/simddb.sock", &err)) { ... }
//   net::WireResult r = c.Query(
//       "QUERY build=R probe=S s=[100,200] weight=4");
//   for (const net::WireRow& row : r.rows) { ... }
//   c.Quit();
//
// Query() runs one full exchange: send the line, collect ROW frames until
// the OK trailer or an ERR frame. The decoded rows round-trip the
// server's encoding exactly, so r.rows is byte-identical to the
// QueryResult the server executed (the loopback tests' property).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"

namespace simddb::net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ConnectUnix(const std::string& path, std::string* error);
  bool ConnectTcp(const std::string& host, int port, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request line (terminator appended). False on a dead
  /// connection or send failure.
  bool SendLine(std::string_view line);

  /// Reads one '\n'-terminated response line, stripping the terminator
  /// (and a '\r' before it). False on EOF or error.
  bool ReadLine(std::string* line);

  /// One QUERY exchange: send, then collect ROW frames until the OK
  /// trailer (ok = true) or an ERR frame (ok = false, error filled).
  WireResult Query(std::string_view query_line);

  /// TABLES exchange. False on protocol/transport failure.
  bool Tables(std::vector<WireTable>* tables);

  /// STATS exchange into name -> value pairs (wire order preserved).
  bool Stats(std::vector<std::pair<std::string, uint64_t>>* stats);

  /// PING -> PONG round trip.
  bool Ping();

  /// Sends QUIT, waits for BYE, closes.
  void Quit();

 private:
  int fd_ = -1;
  std::string rbuf_;
};

}  // namespace simddb::net

#endif  // SIMDDB_NET_CLIENT_H_
