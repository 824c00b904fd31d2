#ifndef SIMDDB_NET_SERVER_H_
#define SIMDDB_NET_SERVER_H_

// Socket front-end of the serving layer: a poll()-driven event loop
// accepting TCP and/or Unix-domain connections, parsing the line protocol
// (net/protocol.h), and dispatching each QUERY onto a small handler pool
// that calls server::QueryScheduler::Run — so N connections share the one
// process-wide QueryScheduler, its admission gate, and the TaskPool's
// weighted-fair morsel scheduling.
//
// Architecture (one poll thread, H handler threads):
//
//   poll thread   owns every socket and the connection table. Reads
//                 request bytes, frames lines, answers cheap commands
//                 (PING/TABLES/STATS/QUIT) inline, and enqueues QUERY
//                 jobs. While a connection has a query in flight it is
//                 not read from (backpressure: at most one in-flight
//                 query and one read buffer per connection); pipelined
//                 lines already buffered are served in order afterwards.
//   handler pool  H threads. A handler binds and executes the job
//                 through QueryScheduler::Run (admission gate included — a
//                 kBlock scheduler queues the handler, kReject turns
//                 into `ERR admission ...` on the wire), encodes the
//                 full response off the poll thread, and posts it to the
//                 completion queue; a self-pipe byte wakes poll().
//
// Graceful drain: RequestShutdown() (async-signal-safe — SIGTERM
// handlers call it directly) or a SHUTDOWN command stops accepting,
// lets in-flight queries finish and their responses flush, closes every
// connection, joins the handlers, and returns from Serve().
//
// Observability: the obs registry carries the net_* counters
// (net_bytes_in/out, net_queries_parsed, net_parse_errors,
// net_queries_rejected, net_connections_opened/closed); the same events
// also feed the always-on ServerStats totals that STATS reports even with
// metrics off, beside the catalog's resident bytes (catalog_raw_bytes,
// catalog_packed_bytes, catalog_index_bytes; server::Catalog::bytes).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/pipeline.h"
#include "net/protocol.h"
#include "server/catalog.h"
#include "server/scheduler.h"

namespace simddb::net {

struct ServerOptions {
  /// Unix-domain listener path; empty disables. An existing socket file
  /// at the path is unlinked at bind (stale from a previous run).
  std::string unix_path;
  /// TCP listener port; -1 disables, 0 binds an ephemeral port (read it
  /// back with tcp_port() after Start).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";

  /// Handler threads = max concurrently executing queries at the wire
  /// level (the scheduler's admission gate bounds them further).
  int handler_threads = 2;

  /// Default per-query ExecConfig; a QUERY's isa= clause overrides isa.
  exec::ExecConfig exec;
  /// Admission policy of the embedded QueryScheduler.
  server::SchedulerOptions scheduler;

  int listen_backlog = 64;
};

/// Always-on serving totals (STATS works with metrics off).
struct ServerStats {
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t queries_parsed = 0;   ///< QUERY lines parsed OK
  uint64_t queries_ok = 0;       ///< responses with an OK trailer
  uint64_t queries_rejected = 0; ///< `ERR admission` responses
  uint64_t parse_errors = 0;     ///< `ERR parse` responses
};

class Server {
 public:
  /// Borrows the catalog; owns its QueryScheduler built from
  /// opts.scheduler.
  Server(const server::Catalog* catalog, const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the poll thread and handler pool.
  /// False (with *error set) on any bind/listen failure; the server is
  /// then inert and Stop() is a no-op.
  bool Start(std::string* error);

  /// Initiates graceful drain. Async-signal-safe: one atomic store and
  /// one write(2) to the self-pipe.
  void RequestShutdown();

  /// Blocks until the drain completes and every thread exited.
  void Wait();

  /// RequestShutdown + Wait.
  void Stop();

  /// Bound TCP port (after Start, when a TCP listener was requested).
  int tcp_port() const { return bound_tcp_port_; }

  ServerStats stats() const;
  const server::QueryScheduler& scheduler() const { return *scheduler_; }

 private:
  struct Conn;
  struct Job;
  struct Completion;

  void PollLoop();
  void HandlerLoop();
  bool ProcessBufferedLines(Conn* c);
  void HandleLine(Conn* c, std::string_view line);
  void DeliverCompletions();
  void FlushWrites(Conn* c);
  void CloseConn(uint64_t id, Conn* c);
  void AppendStatsResponse(std::string* out);

  const server::Catalog* catalog_;
  ServerOptions opts_;
  std::unique_ptr<server::QueryScheduler> scheduler_;

  int listen_unix_ = -1;
  int listen_tcp_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  int bound_tcp_port_ = -1;
  std::string bound_unix_path_;

  std::atomic<bool> shutdown_{false};
  bool started_ = false;

  std::thread poll_thread_;
  std::vector<std::thread> handlers_;

  // Poll thread only.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  // Handler pool plumbing.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool jobs_closed_ = false;

  std::mutex done_mu_;
  std::deque<Completion> done_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace simddb::net

#endif  // SIMDDB_NET_SERVER_H_
