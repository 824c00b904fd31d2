#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <utility>

#include "obs/metrics.h"

namespace simddb::net {
namespace {

// Wire-level instruments (static storage: the registry keeps pointers).
obs::Counter g_net_bytes_in("net_bytes_in");
obs::Counter g_net_bytes_out("net_bytes_out");
obs::Counter g_net_queries_parsed("net_queries_parsed");
obs::Counter g_net_parse_errors("net_parse_errors");
obs::Counter g_net_queries_rejected("net_queries_rejected");
obs::Counter g_net_connections_opened("net_connections_opened");
obs::Counter g_net_connections_closed("net_connections_closed");

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-connection state, owned by the poll thread. At most one query is in
/// flight per connection (`executing`); reads pause while it runs, so the
/// read buffer is bounded by one poll round of input plus the kernel's
/// socket buffer.
struct Server::Conn {
  int fd = -1;
  uint64_t id = 0;
  std::string rbuf;
  std::string wbuf;
  size_t woff = 0;
  bool executing = false;  ///< a QUERY is at the handler pool
  bool closing = false;    ///< close once wbuf drains (QUIT / drain / EOF)
  bool eof = false;        ///< peer half-closed; serve buffered lines, then close
  bool discard = false;    ///< resyncing: drop bytes until the next '\n'
};

/// One QUERY dispatched to the handler pool.
struct Server::Job {
  uint64_t conn_id = 0;
  server::QuerySpec spec;
  exec::ExecConfig cfg;
  uint64_t weight = 1;
};

/// A handler's encoded response, headed back to the poll thread.
struct Server::Completion {
  uint64_t conn_id = 0;
  std::string bytes;
  bool ok = false;
  bool rejected = false;
};

Server::Server(const server::Catalog* catalog, const ServerOptions& opts)
    : catalog_(catalog), opts_(opts) {
  scheduler_ =
      std::make_unique<server::QueryScheduler>(catalog, opts.scheduler);
  if (opts_.handler_threads < 1) opts_.handler_threads = 1;
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + strerror(errno);
    if (listen_unix_ >= 0) close(listen_unix_);
    if (listen_tcp_ >= 0) close(listen_tcp_);
    if (wake_rd_ >= 0) close(wake_rd_);
    if (wake_wr_ >= 0) close(wake_wr_);
    listen_unix_ = listen_tcp_ = wake_rd_ = wake_wr_ = -1;
    return false;
  };

  if (opts_.unix_path.empty() && opts_.tcp_port < 0) {
    if (error != nullptr) *error = "no listener configured";
    return false;
  }

  if (!opts_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix path too long";
      return false;
    }
    memcpy(addr.sun_path, opts_.unix_path.c_str(), opts_.unix_path.size() + 1);
    listen_unix_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_unix_ < 0) return fail("socket(unix)");
    unlink(opts_.unix_path.c_str());  // stale socket from a previous run
    if (bind(listen_unix_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return fail("bind(" + opts_.unix_path + ")");
    }
    if (listen(listen_unix_, opts_.listen_backlog) != 0) {
      return fail("listen(unix)");
    }
    SetNonBlocking(listen_unix_);
    bound_unix_path_ = opts_.unix_path;
  }

  if (opts_.tcp_port >= 0) {
    listen_tcp_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_tcp_ < 0) return fail("socket(tcp)");
    const int one = 1;
    setsockopt(listen_tcp_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts_.tcp_port));
    if (inet_pton(AF_INET, opts_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad tcp host " + opts_.tcp_host;
      return fail("inet_pton");
    }
    if (bind(listen_tcp_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("bind(tcp :" + std::to_string(opts_.tcp_port) + ")");
    }
    if (listen(listen_tcp_, opts_.listen_backlog) != 0) {
      return fail("listen(tcp)");
    }
    SetNonBlocking(listen_tcp_);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(listen_tcp_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) return fail("pipe2");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  SetNonBlocking(wake_rd_);
  SetNonBlocking(wake_wr_);

  shutdown_.store(false, std::memory_order_relaxed);
  jobs_closed_ = false;
  started_ = true;
  poll_thread_ = std::thread(&Server::PollLoop, this);
  handlers_.reserve(static_cast<size_t>(opts_.handler_threads));
  for (int i = 0; i < opts_.handler_threads; ++i) {
    handlers_.emplace_back(&Server::HandlerLoop, this);
  }
  return true;
}

void Server::RequestShutdown() {
  shutdown_.store(true, std::memory_order_release);
  if (wake_wr_ >= 0) {
    const char b = 1;
    // Best-effort wake; a full pipe already guarantees a pending wake.
    [[maybe_unused]] ssize_t n = write(wake_wr_, &b, 1);
  }
}

void Server::Wait() {
  if (!started_) return;
  if (poll_thread_.joinable()) poll_thread_.join();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  started_ = false;
}

void Server::Stop() {
  if (!started_) return;
  RequestShutdown();
  Wait();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::HandlerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [&] { return !jobs_.empty() || jobs_closed_; });
      if (jobs_.empty()) return;  // closed and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    server::ResultSet rs = scheduler_->Run(job.spec, job.cfg, job.weight);
    Completion done;
    done.conn_id = job.conn_id;
    done.ok = rs.ok;
    done.rejected = rs.stats.rejected;
    if (rs.ok) {
      const exec::QueryResult& r = rs.result;
      done.bytes.reserve(r.group_keys.size() * 32 + 96);
      for (size_t i = 0; i < r.group_keys.size(); ++i) {
        AppendRow(&done.bytes, r.group_keys[i], r.sums[i], r.counts[i],
                  r.mins[i], r.maxs[i]);
      }
      AppendQueryOk(&done.bytes, r.group_keys.size(), rs.stats);
    } else if (rs.stats.rejected) {
      AppendErr(&done.bytes, "admission", rs.error);
    } else {
      AppendErr(&done.bytes, "exec", rs.error);
    }
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(done));
    }
    const char b = 1;
    [[maybe_unused]] ssize_t n = write(wake_wr_, &b, 1);
  }
}

void Server::HandleLine(Conn* c, std::string_view line) {
  Request req;
  ParseError perr;
  if (!ParseRequest(line, &req, &perr)) {
    AppendErr(&c->wbuf, "parse", FormatParseError(perr));
    g_net_parse_errors.Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.parse_errors;
    return;
  }
  switch (req.cmd) {
    case Command::kPing:
      c->wbuf.append("PONG\n");
      break;
    case Command::kTables: {
      const std::vector<std::string> names = catalog_->TableNames();
      for (const std::string& name : names) {
        const server::Table* t = catalog_->Find(name);
        if (t == nullptr) continue;
        AppendTable(&c->wbuf, name, t->rows(),
                    t->keys_compressed() != nullptr);
      }
      AppendTablesOk(&c->wbuf, names.size());
      break;
    }
    case Command::kStats:
      AppendStatsResponse(&c->wbuf);
      break;
    case Command::kQuit:
      c->wbuf.append("BYE\n");
      c->closing = true;
      break;
    case Command::kShutdown:
      c->wbuf.append("OK shutdown\n");
      RequestShutdown();
      break;
    case Command::kQuery: {
      Job job;
      job.conn_id = c->id;
      job.spec = ToSpec(req.query);
      job.cfg = opts_.exec;
      if (req.query.has_isa) job.cfg.isa = req.query.isa;
      job.weight = req.query.weight;
      c->executing = true;
      g_net_queries_parsed.Add(1);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.queries_parsed;
      }
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.push_back(std::move(job));
      }
      jobs_cv_.notify_one();
      break;
    }
  }
}

void Server::AppendStatsResponse(std::string* out) {
  uint64_t count = 0;
  ServerStats snap = stats();
  const auto emit = [&](std::string_view name, uint64_t v) {
    AppendStat(out, name, v);
    ++count;
  };
  emit("connections_opened", snap.connections_opened);
  emit("connections_active", snap.connections_active);
  emit("bytes_in", snap.bytes_in);
  emit("bytes_out", snap.bytes_out);
  emit("queries_parsed", snap.queries_parsed);
  emit("queries_ok", snap.queries_ok);
  emit("queries_rejected", snap.queries_rejected);
  emit("parse_errors", snap.parse_errors);
  emit("sched_completed", scheduler_->queries_completed());
  emit("sched_rejected", scheduler_->queries_rejected());
  const server::TableBytes catalog_bytes = catalog_->bytes();
  emit("catalog_raw_bytes", catalog_bytes.raw);
  emit("catalog_packed_bytes", catalog_bytes.packed);
  emit("catalog_index_bytes", catalog_bytes.index);
  // The whole obs registry, when metrics are on (empty map otherwise):
  // every counter and phase timer, the net_* instruments included.
  for (const auto& [name, value] : obs::SnapshotMap()) emit(name, value);
  AppendStatsOk(out, count);
}

/// Frames and serves complete lines from c->rbuf, stopping when a QUERY
/// goes in flight (order is preserved: later pipelined lines wait for the
/// response). Returns false when the connection should be closed now.
bool Server::ProcessBufferedLines(Conn* c) {
  while (!c->executing && !c->closing) {
    if (c->discard) {
      const size_t nl = c->rbuf.find('\n');
      if (nl == std::string::npos) {
        c->rbuf.clear();
        break;
      }
      c->rbuf.erase(0, nl + 1);
      c->discard = false;
      continue;
    }
    const size_t nl = c->rbuf.find('\n');
    if (nl == std::string::npos) {
      if (c->rbuf.size() > kMaxLineBytes) {
        ParseError e{kMaxLineBytes, "line under 4096 bytes"};
        AppendErr(&c->wbuf, "parse", FormatParseError(e));
        g_net_parse_errors.Add(1);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.parse_errors;
        }
        c->rbuf.clear();
        c->discard = true;
      }
      break;
    }
    if (nl > kMaxLineBytes) {
      ParseError e{kMaxLineBytes, "line under 4096 bytes"};
      AppendErr(&c->wbuf, "parse", FormatParseError(e));
      g_net_parse_errors.Add(1);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.parse_errors;
      }
      c->rbuf.erase(0, nl + 1);
      continue;
    }
    // Detach the line before handling: HandleLine appends to wbuf only.
    const std::string line = c->rbuf.substr(0, nl);
    c->rbuf.erase(0, nl + 1);
    HandleLine(c, line);
  }
  // Half-closed peer: once the buffer holds no further servable line and
  // nothing is in flight, finish the write side and close.
  if (c->eof && !c->executing &&
      (c->rbuf.find('\n') == std::string::npos || c->closing)) {
    c->closing = true;
  }
  return true;
}

void Server::FlushWrites(Conn* c) {
  while (c->woff < c->wbuf.size()) {
    const ssize_t n = send(c->fd, c->wbuf.data() + c->woff,
                           c->wbuf.size() - c->woff, MSG_NOSIGNAL);
    if (n > 0) {
      c->woff += static_cast<size_t>(n);
      g_net_bytes_out.Add(static_cast<uint64_t>(n));
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Peer went away mid-response.
    c->closing = true;
    c->wbuf.clear();
    c->woff = 0;
    return;
  }
  c->wbuf.clear();
  c->woff = 0;
}

void Server::CloseConn(uint64_t id, Conn* c) {
  close(c->fd);
  g_net_connections_closed.Add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --stats_.connections_active;
  }
  conns_.erase(id);
}

void Server::DeliverCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-query
    Conn* c = it->second.get();
    c->executing = false;
    c->wbuf.append(done.bytes);
    if (done.rejected) g_net_queries_rejected.Add(1);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (done.ok) ++stats_.queries_ok;
      if (done.rejected) ++stats_.queries_rejected;
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      c->closing = true;  // drain: response flushes, then the socket closes
    } else {
      ProcessBufferedLines(c);
    }
  }
}

void Server::PollLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pfds slot (0: not a conn)
  bool draining = false;
  char buf[16384];

  for (;;) {
    if (shutdown_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      if (listen_unix_ >= 0) {
        close(listen_unix_);
        listen_unix_ = -1;
        if (!bound_unix_path_.empty()) unlink(bound_unix_path_.c_str());
      }
      if (listen_tcp_ >= 0) {
        close(listen_tcp_);
        listen_tcp_ = -1;
      }
      for (auto& [id, c] : conns_) {
        if (!c->executing) c->closing = true;
      }
    }

    // Close everything that is done: closing and flushed, or idle during
    // drain. (Erase-safe two-pass: collect then close.)
    {
      std::vector<uint64_t> dead;
      for (auto& [id, c] : conns_) {
        if (c->closing && !c->executing && c->woff >= c->wbuf.size()) {
          dead.push_back(id);
        }
      }
      for (uint64_t id : dead) CloseConn(id, conns_.find(id)->second.get());
    }

    if (draining && conns_.empty()) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (!draining && listen_unix_ >= 0) {
      pfds.push_back({listen_unix_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    if (!draining && listen_tcp_ >= 0) {
      pfds.push_back({listen_tcp_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, c] : conns_) {
      short events = 0;
      if (!c->executing && !c->closing && !c->eof && !draining) {
        events |= POLLIN;
      }
      if (c->woff < c->wbuf.size()) events |= POLLOUT;
      if (events == 0 && c->executing) continue;  // wake pipe covers it
      if (events == 0) events = POLLIN;           // watch for EOF at least
      pfds.push_back({c->fd, events, 0});
      pfd_conn.push_back(id);
    }

    if (poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& p = pfds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_rd_) {
        while (read(wake_rd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (p.fd == listen_unix_ || p.fd == listen_tcp_) {
        for (;;) {
          const int cfd = accept4(p.fd, nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          auto c = std::make_unique<Conn>();
          c->fd = cfd;
          c->id = next_conn_id_++;
          g_net_connections_opened.Add(1);
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.connections_opened;
            ++stats_.connections_active;
          }
          conns_.emplace(c->id, std::move(c));
        }
        continue;
      }
      // A connection socket.
      const uint64_t id = pfd_conn[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      // POLLHUP arrives together with POLLIN when the peer wrote and then
      // closed; read first so buffered requests are not dropped — recv()
      // returning 0 reports the EOF on its own.
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) &&
          !(p.revents & POLLIN)) {
        if (c->executing) {
          c->eof = true;  // the completion still delivers, then closes
          c->closing = true;
          continue;
        }
        CloseConn(id, c);
        continue;
      }
      if (p.revents & POLLIN) {
        const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c->rbuf.append(buf, static_cast<size_t>(n));
          g_net_bytes_in.Add(static_cast<uint64_t>(n));
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            stats_.bytes_in += static_cast<uint64_t>(n);
          }
          ProcessBufferedLines(c);
        } else if (n == 0) {
          c->eof = true;
          ProcessBufferedLines(c);
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          CloseConn(id, c);
          continue;
        }
      }
      if (p.revents & POLLOUT) FlushWrites(c);
      if (c->woff < c->wbuf.size()) FlushWrites(c);  // opportunistic
    }

    DeliverCompletions();
    // Flush anything the completions appended before sleeping again.
    for (auto& [id, c] : conns_) {
      if (c->woff < c->wbuf.size()) FlushWrites(c.get());
    }
  }

  // Drain complete: no connections left, so no new jobs can appear. Close
  // the queue so the handlers exit once the (empty) backlog drains.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_closed_ = true;
  }
  jobs_cv_.notify_all();
}

}  // namespace simddb::net
