#ifndef SIMDDB_SERVER_SESSION_H_
#define SIMDDB_SERVER_SESSION_H_

// QuerySession: the in-process client API of the serving layer.
//
// A session borrows the process-wide Catalog and QueryScheduler and is the
// handle a client thread submits queries through. (The network front-end,
// src/net/server.h, is a consumer of this same API: each wire handler
// thread owns one QuerySession, so a socket client and an in-process
// caller take the identical execution path and get identical bytes.)
//
//   server::Catalog catalog;                       // load once
//   catalog.RegisterTable("R", keys, attrs, n_r);
//   catalog.RegisterTable("S", fks, vals, n_s);
//   server::QueryScheduler sched(&catalog);        // shared by all sessions
//   server::QuerySession session(&catalog, &sched);
//   server::QuerySpec spec;
//   spec.build_table = "R"; spec.probe_table = "S";
//   spec.s_lo = 100; spec.s_hi = 200;
//   server::ResultSet rs = session.Execute(spec, cfg);
//
// Execute blocks the calling thread until the result is ready (admission
// gate included); concurrency comes from many client threads each owning a
// session. Sessions are cheap (two pointers + a counter) and a single
// session is single-threaded: one Execute at a time per session, many
// sessions in parallel per scheduler.
//
// Results are byte-identical to calling exec::RunScanJoinAggregate directly
// with the bound plan — serving adds scheduling, admission and
// accounting, never different answers.

#include <cstdint>
#include <string>

#include "server/catalog.h"
#include "server/scheduler.h"

namespace simddb::server {

class QuerySession {
 public:
  QuerySession(const Catalog* catalog, QueryScheduler* scheduler)
      : catalog_(catalog), scheduler_(scheduler) {}

  /// Binds and executes the spec; blocks until done. ok = false carries the
  /// bind / admission / abort reason in `error`.
  ResultSet Execute(const QuerySpec& spec, const exec::ExecConfig& cfg,
                    uint64_t weight = 1);

  /// Bind-only hook (plan inspection, tests). Same resolution Execute uses.
  bool Bind(const QuerySpec& spec, exec::ScanJoinAggregatePlan* plan,
            std::string* error) const;

  const Catalog* catalog() const { return catalog_; }

  /// Queries this session has submitted (successful or not).
  uint64_t queries_submitted() const { return submitted_; }

 private:
  const Catalog* catalog_;
  QueryScheduler* scheduler_;
  uint64_t submitted_ = 0;
};

}  // namespace simddb::server

#endif  // SIMDDB_SERVER_SESSION_H_
