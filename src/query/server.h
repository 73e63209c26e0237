// The long-lived query server: the read-side peer of the shard fabric.
//
// Speaks the same framed protocol (net/frame.h) over the shared
// net::FramedServer loop. One request/response exchange per frame:
//
//   Query       -> decoded, executed against the CURRENT snapshot from
//                  the SnapshotStore, answered with QueryResult. The
//                  snapshot is pinned for the whole request, so every
//                  part of the answer reflects one group-set version
//                  even while ingest publishes newer snapshots
//                  concurrently; the answer carries that version and its
//                  age (staleness_ms) at answer time.
//   Goodbye     -> clean session end (handled by FramedServer).
//   anything else, or a malformed/unanswerable Query -> in-band Error
//                  frame; the session continues.
//
// Overload discipline (docs/resilience.md has the failure matrix):
//
//   * `max_sessions` concurrent sessions; a connection beyond the cap is
//     rejected in-band by FramedServer with kUnavailable + retry hint.
//   * `max_inflight` bounds requests actually executing across all
//     sessions (runtime::AdmissionGate); beyond it a request is shed
//     with kUnavailable reason=overload without touching the engine.
//   * A request whose client deadline budget has already elapsed — or
//     expires mid-execution — is shed with kUnavailable reason=deadline;
//     the engine aborts between units of work (per point / per group).
//   * After Stop(), requests still arriving on live sessions are shed
//     with kUnavailable reason=shutting-down instead of racing teardown.
//
// Degraded serving: the server always answers from the latest snapshot
// it has, however old; `staleness_ms` in the result makes the age the
// CLIENT's decision. Requests answered from a snapshot older than
// `stale_after_ms` are counted in condensa_query_stale_served_total.
//
// The server never mutates condensed state; it shares one QueryEngine
// (and thus one eigendecomposition cache) across all sessions. With
// max_sessions > 1 sessions run concurrently, which is safe: snapshots
// are immutable, the engine's cache synchronizes internally, and all
// per-request state is session-local.

#ifndef CONDENSA_QUERY_SERVER_H_
#define CONDENSA_QUERY_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/framed_server.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "runtime/admission.h"

namespace condensa::query {

struct QueryServerConfig {
  std::string host = "127.0.0.1";
  // 0 picks a free port (see QueryServer::port()).
  std::uint16_t port = 0;
  // Per-frame send timeout within a session.
  double io_timeout_ms = 5000.0;
  // Accept/recv poll granularity; bounds Stop() latency.
  double poll_ms = 100.0;
  // A session silent for this long is dropped back to accept.
  double idle_timeout_ms = 30000.0;
  // Concurrent session cap (see net::FramedServerConfig::max_sessions).
  std::size_t max_sessions = 8;
  // Requests executing concurrently across all sessions; beyond this a
  // request is shed in-band instead of queueing behind slow work.
  std::size_t max_inflight = 16;
  // Deadline applied to requests that carry none (0 = unbounded).
  double default_deadline_ms = 0.0;
  // Answers from snapshots older than this count as stale in
  // condensa_query_stale_served_total (0 = never stale). They are still
  // served — staleness is reported, not refused.
  double stale_after_ms = 0.0;
  QueryEngineOptions engine;

  Status Validate() const;
};

class QueryServer {
 public:
  // Binds and listens; `store` supplies the snapshots to answer from
  // (publishing into it while the server runs is the intended use).
  static StatusOr<std::unique_ptr<QueryServer>> Create(
      QueryServerConfig config, std::shared_ptr<SnapshotStore> store);

  // Serves on an already-bound listener. This is the crash-test seam:
  // a harness binds the listener in the parent, forks, and respawns a
  // killed server on the SAME port without a rebind race.
  static StatusOr<std::unique_ptr<QueryServer>> CreateWithListener(
      QueryServerConfig config, std::shared_ptr<SnapshotStore> store,
      net::TcpListener listener);

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  std::uint16_t port() const { return server_->port(); }

  // Serves sessions until Stop(). Returns the first listener failure;
  // session and request errors are handled internally.
  Status Run();

  // Asks Run() to return at its next poll tick (thread-safe). Requests
  // arriving after this are shed as shutting-down.
  void Stop() { server_->Stop(); }

  const QueryEngine& engine() const { return engine_; }
  const runtime::AdmissionGate& admission() const { return gate_; }

 private:
  QueryServer(QueryServerConfig config,
              std::shared_ptr<SnapshotStore> store);

  net::SessionAction Dispatch(net::TcpConnection& conn,
                              const net::Frame& frame);
  Status HandleQuery(net::TcpConnection& conn, const std::string& payload);
  // Sheds one request in-band with kUnavailable, counting it under
  // condensa_query_rejected_total{reason}.
  void Shed(net::TcpConnection& conn, const char* reason,
            const std::string& detail);

  QueryServerConfig config_;
  std::shared_ptr<SnapshotStore> store_;
  QueryEngine engine_;
  runtime::AdmissionGate gate_;
  std::unique_ptr<net::FramedServer> server_;
};

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_SERVER_H_
