#include "query/server.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "net/frame.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "query/wire.h"

namespace condensa::query {

Status QueryServerConfig::Validate() const {
  if (io_timeout_ms <= 0 || poll_ms <= 0 || idle_timeout_ms <= 0) {
    return InvalidArgumentError("query server timeouts must be positive");
  }
  if (max_sessions < 1) {
    return InvalidArgumentError("max_sessions must be >= 1");
  }
  if (max_inflight < 1) {
    return InvalidArgumentError("max_inflight must be >= 1");
  }
  if (default_deadline_ms < 0 || stale_after_ms < 0) {
    return InvalidArgumentError(
        "deadline and staleness thresholds must be non-negative");
  }
  if (engine.eigen_cache_capacity < 1) {
    return InvalidArgumentError("eigen_cache_capacity must be >= 1");
  }
  return OkStatus();
}

QueryServer::QueryServer(QueryServerConfig config,
                         std::shared_ptr<SnapshotStore> store)
    : config_(std::move(config)),
      store_(std::move(store)),
      engine_(config_.engine),
      gate_(config_.max_inflight) {}

StatusOr<std::unique_ptr<QueryServer>> QueryServer::Create(
    QueryServerConfig config, std::shared_ptr<SnapshotStore> store) {
  const std::string host = config.host;
  const std::uint16_t port = config.port;
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  CONDENSA_ASSIGN_OR_RETURN(net::TcpListener listener,
                            net::TcpListener::Listen(host, port));
  return CreateWithListener(std::move(config), std::move(store),
                            std::move(listener));
}

StatusOr<std::unique_ptr<QueryServer>> QueryServer::CreateWithListener(
    QueryServerConfig config, std::shared_ptr<SnapshotStore> store,
    net::TcpListener listener) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  if (store == nullptr) {
    return InvalidArgumentError("query server requires a snapshot store");
  }
  if (!listener.ok()) {
    return InvalidArgumentError("query server requires a live listener");
  }
  net::FramedServerConfig loop;
  loop.poll_ms = config.poll_ms;
  loop.idle_timeout_ms = config.idle_timeout_ms;
  loop.max_sessions = config.max_sessions;
  std::unique_ptr<QueryServer> server(
      new QueryServer(std::move(config), std::move(store)));
  server->server_ =
      std::make_unique<net::FramedServer>(std::move(listener), loop);
  server->server_->set_on_session(
      [](net::TcpConnection&) -> std::shared_ptr<void> {
        obs::DefaultRegistry()
            .GetCounter("condensa_query_sessions_total")
            .Increment();
        return nullptr;
      });
  server->server_->set_on_session_rejected([] {
    obs::DefaultRegistry()
        .GetCounter("condensa_query_rejected_total", {{"reason", "overload"}})
        .Increment();
  });
  return server;
}

Status QueryServer::Run() {
  return server_->Run(
      [this](net::TcpConnection& conn, const net::Frame& frame) {
        return Dispatch(conn, frame);
      });
}

net::SessionAction QueryServer::Dispatch(net::TcpConnection& conn,
                                         const net::Frame& frame) {
  Status handled = OkStatus();
  switch (frame.type) {
    case net::FrameType::kQuery:
      handled = HandleQuery(conn, frame.payload);
      break;
    default:
      net::SendErrorFrame(conn,
                          InvalidArgumentError(
                              std::string("unexpected frame ") +
                              net::FrameTypeName(frame.type)),
                          config_.io_timeout_ms);
      return net::SessionAction::kContinue;
  }
  if (!handled.ok()) {
    // Reply failures (broken pipe and friends) end the session; the
    // client redials.
    return net::SessionAction::kEndSession;
  }
  return net::SessionAction::kContinue;
}

void QueryServer::Shed(net::TcpConnection& conn, const char* reason,
                       const std::string& detail) {
  obs::DefaultRegistry()
      .GetCounter("condensa_query_rejected_total", {{"reason", reason}})
      .Increment();
  net::SendErrorFrame(conn, UnavailableError(detail), config_.io_timeout_ms);
}

Status QueryServer::HandleQuery(net::TcpConnection& conn,
                                const std::string& payload) {
  // Anchor the client's relative budget to the local clock at the moment
  // the frame is in hand — transit time already ate part of the budget
  // on the client side; what remains starts now.
  const auto received = std::chrono::steady_clock::now();

  if (server_->stopping()) {
    Shed(conn, "shutting-down", "server is shutting down");
    return OkStatus();
  }

  StatusOr<Query> query = DecodeQuery(payload);
  if (!query.ok()) {
    net::SendErrorFrame(conn, query.status(), config_.io_timeout_ms);
    return OkStatus();
  }

  // Chaos probe for the admission path (latency here models a server
  // too busy to even look at the request before the deadline).
  Status admit = FailPoint::Maybe("query.admit");
  if (!admit.ok()) {
    Shed(conn, "overload", admit.message());
    return OkStatus();
  }

  double budget_ms = query->deadline_ms;
  if (budget_ms == 0.0 && config_.default_deadline_ms > 0.0) {
    budget_ms = config_.default_deadline_ms;
  }
  ExecutionContext context =
      ExecutionContext::WithBudgetMs(budget_ms, received);
  // A regenerate answer must fit one reply frame: refuse a bigger one
  // before it is sampled rather than fail to frame it afterwards.
  context.max_regenerate_records = net::kMaxRecordsPerSubmit;
  context.max_regenerate_bytes = net::kMaxFramePayload;
  if (context.Expired()) {
    Shed(conn, "deadline", "deadline expired before execution started");
    return OkStatus();
  }

  // Bound in-flight work across all sessions; a full gate means the
  // engine is saturated and queueing more behind it only grows latency
  // past everyone's deadline.
  std::optional<runtime::AdmissionGate::Ticket> ticket = gate_.TryEnter();
  if (!ticket.has_value()) {
    Shed(conn, "overload",
         "server at in-flight capacity (" +
             std::to_string(gate_.capacity()) + " requests)");
    return OkStatus();
  }
  obs::Gauge& inflight_gauge =
      obs::DefaultRegistry().GetGauge("condensa_query_inflight");
  inflight_gauge.Set(static_cast<double>(gate_.inflight()));

  // Pin one snapshot for the whole request: ingest may Publish newer
  // ones concurrently, but this answer is consistent with exactly this
  // version.
  std::shared_ptr<const QuerySnapshot> snapshot = store_->Current();
  Status send = OkStatus();
  if (snapshot == nullptr) {
    net::SendErrorFrame(
        conn, FailedPreconditionError("no snapshot published yet"),
        config_.io_timeout_ms);
  } else {
    StatusOr<QueryResult> result = engine_.Execute(*snapshot, *query, context);
    if (!result.ok()) {
      if (IsUnavailable(result.status())) {
        // The engine only returns kUnavailable for deadline expiry (or
        // an injected unavailability, which the soak treats the same).
        obs::DefaultRegistry()
            .GetCounter("condensa_query_rejected_total",
                        {{"reason", "deadline"}})
            .Increment();
      }
      net::SendErrorFrame(conn, result.status(), config_.io_timeout_ms);
    } else {
      // Degraded serving: the snapshot may be arbitrarily old while
      // ingest stalls; report its age and let the client decide.
      result->staleness_ms =
          snapshot->AgeMs(std::chrono::steady_clock::now());
      if (config_.stale_after_ms > 0.0 &&
          result->staleness_ms > config_.stale_after_ms) {
        obs::DefaultRegistry()
            .GetCounter("condensa_query_stale_served_total")
            .Increment();
      }
      const std::string reply = EncodeQueryResult(*result);
      if (reply.size() > net::kMaxFramePayload) {
        // Only an answer the caps above do not bound (an aggregate's
        // d x d covariance at a very large d) can get here.
        net::SendErrorFrame(
            conn,
            ResourceExhaustedError("answer of " +
                                   std::to_string(reply.size()) +
                                   " bytes exceeds the frame cap"),
            config_.io_timeout_ms);
      } else {
        send = conn.SendFrame(net::FrameType::kQueryResult, reply,
                              config_.io_timeout_ms);
      }
    }
  }
  ticket.reset();
  inflight_gauge.Set(static_cast<double>(gate_.inflight()));
  return send;
}

}  // namespace condensa::query
