#include "query/client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/random.h"
#include "net/frame.h"
#include "net/wire.h"
#include "query/wire.h"

namespace condensa::query {

StatusOr<QueryClient> QueryClient::Connect(const std::string& host,
                                           std::uint16_t port,
                                           double timeout_ms) {
  CONDENSA_ASSIGN_OR_RETURN(net::TcpConnection conn,
                            net::TcpConnection::Connect(host, port,
                                                        timeout_ms));
  return QueryClient(std::move(conn), host, port, timeout_ms);
}

QueryClient::~QueryClient() { Close(); }

void QueryClient::Close() {
  if (conn_.ok()) {
    (void)conn_.SendFrame(net::FrameType::kGoodbye, "", timeout_ms_);
    conn_.Close();
  }
}

Status QueryClient::Redial(double timeout_ms) {
  conn_.Close();
  CONDENSA_ASSIGN_OR_RETURN(
      conn_, net::TcpConnection::Connect(host_, port_, timeout_ms));
  return OkStatus();
}

StatusOr<QueryResult> QueryClient::Execute(const Query& query,
                                           double timeout_ms) {
  if (!conn_.ok()) {
    return FailedPreconditionError("query client is closed");
  }
  Status sent = conn_.SendFrame(net::FrameType::kQuery, EncodeQuery(query),
                                timeout_ms);
  if (!sent.ok()) {
    conn_.Close();  // transport failure: no partial-frame state survives
    return sent;
  }
  StatusOr<net::Frame> frame = conn_.RecvFrame(timeout_ms);
  if (!frame.ok()) {
    conn_.Close();
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    CONDENSA_ASSIGN_OR_RETURN(net::ErrorMessage error,
                              net::DecodeError(frame->payload));
    return net::ErrorToStatus(error);
  }
  if (frame->type != net::FrameType::kQueryResult) {
    conn_.Close();  // protocol confusion: the stream cannot be trusted
    return DataLossError(std::string("expected QueryResult, got ") +
                         net::FrameTypeName(frame->type));
  }
  return DecodeQueryResult(frame->payload);
}

StatusOr<QueryResult> QueryClient::ExecuteWithRetry(
    const Query& query, const QueryRetryOptions& options,
    QueryRetryStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  // A non-finite budget (the CLI's --deadline-ms accepts inf) means no
  // deadline, as 0 does.
  const bool bounded =
      std::isfinite(options.deadline_ms) && options.deadline_ms > 0.0;
  auto remaining_ms = [&]() -> double {
    if (!bounded) {
      return 0.0;  // "no deadline" in Query::deadline_ms terms
    }
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    return options.deadline_ms - elapsed;
  };

  Rng rng(options.jitter_seed);
  QueryRetryStats local;
  Status last = OkStatus();
  const std::size_t max_attempts = std::max<std::size_t>(options.max_attempts,
                                                         1);
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    double budget = remaining_ms();
    if (bounded && budget <= 0.0) {
      break;  // the whole call's time is spent
    }
    if (!conn_.ok()) {
      // A previous attempt (or the caller) lost the transport; the
      // server may have restarted, so redial counts as part of the
      // attempt, under the same budget.
      Status redial = Redial(bounded ? budget : timeout_ms_);
      if (!redial.ok()) {
        last = redial;
        ++local.attempts;
      } else {
        ++local.redials;
      }
    }
    if (conn_.ok()) {
      ++local.attempts;
      Query attempt_query = query;
      if (bounded) {
        budget = remaining_ms();
        if (budget <= 0.0) {
          break;
        }
        // Forward what is left so the server sheds rather than answers
        // into the void.
        attempt_query.deadline_ms = budget;
      } else if (!std::isfinite(attempt_query.deadline_ms)) {
        attempt_query.deadline_ms = 0.0;  // the wire's "no deadline"
      }
      const double io_timeout = bounded ? budget : timeout_ms_;
      StatusOr<QueryResult> result = Execute(attempt_query, io_timeout);
      if (result.ok()) {
        if (stats != nullptr) {
          *stats = local;
        }
        return result;
      }
      last = result.status();
      // In-band errors other than kUnavailable are deterministic —
      // retrying cannot change the answer. (conn_ still ok means the
      // error was in-band; transport errors closed it above.)
      if (conn_.ok() && !IsUnavailable(last)) {
        break;
      }
    }
    if (attempt < max_attempts) {
      double delay = runtime::BackoffDelayMs(options.backoff, attempt, rng);
      if (bounded) {
        delay = std::min(delay, remaining_ms());
        if (delay <= 0.0) {
          break;
        }
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay));
    }
  }
  if (stats != nullptr) {
    *stats = local;
  }
  if (last.ok()) {
    last = UnavailableError("retry deadline exhausted before any attempt");
  }
  return last;
}

}  // namespace condensa::query
