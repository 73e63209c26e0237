// Synchronous client for the query server.
//
// One framed request/response per Execute call. Request-level failures
// arrive as in-band Error frames and surface as the reconstituted
// Status; transport failures close the connection (no partial-frame
// state survives an error), and ExecuteWithRetry redials it.
//
// Retry policy (docs/resilience.md): every query kind is an idempotent
// read — classify and aggregate are pure functions of the snapshot, and
// regenerate is deterministic in its seed — so re-sending after an
// ambiguous failure can never double-apply anything. Retries happen on
// exactly two classes of failure:
//
//   * transport errors (send/recv failed, connection died): redial and
//     re-send, because the server may have restarted;
//   * in-band kUnavailable (session cap, in-flight cap, deadline shed,
//     shutting down): back off and re-send on the same connection.
//
// Every other in-band status (kInvalidArgument, kFailedPrecondition,
// kDataLoss from a corrupt payload, ...) is deterministic and returned
// immediately. An overall deadline budget bounds the whole call —
// attempts, redials, and backoff sleeps included — and is forwarded to
// the server as each attempt's remaining budget so the server stops
// working the moment the client stops waiting.

#ifndef CONDENSA_QUERY_CLIENT_H_
#define CONDENSA_QUERY_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/socket.h"
#include "query/query.h"
#include "runtime/retry.h"

namespace condensa::query {

struct QueryRetryOptions {
  // Total attempts, including the first. 1 disables retrying.
  std::size_t max_attempts = 4;
  // Overall budget for the whole call (all attempts + backoff), in ms.
  // 0 or a non-finite value = unbounded. Also forwarded per attempt as
  // Query::deadline_ms; an unbounded call forwards the query's own
  // deadline, or 0 when that is non-finite.
  double deadline_ms = 0.0;
  // Backoff shape between attempts (runtime's write-path defaults).
  runtime::RetryPolicy backoff;
  // Seeds the backoff jitter so tests are reproducible.
  std::uint64_t jitter_seed = 0;
};

// What a resilient call actually did (for tests and soak accounting).
struct QueryRetryStats {
  std::size_t attempts = 0;
  std::size_t redials = 0;
};

class QueryClient {
 public:
  // Dials the server. kUnavailable on refusal/timeout. `timeout_ms` is
  // remembered as the default frame-transfer and Goodbye timeout.
  static StatusOr<QueryClient> Connect(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_ms);

  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  // Closes politely (best-effort Goodbye).
  ~QueryClient();

  // Sends `query` and blocks for the answer; `timeout_ms` bounds each
  // frame transfer. An in-band Error frame becomes its Status. A
  // transport failure closes the connection (ok() goes false).
  StatusOr<QueryResult> Execute(const Query& query, double timeout_ms);

  // Execute with redial + exponential backoff under an overall deadline
  // budget; see the retry policy above. `stats` (nullable) reports what
  // happened.
  StatusOr<QueryResult> ExecuteWithRetry(const Query& query,
                                         const QueryRetryOptions& options,
                                         QueryRetryStats* stats = nullptr);

  bool ok() const { return conn_.ok(); }
  void Close();

 private:
  QueryClient(net::TcpConnection conn, std::string host, std::uint16_t port,
              double timeout_ms)
      : conn_(std::move(conn)),
        host_(std::move(host)),
        port_(port),
        timeout_ms_(timeout_ms) {}

  // Re-establishes conn_ after a transport failure.
  Status Redial(double timeout_ms);

  net::TcpConnection conn_;
  std::string host_;
  std::uint16_t port_ = 0;
  double timeout_ms_ = 5000.0;
};

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_CLIENT_H_
