// The standalone side of the networked shard fabric: a shard::Worker
// behind the wire protocol.
//
// `condensa worker` runs one WorkerServer.
// The server listens on a TCP port and serves one coordinator session at
// a time, strictly request/response:
//
//   Hello        -> builds (or, after a crash, RECOVERS) the shard's
//                   Worker from the parameters in the message, under
//                   ShardCheckpointDir(checkpoint_root, id). Replies HelloAck with
//                   the worker's stable identity and durable_total — the
//                   record count already durably in custody, which the
//                   coordinator uses to trim re-sends exactly.
//   Submit       -> feeds the batch through the shard's supervised
//                   pipeline, then BLOCKS on Worker::Flush before
//                   replying SubmitAck. The ack therefore certifies
//                   durable custody: a kill -9 any time after the ack
//                   loses none of the acked records.
//   Heartbeat    -> HeartbeatAck echoing the nonce (liveness). The
//                   failpoint "fabric.heartbeat" is probed here so chaos
//                   tests can inject missed/slow beats.
//   Finish       -> drains and checkpoints the pipeline and replies
//                   FinishResult (final ledger + serialized group set);
//                   the server then exits its Run loop. A set too large
//                   for one frame is reported as an Error frame instead,
//                   and the coordinator takes the shard over from its
//                   checkpoint.
//
// A connection error of any kind drops the session and returns to
// accept — the coordinator redials and re-handshakes, so no stale
// framing state can leak across failures. Request-level failures are
// reported in-band as Error frames; the session survives them.

#ifndef CONDENSA_SHARD_WORKER_SERVER_H_
#define CONDENSA_SHARD_WORKER_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/framed_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/pipeline.h"
#include "shard/worker.h"

namespace condensa::shard {

// The Hello that asks a worker to run shard `shard_id` with `config`.
// config.checkpoint_dir does not travel: the worker checkpoints under its
// own root.
net::HelloMessage HelloForShard(std::size_t shard_id,
                                const runtime::StreamPipelineConfig& config);

// The pipeline config a Hello describes, checkpointing under
// ShardCheckpointDir(checkpoint_root, hello.shard_id). Fields the Hello
// does not carry keep their StreamPipelineConfig defaults. Rejects a
// split rule or backend this build does not know.
StatusOr<runtime::StreamPipelineConfig> ShardConfigFromHello(
    const net::HelloMessage& hello, const std::string& checkpoint_root);

struct WorkerServerConfig {
  std::string host = "127.0.0.1";
  // 0 picks a free port (see WorkerServer::port()).
  std::uint16_t port = 0;
  // Parent directory for the shard checkpoint; required. The shard id
  // arrives in the Hello, so one root can serve any shard.
  std::string checkpoint_root;
  // Stable metric identity; empty defaults to "w<shard_id>" at Hello.
  std::string worker_id;
  // Per-frame send/recv timeout within a session.
  double io_timeout_ms = 5000.0;
  // How long Submit may wait for durable custody before failing the
  // request (the coordinator then treats the peer as unhealthy).
  double flush_timeout_ms = 30000.0;
  // Accept/recv poll granularity; bounds Stop() latency.
  double poll_ms = 100.0;
  // A session silent for this long is dropped back to accept, so a
  // coordinator that vanished without closing cannot wedge the server.
  double idle_timeout_ms = 30000.0;

  Status Validate() const;
};

class WorkerServer {
 public:
  // Binds and listens; the bound port is available via port() before
  // Run().
  static StatusOr<std::unique_ptr<WorkerServer>> Create(
      WorkerServerConfig config);

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  std::uint16_t port() const { return server_->port(); }

  // Serves sessions until a Finish completes or Stop() is called.
  // Returns the first non-recoverable error (listener failure); session
  // and request errors are handled internally. The accept/recv/dispatch
  // loop itself lives in net::FramedServer (shared with QueryServer).
  Status Run();

  // Asks Run() to return at its next poll tick (thread-safe).
  void Stop() { server_->Stop(); }

  // True once a Finish request has been served.
  bool finished() const { return finished_.load(std::memory_order_relaxed); }

 private:
  explicit WorkerServer(WorkerServerConfig config);

  // Maps one decoded frame to a handler; request-level failures are
  // reported in-band and the session continues, transport failures end
  // the session, a served Finish stops the server.
  net::SessionAction Dispatch(net::TcpConnection& conn,
                              const net::Frame& frame);
  Status HandleHello(net::TcpConnection& conn, const std::string& payload);
  Status HandleSubmit(net::TcpConnection& conn, const std::string& payload);
  Status HandleHeartbeat(net::TcpConnection& conn,
                         const std::string& payload);
  Status HandleFinish(net::TcpConnection& conn);
  // Reports a request-level failure in-band; the session continues.
  void SendError(net::TcpConnection& conn, const Status& status);

  WorkerServerConfig config_;
  std::unique_ptr<net::FramedServer> server_;
  std::unique_ptr<Worker> worker_;
  // The Hello that built worker_ (re-handshakes must match it).
  net::HelloMessage hello_;
  std::atomic<bool> finished_{false};
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_WORKER_SERVER_H_
