#include "shard/worker_server.h"

#include <utility>

#include "common/failpoint.h"
#include "core/backend.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace condensa::shard {
namespace {

obs::Counter& SessionsCounter(const std::string& worker_id) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_worker_sessions_total", {{"worker", worker_id}});
}

obs::Histogram& FlushSeconds(const std::string& worker_id) {
  return obs::DefaultRegistry().GetHistogram(
      "condensa_fabric_worker_flush_seconds", {{"worker", worker_id}},
      obs::RpcLatencyBucketsSeconds());
}

Status ValidateSplitRule(std::uint16_t raw) {
  if (raw > static_cast<std::uint16_t>(core::SplitRule::kPaperVerbatim)) {
    return DataLossError("Hello carries unknown split rule " +
                         std::to_string(raw));
  }
  return OkStatus();
}

}  // namespace

net::HelloMessage HelloForShard(std::size_t shard_id,
                                const runtime::StreamPipelineConfig& config) {
  net::HelloMessage hello;
  hello.shard_id = shard_id;
  hello.dim = config.dim;
  hello.group_size = config.group_size;
  hello.split_rule = static_cast<std::uint16_t>(config.split_rule);
  hello.snapshot_interval = config.snapshot_interval;
  hello.sync_every_append = config.sync_every_append ? 1 : 0;
  hello.queue_capacity = config.queue_capacity;
  hello.batch_size = config.batch_size;
  hello.seed = config.seed;
  hello.backend = config.backend->id;
  return hello;
}

StatusOr<runtime::StreamPipelineConfig> ShardConfigFromHello(
    const net::HelloMessage& hello, const std::string& checkpoint_root) {
  CONDENSA_RETURN_IF_ERROR(ValidateSplitRule(hello.split_rule));
  // An id this build cannot resolve rejects the session up front instead
  // of condensing under the wrong strategy.
  runtime::StreamPipelineConfig config;
  CONDENSA_ASSIGN_OR_RETURN(config.backend, core::FindBackend(hello.backend));
  config.dim = static_cast<std::size_t>(hello.dim);
  config.group_size = static_cast<std::size_t>(hello.group_size);
  config.split_rule = static_cast<core::SplitRule>(hello.split_rule);
  config.checkpoint_dir = ShardCheckpointDir(
      checkpoint_root, static_cast<std::size_t>(hello.shard_id));
  config.snapshot_interval = static_cast<std::size_t>(hello.snapshot_interval);
  config.sync_every_append = hello.sync_every_append != 0;
  config.queue_capacity = static_cast<std::size_t>(hello.queue_capacity);
  config.batch_size = static_cast<std::size_t>(hello.batch_size);
  config.seed = hello.seed;
  return config;
}

Status WorkerServerConfig::Validate() const {
  if (checkpoint_root.empty()) {
    return InvalidArgumentError("worker server requires a checkpoint_root");
  }
  if (io_timeout_ms <= 0 || flush_timeout_ms <= 0 || poll_ms <= 0 ||
      idle_timeout_ms <= 0) {
    return InvalidArgumentError("worker server timeouts must be positive");
  }
  return OkStatus();
}

WorkerServer::WorkerServer(WorkerServerConfig config)
    : config_(std::move(config)) {}

StatusOr<std::unique_ptr<WorkerServer>> WorkerServer::Create(
    WorkerServerConfig config) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  CONDENSA_ASSIGN_OR_RETURN(
      net::TcpListener listener,
      net::TcpListener::Listen(config.host, config.port));
  net::FramedServerConfig loop;
  loop.poll_ms = config.poll_ms;
  loop.idle_timeout_ms = config.idle_timeout_ms;
  std::unique_ptr<WorkerServer> server(new WorkerServer(std::move(config)));
  server->server_ = std::make_unique<net::FramedServer>(std::move(listener),
                                                        loop);
  WorkerServer* raw = server.get();
  server->server_->set_on_session(
      [raw](net::TcpConnection&) -> std::shared_ptr<void> {
        SessionsCounter(raw->config_.worker_id.empty()
                            ? "unassigned"
                            : raw->config_.worker_id)
            .Increment();
        // The span lives as the session context, so it measures the
        // whole session exactly as the pre-FramedServer loop did.
        return std::make_shared<obs::TraceSpan>("fabric.worker.session");
      });
  return server;
}

Status WorkerServer::Run() {
  return server_->Run(
      [this](net::TcpConnection& conn, const net::Frame& frame) {
        return Dispatch(conn, frame);
      });
}

net::SessionAction WorkerServer::Dispatch(net::TcpConnection& conn,
                                          const net::Frame& frame) {
  Status handled = OkStatus();
  switch (frame.type) {
    case net::FrameType::kHello:
      handled = HandleHello(conn, frame.payload);
      break;
    case net::FrameType::kSubmit:
      handled = HandleSubmit(conn, frame.payload);
      break;
    case net::FrameType::kHeartbeat:
      handled = HandleHeartbeat(conn, frame.payload);
      break;
    case net::FrameType::kFinish:
      handled = HandleFinish(conn);
      break;
    default:
      SendError(conn, InvalidArgumentError(
                          std::string("unexpected frame ") +
                          net::FrameTypeName(frame.type)));
      return net::SessionAction::kContinue;
  }
  if (!handled.ok()) {
    // Reply failures (broken pipe and friends) end the session; the
    // coordinator redials.
    return net::SessionAction::kEndSession;
  }
  if (finished_.load(std::memory_order_relaxed)) {
    return net::SessionAction::kStopServer;
  }
  return net::SessionAction::kContinue;
}

Status WorkerServer::HandleHello(net::TcpConnection& conn,
                                 const std::string& payload) {
  StatusOr<net::HelloMessage> hello = net::DecodeHello(payload);
  if (!hello.ok()) {
    SendError(conn, hello.status());
    return OkStatus();
  }
  if (worker_ == nullptr) {
    StatusOr<runtime::StreamPipelineConfig> shard_config =
        ShardConfigFromHello(*hello, config_.checkpoint_root);
    if (!shard_config.ok()) {
      SendError(conn, shard_config.status());
      return OkStatus();
    }
    StatusOr<std::unique_ptr<Worker>> worker =
        Worker::Start(static_cast<std::size_t>(hello->shard_id),
                      config_.worker_id, *std::move(shard_config));
    if (!worker.ok()) {
      SendError(conn, worker.status());
      return OkStatus();
    }
    worker_ = *std::move(worker);
    hello_ = *hello;
  } else if (hello->shard_id != hello_.shard_id ||
             hello->dim != hello_.dim ||
             hello->group_size != hello_.group_size ||
             hello->seed != hello_.seed ||
             hello->backend != hello_.backend) {
    // A re-handshake (reconnect) must describe the same shard; anything
    // else is a mis-wired coordinator.
    SendError(conn, FailedPreconditionError(
                        "Hello does not match this worker's session "
                        "(already serving shard " +
                        std::to_string(hello_.shard_id) + ")"));
    return OkStatus();
  }
  net::HelloAckMessage ack;
  ack.worker_id = worker_->worker_id();
  ack.durable_total = worker_->durable_total();
  return conn.SendFrame(net::FrameType::kHelloAck,
                        net::EncodeHelloAck(ack), config_.io_timeout_ms);
}

Status WorkerServer::HandleSubmit(net::TcpConnection& conn,
                                  const std::string& payload) {
  if (worker_ == nullptr) {
    SendError(conn, FailedPreconditionError("Submit before Hello"));
    return OkStatus();
  }
  StatusOr<net::SubmitMessage> submit = net::DecodeSubmit(payload);
  if (!submit.ok()) {
    SendError(conn, submit.status());
    return OkStatus();
  }
  for (const linalg::Vector& record : submit->records) {
    Status status = worker_->Submit(record);
    if (!status.ok()) {
      SendError(conn, status);
      return OkStatus();
    }
  }
  {
    obs::Timer timer;
    Status flushed = worker_->Flush(config_.flush_timeout_ms);
    FlushSeconds(worker_->worker_id()).Observe(timer.ElapsedSeconds());
    if (!flushed.ok()) {
      SendError(conn, flushed);
      return OkStatus();
    }
  }
  net::SubmitAckMessage ack;
  ack.durable_total = worker_->durable_total();
  return conn.SendFrame(net::FrameType::kSubmitAck,
                        net::EncodeSubmitAck(ack), config_.io_timeout_ms);
}

Status WorkerServer::HandleHeartbeat(net::TcpConnection& conn,
                                     const std::string& payload) {
  // Chaos hook: an armed "fabric.heartbeat" probe makes this worker miss
  // (kError) or delay (kLatency) beats, driving the coordinator's
  // liveness machinery without touching the network.
  Status injected = FailPoint::Maybe("fabric.heartbeat");
  if (!injected.ok()) {
    return OkStatus();  // swallow the beat: the coordinator times out
  }
  StatusOr<net::HeartbeatMessage> beat = net::DecodeHeartbeat(payload);
  if (!beat.ok()) {
    SendError(conn, beat.status());
    return OkStatus();
  }
  net::HeartbeatAckMessage ack;
  ack.nonce = beat->nonce;
  ack.durable_total = worker_ != nullptr ? worker_->durable_total() : 0;
  return conn.SendFrame(net::FrameType::kHeartbeatAck,
                        net::EncodeHeartbeatAck(ack),
                        config_.io_timeout_ms);
}

Status WorkerServer::HandleFinish(net::TcpConnection& conn) {
  if (worker_ == nullptr) {
    SendError(conn, FailedPreconditionError("Finish before Hello"));
    return OkStatus();
  }
  obs::TraceSpan span("fabric.worker.finish");
  StatusOr<core::CondensedGroupSet> groups = worker_->Finish();
  if (!groups.ok()) {
    SendError(conn, groups.status());
    return OkStatus();
  }
  net::FinishResultMessage result;
  result.stats = worker_->stats();
  result.groups_text = core::SerializeGroupSet(*groups);
  StatusOr<std::string> payload = net::EncodeFinishResult(result);
  if (!payload.ok()) {
    // The shard is drained and checkpointed; only its reply outgrew one
    // frame. Report that in-band and stop serving: the coordinator takes
    // the shard over from the checkpoint, or fails cleanly without a
    // local fallback root.
    SendError(conn, payload.status());
    finished_.store(true, std::memory_order_relaxed);
    return OkStatus();
  }
  Status sent = conn.SendFrame(net::FrameType::kFinishResult, *payload,
                               config_.io_timeout_ms);
  if (sent.ok()) {
    finished_.store(true, std::memory_order_relaxed);
  }
  return sent;
}

void WorkerServer::SendError(net::TcpConnection& conn,
                             const Status& status) {
  net::SendErrorFrame(conn, status, config_.io_timeout_ms);
}

}  // namespace condensa::shard
