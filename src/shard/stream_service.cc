#include "shard/stream_service.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "core/serialization.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/worker_server.h"

namespace condensa::shard {
namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Labels ShardLabels(std::size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

obs::Counter& ConnectsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter("condensa_fabric_connects_total",
                                           ShardLabels(shard));
}

obs::Counter& ReconnectsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_reconnects_total", ShardLabels(shard));
}

obs::Counter& HeartbeatsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_heartbeats_total", ShardLabels(shard));
}

obs::Counter& HeartbeatMissesCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_heartbeat_misses_total", ShardLabels(shard));
}

obs::Counter& RetransmitsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_rerouted_records_total", ShardLabels(shard));
}

obs::Gauge& PeerUpGauge(std::size_t shard) {
  return obs::DefaultRegistry().GetGauge("condensa_fabric_peer_up",
                                         ShardLabels(shard));
}

obs::Histogram& RpcSeconds(const char* op) {
  return obs::DefaultRegistry().GetHistogram(
      "condensa_fabric_rpc_seconds", {{"op", op}},
      obs::RpcLatencyBucketsSeconds());
}

}  // namespace

Status ShardedStreamConfig::Validate() const {
  if (num_shards == 0) {
    return InvalidArgumentError("num_shards must be >= 1");
  }
  if (!workers.empty() && workers.size() != num_shards) {
    return InvalidArgumentError(
        "workers lists " + std::to_string(workers.size()) +
        " endpoints for " + std::to_string(num_shards) +
        " shards; give one endpoint per shard");
  }
  for (const FabricEndpoint& endpoint : workers) {
    if (endpoint.host.empty() || endpoint.port == 0) {
      return InvalidArgumentError(
          "every worker endpoint needs a host and a non-zero port");
    }
  }
  if (dim == 0) {
    return InvalidArgumentError("dim must be >= 1");
  }
  if (group_size < 2) {
    return InvalidArgumentError(
        "sharded streaming requires group_size >= 2 (streaming runtime "
        "floor)");
  }
  if (workers.empty() && checkpoint_root.empty()) {
    return InvalidArgumentError(
        "checkpoint_root is required when the shards run in-process");
  }
  if (backend == nullptr) {
    return InvalidArgumentError("backend must be set");
  }
  if (wire_batch == 0) {
    return InvalidArgumentError("wire_batch must be >= 1");
  }
  if (connect_timeout_ms <= 0 || io_timeout_ms <= 0 ||
      ack_timeout_ms <= 0 || finish_timeout_ms <= 0 ||
      heartbeat_interval_ms <= 0 || heartbeat_timeout_ms <= 0) {
    return InvalidArgumentError("fabric timeouts must be positive");
  }
  if (heartbeat_timeout_ms < heartbeat_interval_ms) {
    return InvalidArgumentError(
        "heartbeat_timeout_ms must be >= heartbeat_interval_ms");
  }
  if (workers.empty()) {
    return OkStatus();
  }
  // The wire's caps bind only records that cross it.
  if (dim > net::kMaxWireDim) {
    return InvalidArgumentError(
        "dim " + std::to_string(dim) + " exceeds the wire cap of " +
        std::to_string(net::kMaxWireDim));
  }
  if (wire_batch > net::kMaxRecordsPerSubmit) {
    return InvalidArgumentError(
        "wire_batch " + std::to_string(wire_batch) +
        " exceeds the per-frame record cap of " +
        std::to_string(net::kMaxRecordsPerSubmit));
  }
  // EncodeFrame CHECK-fails on payloads at or above kMaxFramePayload, so
  // the largest Submit batch a config can produce must fit under the cap
  // — otherwise a legal-looking config would crash the coordinator at
  // the first full outbox instead of failing here with a Status.
  const std::uint64_t max_submit_payload =
      net::kSubmitOverheadBytes +
      static_cast<std::uint64_t>(wire_batch) * dim * sizeof(double);
  if (max_submit_payload >= net::kMaxFramePayload) {
    return InvalidArgumentError(
        "wire_batch " + std::to_string(wire_batch) + " at dim " +
        std::to_string(dim) + " makes a " +
        std::to_string(max_submit_payload) +
        "-byte Submit payload, above the frame cap of " +
        std::to_string(net::kMaxFramePayload) +
        " bytes; lower wire_batch");
  }
  return OkStatus();
}

std::string FabricReport::ToString() const {
  return "connects=" + std::to_string(connects) +
         " reconnects=" + std::to_string(reconnects) +
         " heartbeats=" + std::to_string(heartbeats) +
         " misses=" + std::to_string(heartbeat_misses) +
         " handoffs=" + std::to_string(handoffs) +
         " rerouted=" + std::to_string(rerouted_records) +
         " duplicates=" + std::to_string(duplicates_detected) +
         " rejoins=" + std::to_string(rejoins) +
         " local_takeovers=" + std::to_string(local_takeovers);
}

bool ShardedStreamResult::Balanced() const {
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    if (!stats.Balanced()) return false;
  }
  return true;
}

std::size_t ShardedStreamResult::TotalAccepted() const {
  std::size_t total = 0;
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    total += stats.accepted;
  }
  return total;
}

std::size_t ShardedStreamResult::TotalApplied() const {
  std::size_t total = 0;
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    total += stats.applied;
  }
  return total;
}

ShardedStreamService::ShardedStreamService(ShardedStreamConfig config)
    : config_(std::move(config)),
      router_({.num_shards = config_.num_shards, .policy = config_.policy}),
      shard_seeds_(Router::ShardSeeds(config_.seed, config_.num_shards)),
      backoff_rng_(config_.seed ^ 0x9E3779B97F4A7C15ull),
      hb_rng_(config_.seed ^ 0xC2B2AE3D27D4EB4Full) {}

StatusOr<std::unique_ptr<ShardedStreamService>> ShardedStreamService::Start(
    ShardedStreamConfig config) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  std::unique_ptr<ShardedStreamService> service(
      new ShardedStreamService(std::move(config)));
  const ShardedStreamConfig& cfg = service->config_;
  const bool in_process = cfg.workers.empty();

  service->peers_.reserve(cfg.num_shards);
  std::size_t reachable = 0;
  for (std::size_t shard = 0; shard < cfg.num_shards; ++shard) {
    service->peers_.push_back(std::make_unique<Peer>());
    Peer& peer = *service->peers_.back();
    std::lock_guard<std::mutex> lock(peer.mu);
    if (in_process) {
      CONDENSA_ASSIGN_OR_RETURN(
          peer.local, Worker::Start(shard, "", service->shard_config(shard)));
      peer.state = PeerState::kLocal;
      continue;
    }
    Status handshake = service->HandshakeLocked(shard, peer);
    if (handshake.ok()) {
      service->connects_.fetch_add(1, std::memory_order_relaxed);
      ConnectsCounter(shard).Increment();
      ++reachable;
    } else {
      // Start does not block on a down endpoint: the heartbeat thread
      // keeps redialing, and records route around it meanwhile.
      peer.state = PeerState::kDead;
      peer.redial_failures = 1;
      peer.next_redial_ms = SteadyNowMs();
      PeerUpGauge(shard).Set(0.0);
    }
  }
  if (in_process) {
    return service;
  }
  if (reachable == 0 && cfg.checkpoint_root.empty()) {
    return UnavailableError(
        "no fabric worker endpoint is reachable and no checkpoint_root is "
        "configured for local takeover");
  }
  service->heartbeat_ =
      std::thread(&ShardedStreamService::HeartbeatLoop, service.get());
  return service;
}

ShardedStreamService::~ShardedStreamService() {
  shutdown_.store(true, std::memory_order_relaxed);
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  for (const std::unique_ptr<Peer>& peer : peers_) {
    std::lock_guard<std::mutex> lock(peer->mu);
    if (peer->state == PeerState::kConnected && peer->conn.ok()) {
      (void)peer->conn.SendFrame(net::FrameType::kGoodbye, "",
                                 config_.io_timeout_ms);
    }
    peer->conn.Close();
  }
}

runtime::StreamPipelineConfig ShardedStreamService::shard_config(
    std::size_t shard) const {
  CONDENSA_CHECK_LT(shard, shard_seeds_.size());
  runtime::StreamPipelineConfig config;
  config.dim = config_.dim;
  config.group_size = config_.group_size;
  config.split_rule = config_.split_rule;
  config.backend = config_.backend;
  config.checkpoint_dir = ShardCheckpointDir(config_.checkpoint_root, shard);
  config.snapshot_interval = config_.snapshot_interval;
  config.sync_every_append = config_.sync_every_append;
  config.queue_capacity = config_.queue_capacity;
  config.batch_size = config_.batch_size;
  config.seed = shard_seeds_[shard];
  return config;
}

Status ShardedStreamService::HandshakeLocked(std::size_t shard, Peer& peer) {
  obs::TraceSpan span("fabric.handshake");
  const FabricEndpoint& endpoint = config_.workers[shard];
  peer.conn.Close();
  CONDENSA_ASSIGN_OR_RETURN(
      net::TcpConnection conn,
      net::TcpConnection::Connect(endpoint.host, endpoint.port,
                                  config_.connect_timeout_ms));
  CONDENSA_RETURN_IF_ERROR(conn.SendFrame(
      net::FrameType::kHello,
      net::EncodeHello(HelloForShard(shard, shard_config(shard))),
      config_.io_timeout_ms));
  CONDENSA_ASSIGN_OR_RETURN(net::Frame frame,
                            conn.RecvFrame(config_.io_timeout_ms));
  if (frame.type == net::FrameType::kError) {
    CONDENSA_ASSIGN_OR_RETURN(net::ErrorMessage error,
                              net::DecodeError(frame.payload));
    return net::ErrorToStatus(error);
  }
  if (frame.type != net::FrameType::kHelloAck) {
    return DataLossError(std::string("expected HelloAck, got ") +
                         net::FrameTypeName(frame.type));
  }
  CONDENSA_ASSIGN_OR_RETURN(net::HelloAckMessage ack,
                            net::DecodeHelloAck(frame.payload));
  peer.worker_id = ack.worker_id;
  if (!peer.baselined) {
    peer.base_durable = ack.durable_total;
    peer.baselined = true;
  } else {
    AbsorbDurableTotalLocked(peer, ack.durable_total);
  }
  peer.conn = std::move(conn);
  peer.state = PeerState::kConnected;
  peer.last_ok_ms = SteadyNowMs();
  peer.redial_failures = 0;
  PeerUpGauge(shard).Set(1.0);
  return OkStatus();
}

void ShardedStreamService::AbsorbDurableTotalLocked(
    Peer& peer, std::uint64_t durable_total) {
  // A worker whose durable_total went backwards lost its checkpoint dir;
  // nothing to trim, and the acked records it held are gone from its
  // side (they survive only if they were also re-routed).
  if (durable_total < peer.base_durable) {
    return;
  }
  const std::uint64_t delivered = durable_total - peer.base_durable;
  if (delivered <= peer.acked) {
    return;
  }
  std::uint64_t extra = delivered - peer.acked;
  // The worker processes its substream in order, so whatever it absorbed
  // beyond our ack watermark is a prefix of the outbox.
  const std::uint64_t trim =
      std::min<std::uint64_t>(extra, peer.outbox.size());
  peer.outbox.erase(peer.outbox.begin(),
                    peer.outbox.begin() + static_cast<long>(trim));
  extra -= trim;
  if (extra > 0) {
    // Absorbed records we no longer hold: they were handed off to
    // survivors when this peer died, so the fleet now carries both
    // copies. Exactness is preserved by counting them.
    duplicates_detected_.fetch_add(extra, std::memory_order_relaxed);
  }
  peer.acked = delivered;
}

Status ShardedStreamService::SendBatchLocked(Peer& peer) {
  obs::TraceSpan span("fabric.submit.batch");
  obs::Timer timer;
  const std::size_t count =
      std::min(config_.wire_batch, peer.outbox.size());
  CONDENSA_CHECK_GT(count, 0u);
  net::SubmitMessage msg;
  msg.base_sequence = peer.outbox.front().first;
  msg.dim = config_.dim;
  msg.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.records.push_back(peer.outbox[i].second);
  }
  Status sent = peer.conn.SendFrame(net::FrameType::kSubmit,
                                    net::EncodeSubmit(msg),
                                    config_.io_timeout_ms);
  if (!sent.ok()) {
    peer.conn.Close();
    return sent;
  }
  // The worker flushes to durable custody before acking, so the ack wait
  // is bounded by its flush timeout, not the per-frame I/O timeout.
  StatusOr<net::Frame> frame = peer.conn.RecvFrame(config_.ack_timeout_ms);
  if (!frame.ok()) {
    peer.conn.Close();
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    peer.conn.Close();
    StatusOr<net::ErrorMessage> error = net::DecodeError(frame->payload);
    return error.ok() ? net::ErrorToStatus(*error) : error.status();
  }
  if (frame->type != net::FrameType::kSubmitAck) {
    peer.conn.Close();
    return DataLossError(std::string("expected SubmitAck, got ") +
                         net::FrameTypeName(frame->type));
  }
  StatusOr<net::SubmitAckMessage> ack =
      net::DecodeSubmitAck(frame->payload);
  if (!ack.ok()) {
    peer.conn.Close();
    return ack.status();
  }
  AbsorbDurableTotalLocked(peer, ack->durable_total);
  peer.last_ok_ms = SteadyNowMs();
  RpcSeconds("submit").Observe(timer.ElapsedSeconds());
  return OkStatus();
}

Status ShardedStreamService::FlushOutboxLocked(Peer& peer,
                                               std::size_t low_water) {
  while (peer.state == PeerState::kConnected &&
         peer.outbox.size() > low_water) {
    CONDENSA_RETURN_IF_ERROR(SendBatchLocked(peer));
  }
  return OkStatus();
}

void ShardedStreamService::EnqueueLocked(std::size_t shard, Peer& peer,
                                         std::size_t index,
                                         linalg::Vector record) {
  peer.outbox.push_back({index, std::move(record)});
  if (peer.outbox.size() >= config_.wire_batch &&
      !FlushOutboxLocked(peer, config_.wire_batch - 1).ok()) {
    ReviveOrDeclareDeadLocked(shard, peer);
  }
}

void ShardedStreamService::CountReconnect(std::size_t shard, bool rejoin) {
  if (rejoin) {
    rejoins_.fetch_add(1, std::memory_order_relaxed);
  }
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  ReconnectsCounter(shard).Increment();
}

void ShardedStreamService::ReviveOrDeclareDeadLocked(std::size_t shard,
                                                     Peer& peer) {
  peer.conn.Close();
  for (std::size_t attempt = 1; attempt <= config_.reconnect.max_attempts;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        runtime::BackoffDelayMs(config_.reconnect, attempt,
                                backoff_rng_)));
    if (HandshakeLocked(shard, peer).ok()) {
      CountReconnect(shard, /*rejoin=*/false);
      return;
    }
  }
  DeclareDeadLocked(shard, peer);
}

void ShardedStreamService::DeclareDeadLocked(std::size_t shard, Peer& peer) {
  if (peer.state == PeerState::kDead) {
    return;
  }
  obs::TraceSpan span("fabric.handoff");
  peer.conn.Close();
  peer.state = PeerState::kDead;
  peer.next_redial_ms = SteadyNowMs();
  PeerUpGauge(shard).Set(0.0);
  handoffs_.fetch_add(1, std::memory_order_relaxed);
  while (!peer.outbox.empty()) {
    Orphan(peer.outbox.front().first, std::move(peer.outbox.front().second));
    peer.outbox.pop_front();
  }
}

void ShardedStreamService::Orphan(std::size_t index, linalg::Vector record) {
  std::lock_guard<std::mutex> lock(orphans_mu_);
  orphans_.push_back({index, std::move(record)});
  orphans_pending_.store(true, std::memory_order_release);
}

std::vector<std::size_t> ShardedStreamService::LiveMembers() {
  std::vector<std::size_t> members;
  members.reserve(peers_.size());
  for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (peer.state != PeerState::kDead) {
      members.push_back(shard);
    }
  }
  return members;
}

Status ShardedStreamService::LocalTakeoverLocked(std::size_t shard,
                                                 Peer& peer) {
  if (config_.checkpoint_root.empty()) {
    return UnavailableError(
        "shard " + std::to_string(shard) +
        " is unreachable and no checkpoint_root is configured for local "
        "takeover");
  }
  // The config an in-process shard runs with is what the Hello gave the
  // remote worker, so the takeover runs exactly what that worker ran.
  CONDENSA_ASSIGN_OR_RETURN(
      peer.local, Worker::Start(shard, peer.worker_id, shard_config(shard)));
  // Recovering over the worker's own checkpoint dir restores its acked
  // records exactly; trim what the recovery already owns, then deliver
  // the rest of the outbox in-process.
  if (!peer.baselined) {
    peer.base_durable = peer.local->durable_total();
    peer.baselined = true;
  } else {
    AbsorbDurableTotalLocked(peer, peer.local->durable_total());
  }
  while (!peer.outbox.empty()) {
    CONDENSA_RETURN_IF_ERROR(
        peer.local->Submit(peer.outbox.front().second));
    peer.outbox.pop_front();
  }
  peer.conn.Close();
  peer.state = PeerState::kLocal;
  local_takeovers_.fetch_add(1, std::memory_order_relaxed);
  PeerUpGauge(shard).Set(1.0);
  return OkStatus();
}

Status ShardedStreamService::SettleDeliveries() {
  // Runs before any worker is allowed to Finish: repeatedly re-places
  // orphans and flushes every surviving outbox until both are empty. A
  // peer dying mid-pass re-orphans its outbox, which the next pass
  // re-places, so each unsettled pass either converges or shrinks the
  // member set — bounding the pass count by the shard count (doubled to
  // allow one revive-then-die flap per peer).
  const std::size_t max_passes = 2 * peers_.size() + 2;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    CONDENSA_RETURN_IF_ERROR(DrainOrphans());
    bool settled = true;
    for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
      Peer& peer = *peers_[shard];
      std::lock_guard<std::mutex> lock(peer.mu);
      if (peer.state != PeerState::kConnected || peer.outbox.empty()) {
        continue;
      }
      if (!FlushOutboxLocked(peer, 0).ok()) {
        ReviveOrDeclareDeadLocked(shard, peer);
        // Revived: the backlog flushes next pass. Declared dead: the
        // backlog was orphaned and re-places next pass.
        settled = false;
      }
    }
    if (settled && !orphans_pending_.load(std::memory_order_acquire)) {
      return OkStatus();
    }
  }
  return UnavailableError(
      "could not settle in-flight records before the gather");
}

Status ShardedStreamService::DrainOrphans() {
  // Each pass either places every orphan or shrinks the member set (a
  // peer dying re-orphans its outbox); the pass count is bounded by the
  // shard count plus the final fallback pass.
  for (std::size_t pass = 0; pass <= peers_.size() + 1; ++pass) {
    std::deque<std::pair<std::size_t, linalg::Vector>> batch;
    {
      std::lock_guard<std::mutex> lock(orphans_mu_);
      std::swap(batch, orphans_);
      orphans_pending_.store(false, std::memory_order_relaxed);
    }
    if (batch.empty()) {
      return OkStatus();
    }
    const std::vector<std::size_t> members = LiveMembers();
    for (auto& [index, record] : batch) {
      const std::size_t home = router_.ShardOf(record, index);
      {
        // A record keeps its home shard whenever the home can accept it:
        // over the wire, through an existing local takeover, or — when a
        // checkpoint root is configured — through a fresh takeover. Only
        // a dead home with no root displaces the record onto a survivor,
        // so the degraded fleet preserves the in-process routing (and
        // therefore the bit-identical release) as long as it has
        // anywhere local to put the shard.
        Peer& home_peer = *peers_[home];
        std::lock_guard<std::mutex> lock(home_peer.mu);
        if (home_peer.state == PeerState::kDead &&
            !config_.checkpoint_root.empty()) {
          Status takeover = LocalTakeoverLocked(home, home_peer);
          if (!takeover.ok()) {
            Orphan(index, std::move(record));
            return takeover;
          }
        }
        if (home_peer.state == PeerState::kLocal) {
          CONDENSA_RETURN_IF_ERROR(home_peer.local->Submit(record));
          continue;
        }
        if (home_peer.state == PeerState::kConnected) {
          EnqueueLocked(home, home_peer, index, std::move(record));
          continue;
        }
      }
      // Dead home, no root: displace onto a survivor (home is not in
      // `members`, so target != home by construction).
      if (members.empty()) {
        Orphan(index, std::move(record));
        continue;
      }
      const std::size_t target = router_.ShardAmong(record, index, members);
      Peer& peer = *peers_[target];
      std::lock_guard<std::mutex> lock(peer.mu);
      if (peer.state == PeerState::kLocal) {
        CONDENSA_RETURN_IF_ERROR(peer.local->Submit(record));
      } else if (peer.state == PeerState::kConnected) {
        EnqueueLocked(target, peer, index, std::move(record));
      } else {
        // Died between the member snapshot and now; try again next pass.
        Orphan(index, std::move(record));
        continue;
      }
      rerouted_records_.fetch_add(1, std::memory_order_relaxed);
      RetransmitsCounter(home).Increment();
    }
  }
  std::lock_guard<std::mutex> lock(orphans_mu_);
  if (!orphans_.empty()) {
    return UnavailableError("could not place " +
                            std::to_string(orphans_.size()) +
                            " re-routed records on any live shard");
  }
  return OkStatus();
}

Status ShardedStreamService::Submit(const linalg::Vector& record) {
  if (finished_) {
    return FailedPreconditionError("Submit after Finish");
  }
  // EncodeSubmit packs exactly config_.dim doubles per record, so a
  // wrong-dimension record would make every batch sharing a frame with
  // it undecodable — a poison pill the worker rejects forever, which
  // reads as a dead shard. Every shard kind refuses it here, before it
  // takes an arrival index or touches any outbox.
  if (record.dim() != config_.dim) {
    return InvalidArgumentError(
        "record dimension " + std::to_string(record.dim()) +
        " does not match the service dimension " +
        std::to_string(config_.dim));
  }
  const std::size_t index = submitted_;
  const std::size_t shard = router_.Route(record);
  ++submitted_;
  {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    switch (peer.state) {
      case PeerState::kLocal:
        CONDENSA_RETURN_IF_ERROR(peer.local->Submit(record));
        break;
      case PeerState::kConnected:
        EnqueueLocked(shard, peer, index, record);
        if (peer.state == PeerState::kConnected) {
          CONDENSA_RETURN_IF_ERROR(
              FlushOutboxLocked(peer, config_.wire_batch - 1));
        }
        break;
      case PeerState::kDead:
        // Route around the outage immediately; the record keeps its
        // arrival index so the re-route is deterministic in the member
        // set.
        Orphan(index, record);
        break;
    }
  }
  if (orphans_pending_.load(std::memory_order_acquire)) {
    CONDENSA_RETURN_IF_ERROR(DrainOrphans());
  }
  return OkStatus();
}

std::vector<runtime::StreamPipelineStats> ShardedStreamService::stats()
    const {
  std::vector<runtime::StreamPipelineStats> all;
  all.reserve(peers_.size());
  for (const std::unique_ptr<Peer>& peer : peers_) {
    std::lock_guard<std::mutex> lock(peer->mu);
    all.push_back(peer->state == PeerState::kLocal
                      ? peer->local->stats()
                      : runtime::StreamPipelineStats{});
  }
  return all;
}

Status ShardedStreamService::ProbePeerLocked(std::size_t shard, Peer& peer) {
  obs::Timer timer;
  net::HeartbeatMessage beat;
  beat.nonce = hb_rng_.NextUint64();
  CONDENSA_RETURN_IF_ERROR(peer.conn.SendFrame(net::FrameType::kHeartbeat,
                                               net::EncodeHeartbeat(beat),
                                               config_.io_timeout_ms));
  CONDENSA_ASSIGN_OR_RETURN(
      net::Frame frame, peer.conn.RecvFrame(config_.heartbeat_timeout_ms));
  if (frame.type != net::FrameType::kHeartbeatAck) {
    return DataLossError(std::string("expected HeartbeatAck, got ") +
                         net::FrameTypeName(frame.type));
  }
  CONDENSA_ASSIGN_OR_RETURN(net::HeartbeatAckMessage ack,
                            net::DecodeHeartbeatAck(frame.payload));
  if (ack.nonce != beat.nonce) {
    return DataLossError("heartbeat ack nonce mismatch");
  }
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
  HeartbeatsCounter(shard).Increment();
  peer.last_ok_ms = SteadyNowMs();
  RpcSeconds("heartbeat").Observe(timer.ElapsedSeconds());
  return OkStatus();
}

void ShardedStreamService::HeartbeatLoop() {
  const auto tick = std::chrono::duration<double, std::milli>(
      std::min(config_.heartbeat_interval_ms, 50.0));
  while (!shutdown_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(tick);
    const double now = SteadyNowMs();
    for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
      if (shutdown_.load(std::memory_order_relaxed)) {
        return;
      }
      Peer& peer = *peers_[shard];
      // Never contend with the ingest path: a peer busy in an RPC is
      // proving its liveness already.
      std::unique_lock<std::mutex> lock(peer.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        continue;
      }
      if (peer.state == PeerState::kConnected) {
        if (now - peer.last_ok_ms < config_.heartbeat_interval_ms) {
          continue;
        }
        if (!peer.conn.ok() || !ProbePeerLocked(shard, peer).ok()) {
          heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
          HeartbeatMissesCounter(shard).Increment();
          peer.conn.Close();
          // One immediate redial; past the liveness window the peer is
          // declared dead and its backlog handed off.
          if (HandshakeLocked(shard, peer).ok()) {
            CountReconnect(shard, /*rejoin=*/false);
          } else if (SteadyNowMs() - peer.last_ok_ms >
                     config_.heartbeat_timeout_ms) {
            DeclareDeadLocked(shard, peer);
          }
        }
      } else if (peer.state == PeerState::kDead) {
        if (now < peer.next_redial_ms) {
          continue;
        }
        if (HandshakeLocked(shard, peer).ok()) {
          CountReconnect(shard, /*rejoin=*/true);
        } else {
          ++peer.redial_failures;
          peer.next_redial_ms =
              SteadyNowMs() + runtime::BackoffDelayMs(config_.reconnect,
                                                      peer.redial_failures,
                                                      hb_rng_);
        }
      }
    }
  }
}

StatusOr<ShardedStreamResult> ShardedStreamService::Finish() {
  if (finished_) {
    return FailedPreconditionError("Finish was already called");
  }
  finished_ = true;
  obs::TraceSpan span("shard.stream.finish");

  // Quiesce the background thread first: Finish owns every peer from
  // here on, so no revival can race the final flush.
  shutdown_.store(true, std::memory_order_relaxed);
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }

  // Deliver every in-flight record BEFORE any worker runs Finish. Once
  // the gather below starts, a record can no longer be re-placed: its
  // home may already be gathered (its groups fixed) or finished (Submit
  // would fail), so any orphan surviving into the gather is either data
  // loss or an abort. Settling first empties every outbox and the
  // orphan queue, which also means a worker death DURING the gather
  // orphans nothing — its acked state recovers alone via takeover.
  CONDENSA_RETURN_IF_ERROR(SettleDeliveries());

  ShardedStreamResult result;
  std::vector<core::CondensedGroupSet> shard_sets;
  shard_sets.reserve(peers_.size());
  for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);

    if (peer.state == PeerState::kDead) {
      // Last chance over the wire before degrading.
      if (HandshakeLocked(shard, peer).ok()) {
        CountReconnect(shard, /*rejoin=*/true);
      } else if (!peer.baselined ||
                 (peer.base_durable == 0 && peer.acked == 0 &&
                  peer.outbox.empty())) {
        // The peer owns no durable state of any run and no backlog —
        // an empty shard, skipped exactly.
        shard_sets.push_back(
            core::CondensedGroupSet(config_.dim, config_.group_size));
        result.shard_stats.push_back(runtime::StreamPipelineStats{});
        continue;
      } else {
        CONDENSA_RETURN_IF_ERROR(LocalTakeoverLocked(shard, peer));
      }
    }

    if (peer.state == PeerState::kConnected) {
      Status finished_remote = [&]() -> Status {
        CONDENSA_RETURN_IF_ERROR(FlushOutboxLocked(peer, 0));
        obs::Timer timer;
        CONDENSA_RETURN_IF_ERROR(peer.conn.SendFrame(
            net::FrameType::kFinish, "", config_.io_timeout_ms));
        CONDENSA_ASSIGN_OR_RETURN(
            net::Frame frame,
            peer.conn.RecvFrame(config_.finish_timeout_ms));
        if (frame.type == net::FrameType::kError) {
          CONDENSA_ASSIGN_OR_RETURN(net::ErrorMessage error,
                                    net::DecodeError(frame.payload));
          return net::ErrorToStatus(error);
        }
        if (frame.type != net::FrameType::kFinishResult) {
          return DataLossError(std::string("expected FinishResult, got ") +
                               net::FrameTypeName(frame.type));
        }
        CONDENSA_ASSIGN_OR_RETURN(net::FinishResultMessage finish,
                                  net::DecodeFinishResult(frame.payload));
        CONDENSA_ASSIGN_OR_RETURN(
            core::CondensedGroupSet set,
            core::DeserializeGroupSet(finish.groups_text));
        RpcSeconds("finish").Observe(timer.ElapsedSeconds());
        shard_sets.push_back(std::move(set));
        result.shard_stats.push_back(finish.stats);
        return OkStatus();
      }();
      if (!finished_remote.ok()) {
        // The worker died (or the wire broke) inside the gather; its
        // durable state is still on disk, so hand the shard over. The
        // outbox is empty (SettleDeliveries ran), so declaring the peer
        // dead here orphans nothing.
        DeclareDeadLocked(shard, peer);
        CONDENSA_RETURN_IF_ERROR(LocalTakeoverLocked(shard, peer));
      }
    }

    if (peer.state == PeerState::kLocal) {
      CONDENSA_ASSIGN_OR_RETURN(core::CondensedGroupSet set,
                                peer.local->Finish());
      shard_sets.push_back(std::move(set));
      result.shard_stats.push_back(peer.local->stats());
    }
  }

  // Invariant: SettleDeliveries emptied every outbox before the gather,
  // so the loop above cannot have orphaned anything. A leftover here
  // has no live shard to land on — surface it instead of dropping it.
  {
    std::lock_guard<std::mutex> lock(orphans_mu_);
    if (!orphans_.empty()) {
      return InternalError("gather left " +
                           std::to_string(orphans_.size()) +
                           " records unplaced; refusing to drop them");
    }
  }

  Coordinator coordinator(
      {.group_size = config_.group_size, .split_rule = config_.split_rule});
  CONDENSA_ASSIGN_OR_RETURN(
      result.groups,
      coordinator.Gather(std::move(shard_sets), &result.gather));
  result.report = report();
  return result;
}

FabricReport ShardedStreamService::report() const {
  FabricReport out;
  out.connects = connects_.load(std::memory_order_relaxed);
  out.reconnects = reconnects_.load(std::memory_order_relaxed);
  out.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  out.heartbeat_misses = heartbeat_misses_.load(std::memory_order_relaxed);
  out.handoffs = handoffs_.load(std::memory_order_relaxed);
  out.rerouted_records = rerouted_records_.load(std::memory_order_relaxed);
  out.duplicates_detected =
      duplicates_detected_.load(std::memory_order_relaxed);
  out.rejoins = rejoins_.load(std::memory_order_relaxed);
  out.local_takeovers = local_takeovers_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace condensa::shard
