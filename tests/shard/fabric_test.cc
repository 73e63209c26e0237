// ShardedStreamService with remote peers, over in-process WorkerServers
// (threads, not processes): a remote fleet must release the exact bytes
// an in-process fleet releases, survive endpoint loss via re-routing and
// local takeover, and validate its configuration before touching the
// network. Process-level chaos (kill -9, rejoin) lives in
// tests/integration/fabric_soak_test.cc.

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/backend.h"
#include "core/serialization.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/pipeline.h"
#include "shard/router.h"
#include "shard/stream_service.h"
#include "shard/worker.h"
#include "shard/worker_server.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

std::vector<Vector> MakeStream(std::size_t count, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(i % 2 == 0 ? -3.0 : 3.0, 1.0);
    }
    stream.push_back(std::move(record));
  }
  return stream;
}

// One worker server running on its own thread, as `condensa worker` would.
struct ServerHandle {
  std::unique_ptr<WorkerServer> server;
  std::thread thread;

  void Join() {
    if (thread.joinable()) thread.join();
  }
  ~ServerHandle() {
    if (server != nullptr) server->Stop();
    Join();
  }
};

std::unique_ptr<ServerHandle> StartServer(const std::string& root,
                                          std::uint16_t port = 0) {
  WorkerServerConfig config;
  config.checkpoint_root = root;
  config.port = port;
  config.poll_ms = 20.0;
  auto handle = std::make_unique<ServerHandle>();
  auto server = WorkerServer::Create(std::move(config));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  handle->server = *std::move(server);
  WorkerServer* raw = handle->server.get();
  handle->thread = std::thread([raw] { EXPECT_TRUE(raw->Run().ok()); });
  return handle;
}

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("condensa-fabric-test-" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  std::filesystem::path dir_;
};

ShardedStreamConfig BaseConfig(std::size_t dim) {
  ShardedStreamConfig config;
  config.dim = dim;
  config.group_size = 10;
  config.seed = 91;
  config.wire_batch = 32;
  config.heartbeat_interval_ms = 50.0;
  config.heartbeat_timeout_ms = 400.0;
  config.connect_timeout_ms = 500.0;
  config.reconnect.max_attempts = 2;
  config.reconnect.initial_backoff_ms = 10.0;
  return config;
}

// Starts a fleet whose shard i is config.workers[i].
StatusOr<std::unique_ptr<ShardedStreamService>> StartRemote(
    ShardedStreamConfig config) {
  config.num_shards = config.workers.size();
  return ShardedStreamService::Start(std::move(config));
}

TEST_F(FabricTest, ValidateRejectsBadConfigs) {
  ShardedStreamConfig config = BaseConfig(4);
  // No workers means in-process shards, which need a checkpoint root.
  EXPECT_FALSE(config.Validate().ok());

  config.num_shards = 2;
  config.workers = {{"127.0.0.1", 1}, {"", 2}};
  EXPECT_FALSE(config.Validate().ok());  // empty host

  config.num_shards = 1;
  config.workers = {{"127.0.0.1", 0}};
  EXPECT_FALSE(config.Validate().ok());  // port 0

  config.workers = {{"127.0.0.1", 1}};
  config.dim = 0;
  EXPECT_FALSE(config.Validate().ok());

  config.dim = 4;
  config.group_size = 1;
  EXPECT_FALSE(config.Validate().ok());  // streaming floor is k >= 2

  config.group_size = 10;
  config.wire_batch = 0;
  EXPECT_FALSE(config.Validate().ok());

  config.wire_batch = 8;
  config.heartbeat_timeout_ms = config.heartbeat_interval_ms / 2;
  EXPECT_FALSE(config.Validate().ok());

  config.heartbeat_timeout_ms = config.heartbeat_interval_ms * 4;
  EXPECT_TRUE(config.Validate().ok());

  // The largest Submit frame a config can produce must stay under the
  // 64 MiB frame payload cap — EncodeFrame CHECK-fails past it, so a
  // config that crossed it would crash the coordinator at the first
  // full outbox instead of failing here.
  config.dim = 1024;
  config.wire_batch = 8192;  // 8192 * 1024 * 8 B = exactly 64 MiB
  EXPECT_FALSE(config.Validate().ok());
  config.wire_batch = 8191;  // one record under the cap
  EXPECT_TRUE(config.Validate().ok());

  config.wire_batch = (1u << 20) + 1;  // above the per-frame record cap
  EXPECT_FALSE(config.Validate().ok());

  config.wire_batch = 8;
  config.dim = (1u << 16) + 1;  // above the wire dim cap
  EXPECT_FALSE(config.Validate().ok());
}

TEST_F(FabricTest, SubmitRejectsWrongDimensionRecord) {
  // EncodeSubmit packs config.dim doubles per record: a wrong-dimension
  // record in an outbox would make every batch it shares a frame with
  // undecodable forever (a poison pill that reads as a dead shard). It
  // must be rejected at Submit, before it takes an arrival index.
  auto server = StartServer(Dir("w0"));
  ShardedStreamConfig config = BaseConfig(4);
  config.workers = {{"127.0.0.1", server->server->port()}};
  config.wire_batch = 8;
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  Vector bad(3);
  EXPECT_EQ((*fabric)->Submit(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*fabric)->records_submitted(), 0u);
  // Remote shards report no live ledger before Finish.
  for (const runtime::StreamPipelineStats& stats : (*fabric)->stats()) {
    EXPECT_EQ(stats.submitted, 0u);
  }

  // The rejected record poisoned nothing: a full run still flows,
  // finishes, and balances.
  const std::vector<Vector> stream = MakeStream(60, 4, 9);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server->Join();
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
}

TEST_F(FabricTest, StartFailsWhenNothingIsReachableAndNoFallback) {
  ShardedStreamConfig config = BaseConfig(4);
  // Reserved port with nothing behind it.
  config.workers = {{"127.0.0.1", 1}};
  Status status = StartRemote(config).status();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST_F(FabricTest, ReleaseIsBitIdenticalToInProcessService) {
  const std::size_t kShards = 3;
  const std::vector<Vector> stream = MakeStream(1200, 4, 5);

  // In-process reference run.
  ShardedStreamConfig reference;
  reference.num_shards = kShards;
  reference.dim = 4;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = ShardedStreamService::Start(reference);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Fabric run over three worker servers.
  std::vector<std::unique_ptr<ServerHandle>> servers;
  ShardedStreamConfig config = BaseConfig(4);
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("worker-" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) server->Join();

  // The contract is BYTE identity of the canonical serialization, not
  // approximate statistical agreement.
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_EQ(result->report.handoffs, 0u);
  EXPECT_EQ(result->report.rerouted_records, 0u);
  ASSERT_EQ(result->shard_stats.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(result->shard_stats[i].accepted,
              expected->shard_stats[i].accepted)
        << "shard " << i;
  }
}

TEST_F(FabricTest, MdavBackendRunsAcrossTheFabric) {
  const std::size_t kShards = 2;
  const std::size_t kGroupSize = 6;
  const std::vector<Vector> stream = MakeStream(400, 3, 19);

  std::vector<std::unique_ptr<ServerHandle>> servers;
  ShardedStreamConfig config = BaseConfig(3);
  config.group_size = kGroupSize;
  config.backend = *core::FindBackend("mdav");
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("mdav-worker-" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) server->Join();

  // The workers condensed under MDAV: the gathered set carries the stamp
  // and every group meets the k floor.
  EXPECT_EQ(result->groups.backend_id(), "mdav");
  EXPECT_EQ(result->groups.backend_version(), 1);
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  for (const auto& group : result->groups.groups()) {
    EXPECT_GE(group.count(), kGroupSize);
  }
  // The stamp survives serialization of the gathered set.
  EXPECT_NE(core::SerializeGroupSet(result->groups).find("backend mdav 1"),
            std::string::npos);
}

// Every StreamPipelineConfig field except the checkpoint location.
void ExpectSameShardParameters(const runtime::StreamPipelineConfig& a,
                               const runtime::StreamPipelineConfig& b) {
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.group_size, b.group_size);
  EXPECT_EQ(a.split_rule, b.split_rule);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.snapshot_interval, b.snapshot_interval);
  EXPECT_EQ(a.sync_every_append, b.sync_every_append);
  EXPECT_EQ(a.queue_capacity, b.queue_capacity);
  EXPECT_EQ(a.backpressure, b.backpressure);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.batch_deadline_ms, b.batch_deadline_ms);
  EXPECT_EQ(a.retry.max_attempts, b.retry.max_attempts);
  EXPECT_EQ(a.retry.initial_backoff_ms, b.retry.initial_backoff_ms);
  EXPECT_EQ(a.retry.backoff_multiplier, b.retry.backoff_multiplier);
  EXPECT_EQ(a.retry.max_backoff_ms, b.retry.max_backoff_ms);
  EXPECT_EQ(a.retry.jitter_fraction, b.retry.jitter_fraction);
  EXPECT_EQ(a.retry_budget, b.retry_budget);
  EXPECT_EQ(a.breaker.failure_threshold, b.breaker.failure_threshold);
  EXPECT_EQ(a.breaker.open_duration_ms, b.breaker.open_duration_ms);
  EXPECT_EQ(a.breaker.probe_successes_to_close,
            b.breaker.probe_successes_to_close);
  EXPECT_EQ(a.finish_drain_deadline_ms, b.finish_drain_deadline_ms);
  EXPECT_EQ(a.quarantine_path, b.quarantine_path);
  EXPECT_EQ(a.spool_path, b.spool_path);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(static_cast<bool>(a.group_observer),
            static_cast<bool>(b.group_observer));
}

// One ShardedStreamConfig gives an in-process shard and a remote one the
// same pipeline: the Hello carries every parameter the in-process shard
// sets, and only the checkpoint root differs.
TEST_F(FabricTest, InProcessAndRemoteShardsStartFromEqualConfigs) {
  ShardedStreamConfig config = BaseConfig(3);
  config.num_shards = 3;
  config.checkpoint_root = Dir("local");
  config.split_rule = core::SplitRule::kPaperVerbatim;
  config.snapshot_interval = 77;
  config.sync_every_append = false;
  config.queue_capacity = 55;
  config.batch_size = 9;
  config.backend = *core::FindBackend("mdav");
  auto service = ShardedStreamService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::vector<std::uint64_t> seeds =
      Router::ShardSeeds(config.seed, config.num_shards);
  for (std::size_t shard = 0; shard < config.num_shards; ++shard) {
    const runtime::StreamPipelineConfig local =
        (*service)->shard_config(shard);
    EXPECT_EQ(local.checkpoint_dir,
              ShardCheckpointDir(config.checkpoint_root, shard));
    EXPECT_EQ(local.seed, seeds[shard]);
    EXPECT_EQ(local.batch_size, 9u);
    EXPECT_EQ(local.backend->id, "mdav");

    auto hello =
        net::DecodeHello(net::EncodeHello(HelloForShard(shard, local)));
    ASSERT_TRUE(hello.ok()) << hello.status().ToString();
    EXPECT_EQ(hello->shard_id, shard);
    auto remote = ShardConfigFromHello(*hello, Dir("remote"));
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->checkpoint_dir,
              ShardCheckpointDir(Dir("remote"), shard));
    ExpectSameShardParameters(local, *remote);
  }
  ASSERT_TRUE((*service)->Finish().ok());
}

TEST_F(FabricTest, HelloWithAnUnregisteredBackendIsRefused) {
  net::HelloMessage hello;
  hello.dim = 3;
  hello.group_size = 10;
  hello.backend = "bogus";
  auto config = ShardConfigFromHello(hello, Dir("direct"));
  ASSERT_FALSE(config.ok());
  EXPECT_TRUE(IsNotFound(config.status()));
  EXPECT_NE(std::string(config.status().message()).find("bogus"),
            std::string::npos);

  // Over the wire the session gets the NotFound back, and the worker
  // starts no shard pipeline.
  auto server = StartServer(Dir("worker"));
  auto conn = net::TcpConnection::Connect("127.0.0.1",
                                          server->server->port(), 2000.0);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(
      conn->SendFrame(net::FrameType::kHello, net::EncodeHello(hello), 2000.0)
          .ok());
  auto reply = conn->RecvFrame(2000.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::FrameType::kError);
  auto error = net::DecodeError(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_TRUE(IsNotFound(net::ErrorToStatus(*error)));
  conn->Close();
  server->server->Stop();
  server->Join();
  EXPECT_FALSE(std::filesystem::exists(Dir("worker") + "/shard-0"));
}

TEST_F(FabricTest, DeadEndpointIsRoutedAroundWithZeroLoss) {
  // Shard 1's endpoint never exists; its records must land on survivors
  // and the run must finish balanced.
  auto server0 = StartServer(Dir("w0"));
  auto server2 = StartServer(Dir("w2"));
  ShardedStreamConfig config = BaseConfig(4);
  config.workers = {{"127.0.0.1", server0->server->port()},
                    {"127.0.0.1", 1},  // nothing listens here
                    {"127.0.0.1", server2->server->port()}};
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  const std::vector<Vector> stream = MakeStream(600, 4, 6);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server0->Join();
  server2->Join();

  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_GT(result->report.rerouted_records, 0u);
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
}

TEST_F(FabricTest, TotalOutageDegradesToLocalFallbackBitIdentically) {
  // No endpoint is reachable at all, but checkpoint_root is set for
  // takeover: the run must complete entirely in-process AND still
  // release the same bytes as the healthy in-process run (takeover
  // mirrors the same routing, seeds, and gather order).
  const std::size_t kShards = 2;
  const std::vector<Vector> stream = MakeStream(800, 3, 7);

  ShardedStreamConfig reference;
  reference.num_shards = kShards;
  reference.dim = 3;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = ShardedStreamService::Start(reference);
  ASSERT_TRUE(in_process.ok());
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok());

  ShardedStreamConfig config = BaseConfig(3);
  config.workers = {{"127.0.0.1", 1}, {"127.0.0.1", 1}};
  config.checkpoint_root = Dir("fallback");
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok())
        << "record lost during total outage";
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->report.local_takeovers, kShards);
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
}

TEST_F(FabricTest, WorkerDeathAtFinishReroutesPendingRecordsBeforeGather) {
  // Regression: records still sitting in a peer's outbox when that peer
  // dies at Finish time must be delivered BEFORE any shard's groups are
  // collected. Draining orphans only after the gather loop either
  // aborted the Finish (orphan lands on an already-finished worker) or
  // silently dropped records (orphan lands on an already-gathered one).
  const std::size_t kShards = 3;
  std::vector<std::unique_ptr<ServerHandle>> servers;
  ShardedStreamConfig config = BaseConfig(4);
  // Nothing flushes during ingest: every record is still in an outbox
  // when Finish starts.
  config.wire_batch = 100000;
  config.io_timeout_ms = 500.0;
  config.ack_timeout_ms = 1000.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    std::string leaf = "w";
    leaf += std::to_string(i);
    servers.push_back(StartServer(Dir(leaf)));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  const std::vector<Vector> stream = MakeStream(600, 4, 11);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  // Kill worker 1 outright (listener and all) with its backlog unflushed.
  servers[1].reset();

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) {
    if (server != nullptr) server->Join();
  }
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
  EXPECT_GT(result->report.rerouted_records, 0u);
}

TEST_F(FabricTest, WorkerDeathAtFinishIsTakenOverWithItsBacklog) {
  // Same shape with a takeover root: the dead shard keeps its backlog
  // via in-process takeover instead of displacing it, so the release
  // stays bit-identical to the healthy in-process run.
  const std::size_t kShards = 3;
  const std::vector<Vector> stream = MakeStream(600, 4, 11);

  ShardedStreamConfig reference;
  reference.num_shards = kShards;
  reference.dim = 4;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = ShardedStreamService::Start(reference);
  ASSERT_TRUE(in_process.ok());
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok());

  std::vector<std::unique_ptr<ServerHandle>> servers;
  ShardedStreamConfig config = BaseConfig(4);
  config.wire_batch = 100000;
  config.io_timeout_ms = 500.0;
  config.ack_timeout_ms = 1000.0;
  config.checkpoint_root = Dir("fallback");
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("w" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  servers[1].reset();

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) {
    if (server != nullptr) server->Join();
  }
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_GE(result->report.local_takeovers, 1u);
  EXPECT_EQ(result->report.rerouted_records, 0u);
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
}

TEST_F(FabricTest, SubmitAfterFinishFails) {
  auto server = StartServer(Dir("w0"));
  ShardedStreamConfig config = BaseConfig(2);
  config.workers = {{"127.0.0.1", server->server->port()}};
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok());
  for (const Vector& record : MakeStream(50, 2, 8)) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  ASSERT_TRUE((*fabric)->Finish().ok());
  server->Join();
  Vector record(2);
  EXPECT_EQ((*fabric)->Submit(record).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*fabric)->Finish().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FabricTest, RejoinAtFinishIsCountedInTheReconnectSeries) {
  // Shard 1 is down until Finish, whose last-chance handshake rejoins
  // it. That reconnect must reach condensa_fabric_reconnects_total just
  // as the heartbeat thread's rejoins do, so the summed series moves by
  // exactly FabricReport::reconnects.
  auto server0 = StartServer(Dir("w0"));
  std::uint16_t late_port = 0;
  {
    auto reserved = net::TcpListener::Listen("127.0.0.1", 0);
    ASSERT_TRUE(reserved.ok()) << reserved.status().ToString();
    late_port = reserved->port();
  }  // Closed again: nothing listens there until the late server starts.
  auto reconnects_total = [] {
    std::uint64_t total = 0;
    for (const char* shard : {"0", "1"}) {
      total += obs::DefaultRegistry()
                   .GetCounter("condensa_fabric_reconnects_total",
                               {{"shard", shard}})
                   .value();
    }
    return total;
  };
  const std::uint64_t before = reconnects_total();

  ShardedStreamConfig config = BaseConfig(4);
  config.workers = {{"127.0.0.1", server0->server->port()},
                    {"127.0.0.1", late_port}};
  // After its first failed redial the heartbeat thread waits a minute,
  // which leaves the rejoin to Finish.
  config.reconnect.initial_backoff_ms = 60000.0;
  config.reconnect.max_backoff_ms = 60000.0;
  auto fabric = StartRemote(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  const std::vector<Vector> stream = MakeStream(200, 4, 13);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  // Give the heartbeat thread time to spend its early redial on the
  // closed port.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto server1 = StartServer(Dir("w1"), late_port);

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server0->Join();
  server1->Join();
  EXPECT_EQ(result->report.rejoins, 1u);
  EXPECT_GE(result->report.reconnects, 1u);
  EXPECT_EQ(reconnects_total() - before, result->report.reconnects);
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
}

TEST_F(FabricTest, WorkerIdentityLabelsBothShardSeries) {
  // Satellite contract: per-shard series carry {shard, worker} so a
  // restarted worker with a stable id keeps its series.
  runtime::StreamPipelineConfig config;
  config.dim = 2;
  config.group_size = 4;
  config.checkpoint_dir = ShardCheckpointDir(Dir("identity"), 9);
  config.sync_every_append = false;
  auto worker = Worker::Start(9, "stable-w9", config);
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();
  Vector record(2);
  ASSERT_TRUE((*worker)->Submit(record).ok());
  ASSERT_TRUE((*worker)->Finish().ok());
  const std::string dump =
      obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(
      dump.find(
          "condensa_shard_records_total{shard=\"9\",worker=\"stable-w9\"}"),
      std::string::npos)
      << dump;
  EXPECT_NE(
      dump.find("condensa_shard_groups{shard=\"9\",worker=\"stable-w9\"}"),
      std::string::npos)
      << dump;
}

}  // namespace
}  // namespace condensa::shard
