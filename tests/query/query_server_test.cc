// QueryServer + QueryClient over real loopback TCP: request/response
// round trips, in-band errors for unanswerable queries, the
// no-snapshot-yet precondition, and snapshot pinning across Publish.

#include "query/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"
#include "net/frame.h"
#include "net/wire.h"
#include "query/client.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "query/wire.h"

namespace condensa::query {
namespace {

using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Vector;

Vector MakePoint(std::initializer_list<double> values) {
  Vector v(values.size());
  std::size_t i = 0;
  for (double value : values) v[i++] = value;
  return v;
}

CondensedGroupSet MakeGroups(double center, std::uint64_t seed) {
  Rng rng(seed);
  CondensedGroupSet groups(2, 4);
  for (std::size_t g = 0; g < 3; ++g) {
    GroupStatistics stats(2);
    for (std::size_t r = 0; r < 4; ++r) {
      Vector record(2);
      record[0] = center + rng.Gaussian(0.0, 0.2);
      record[1] = double(g) + rng.Gaussian(0.0, 0.2);
      stats.Add(record);
    }
    groups.AddGroup(std::move(stats));
  }
  return groups;
}

class QueryServerTest : public ::testing::Test {
 protected:
  void StartServer(std::shared_ptr<SnapshotStore> store) {
    QueryServerConfig config;
    config.poll_ms = 10.0;
    StartServerWithConfig(std::move(config), std::move(store));
  }

  void StartServerWithConfig(QueryServerConfig config,
                             std::shared_ptr<SnapshotStore> store) {
    auto server = QueryServer::Create(std::move(config), std::move(store));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
    serving_ = std::thread([this] {
      Status run = server_->Run();
      EXPECT_TRUE(run.ok()) << run.ToString();
    });
  }

  void TearDown() override { StopServer(); }

  void StopServer() {
    if (server_ != nullptr) {
      server_->Stop();
      serving_.join();
      server_.reset();
    }
  }

  std::unique_ptr<QueryServer> server_;
  std::thread serving_;
};

TEST_F(QueryServerTest, AnswersAggregateAndClassify) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({0, MakeGroups(-3.0, 1)});
  snapshot.pools.push_back({1, MakeGroups(3.0, 2)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client =
      QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Query aggregate;
  aggregate.kind = QueryKind::kAggregate;
  auto result = client->Execute(aggregate, 2000.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshot_version, 1u);
  EXPECT_EQ(result->aggregate.groups_matched, 6u);
  EXPECT_EQ(result->aggregate.records, 24u);
  EXPECT_TRUE(result->aggregate.has_moments);

  Query classify;
  classify.kind = QueryKind::kClassify;
  classify.classify.points.push_back(MakePoint({-3.0, 1.0}));
  classify.classify.points.push_back(MakePoint({3.0, 1.0}));
  auto labels = client->Execute(classify, 2000.0);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->classify.labels.size(), 2u);
  EXPECT_EQ(labels->classify.labels[0], 0);
  EXPECT_EQ(labels->classify.labels[1], 1);

  // Multiple requests ride one session; regeneration works remotely too.
  Query regenerate;
  regenerate.kind = QueryKind::kRegenerate;
  regenerate.regenerate.seed = 5;
  auto records = client->Execute(regenerate, 2000.0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->regenerate.records.size(), 24u);  // both pools
}

TEST_F(QueryServerTest, UnanswerableQueriesComeBackInBand) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 3)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client =
      QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());

  // Classify against an unlabeled snapshot: FailedPrecondition, and the
  // session survives to answer the next request.
  Query classify;
  classify.kind = QueryKind::kClassify;
  classify.classify.points.push_back(MakePoint({0.0, 0.0}));
  auto bad = client->Execute(classify, 2000.0);
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);

  Query aggregate;
  aggregate.kind = QueryKind::kAggregate;
  aggregate.aggregate.range.bounds.push_back({9, 0.0, 1.0});
  auto invalid = client->Execute(aggregate, 2000.0);
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);

  aggregate.aggregate.range.bounds.clear();
  auto good = client->Execute(aggregate, 2000.0);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->aggregate.records, 12u);
}

TEST_F(QueryServerTest, NonFiniteClassifyPointIsAnInBandError) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({0, MakeGroups(-3.0, 1)});
  snapshot.pools.push_back({1, MakeGroups(3.0, 2)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client =
      QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // NaN and ±inf travel bit-exactly and come back as InvalidArgument;
  // the session keeps answering.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Query classify;
    classify.kind = QueryKind::kClassify;
    classify.classify.points.push_back(MakePoint({bad, 1.0}));
    auto refused = client->Execute(classify, 2000.0);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }
  Query classify;
  classify.kind = QueryKind::kClassify;
  classify.classify.points.push_back(MakePoint({3.0, 1.0}));
  auto labels = client->Execute(classify, 2000.0);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels->classify.labels.size(), 1u);
  EXPECT_EQ(labels->classify.labels[0], 1);
}

TEST_F(QueryServerTest, NoSnapshotYetIsFailedPrecondition) {
  StartServer(std::make_shared<SnapshotStore>());
  auto client =
      QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  Query query;
  query.kind = QueryKind::kAggregate;
  auto result = client->Execute(query, 2000.0);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServerTest, UnexpectedFrameTypeGetsInBandError) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 4)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto conn = net::TcpConnection::Connect("127.0.0.1", server_->port(),
                                          2000.0);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(net::FrameType::kSubmit, "", 1000.0).ok());
  auto reply = conn->RecvFrame(2000.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, net::FrameType::kError);

  // Malformed Query payloads are also in-band errors, not dropped
  // sessions.
  ASSERT_TRUE(
      conn->SendFrame(net::FrameType::kQuery, "\xff\xff", 1000.0).ok());
  auto decode_error = conn->RecvFrame(2000.0);
  ASSERT_TRUE(decode_error.ok());
  EXPECT_EQ(decode_error->type, net::FrameType::kError);
}

TEST_F(QueryServerTest, LaterPublishChangesAnswersAndVersion) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot first;
  first.dim = 2;
  first.pools.push_back({-1, MakeGroups(0.0, 5)});
  store->Publish(std::move(first));
  StartServer(store);

  auto client =
      QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  Query query;
  query.kind = QueryKind::kAggregate;
  auto before = client->Execute(query, 2000.0);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->snapshot_version, 1u);
  EXPECT_EQ(before->aggregate.records, 12u);

  QuerySnapshot second;
  second.dim = 2;
  second.pools.push_back({-1, MakeGroups(0.0, 5)});
  second.pools.push_back({-1, MakeGroups(1.0, 6)});
  store->Publish(std::move(second));

  auto after = client->Execute(query, 2000.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot_version, 2u);
  EXPECT_EQ(after->aggregate.records, 24u);
}

TEST_F(QueryServerTest, ExpiredDeadlineIsShedBeforeExecution) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 7)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());

  // An engine stalled longer than the request's budget: the engine
  // notices the expired deadline mid-execution and sheds.
  FailPoint::Arm("query.execute",
                 {.repeat = 1, .mode = FailPointMode::kLatency,
                  .latency_ms = 120.0});
  Query slow;
  slow.kind = QueryKind::kAggregate;
  slow.deadline_ms = 40.0;
  auto shed = client->Execute(slow, 2000.0);
  FailPoint::Reset();
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();

  // The session survives the shed, and the same query without a deadline
  // succeeds.
  Query fine;
  fine.kind = QueryKind::kAggregate;
  auto answered = client->Execute(fine, 2000.0);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->aggregate.records, 12u);
}

TEST_F(QueryServerTest, ServerDefaultDeadlineAppliesToBudgetlessRequests) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 8)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.default_deadline_ms = 40.0;
  StartServerWithConfig(std::move(config), store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());

  FailPoint::Arm("query.execute",
                 {.repeat = 1, .mode = FailPointMode::kLatency,
                  .latency_ms = 120.0});
  Query query;  // carries no deadline of its own
  query.kind = QueryKind::kAggregate;
  auto shed = client->Execute(query, 2000.0);
  FailPoint::Reset();
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
}

TEST_F(QueryServerTest, BudgetsPastTheClockRangeAreAnswered) {
  // A budget too large for the steady clock means no deadline, whether
  // the request carries it or the server's default supplies it.
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 10)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.default_deadline_ms = 1e13;
  StartServerWithConfig(std::move(config), store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  for (double deadline_ms : {1e15, 0.0}) {
    Query query;
    query.kind = QueryKind::kAggregate;
    query.deadline_ms = deadline_ms;
    auto answered = client->Execute(query, 2000.0);
    ASSERT_TRUE(answered.ok())
        << deadline_ms << ": " << answered.status().ToString();
    EXPECT_EQ(answered->aggregate.records, 12u);
  }
}

TEST_F(QueryServerTest, InfiniteRetryDeadlineMeansNoDeadline) {
  // `condensa query --connect --deadline-ms=inf` sets both the call's
  // budget and the query's deadline to +inf; the wire refuses +inf, so
  // the client must send "no deadline" instead.
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 10)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  StartServerWithConfig(std::move(config), store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  Query query;
  query.kind = QueryKind::kAggregate;
  query.deadline_ms = std::numeric_limits<double>::infinity();
  QueryRetryOptions retry;
  retry.deadline_ms = std::numeric_limits<double>::infinity();
  auto answered = client->ExecuteWithRetry(query, retry);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->aggregate.records, 12u);
}

TEST_F(QueryServerTest, ResultsCarryStalenessAndStaleAnswersAreCounted) {
  obs::DefaultRegistry().Reset();
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 9)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.stale_after_ms = 30.0;  // anything older than 30ms counts stale
  StartServerWithConfig(std::move(config), store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Ingest has "stalled" for 60ms: the answer still comes back (degraded
  // serving), its staleness says how old the snapshot is, and the stale
  // counter ticks.
  Query query;
  query.kind = QueryKind::kAggregate;
  auto result = client->Execute(query, 2000.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->staleness_ms, 30.0);
  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(text.find("condensa_query_stale_served_total 1"),
            std::string::npos)
      << text;

  // A fresh Publish resets the age; the next answer is not stale.
  QuerySnapshot fresh;
  fresh.dim = 2;
  fresh.pools.push_back({-1, MakeGroups(0.0, 9)});
  store->Publish(std::move(fresh));
  auto after = client->Execute(query, 2000.0);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->staleness_ms, 30.0);
  obs::DefaultRegistry().Reset();
}

TEST_F(QueryServerTest, ServesConcurrentSessions) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 10)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.max_sessions = 4;
  StartServerWithConfig(std::move(config), store);

  std::vector<std::thread> workers;
  std::atomic<int> answered{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([this, &answered] {
      auto client =
          QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 20; ++i) {
        Query query;
        query.kind = QueryKind::kAggregate;
        auto result = client->Execute(query, 2000.0);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->aggregate.records, 12u);
        answered.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(answered.load(), 80);
}

TEST_F(QueryServerTest, InflightCapShedsWithOverloadReason) {
  obs::DefaultRegistry().Reset();
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 11)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.max_sessions = 4;
  config.max_inflight = 1;  // one request at a time, no queueing
  StartServerWithConfig(std::move(config), store);

  // Stall every execution long enough that concurrent requests collide
  // on the single in-flight slot.
  FailPoint::Arm("query.execute",
                 {.repeat = static_cast<std::size_t>(-1),
                  .mode = FailPointMode::kLatency, .latency_ms = 100.0});
  std::vector<std::thread> workers;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([this, &ok_count, &shed_count] {
      auto client =
          QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
      ASSERT_TRUE(client.ok());
      Query query;
      query.kind = QueryKind::kAggregate;
      auto result = client->Execute(query, 3000.0);
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
            << result.status().ToString();
        shed_count.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  FailPoint::Reset();
  // At least one request got through and at least one hit the cap.
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(shed_count.load(), 1);
  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(text.find("condensa_query_rejected_total{reason=\"overload\"}"),
            std::string::npos)
      << text;
  obs::DefaultRegistry().Reset();
}

// Every execution stalls 5 ms (the "query.execute" latency fail point),
// standing in for the per-query work of a loaded server. One session is
// then latency-bound; eight sessions overlap their waits in the session
// pool, so they must get at least 3x the throughput. The gain is latency
// hiding, so it holds on one core.
TEST_F(QueryServerTest, EightSessionsServeThreeTimesTheThroughputOfOne) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({0, MakeGroups(-3.0, 12)});
  snapshot.pools.push_back({1, MakeGroups(3.0, 13)});
  store->Publish(std::move(snapshot));
  FailPoint::Arm("query.execute",
                 {.repeat = static_cast<std::size_t>(-1),
                  .mode = FailPointMode::kLatency, .latency_ms = 5.0});

  // Aggregates answered per second when `sessions` clients run closed
  // loops for one second against a server sized to them.
  auto ops_per_second = [&](std::size_t sessions) {
    QueryServerConfig config;
    config.poll_ms = 10.0;
    config.max_sessions = sessions;
    config.max_inflight = 16;
    StartServerWithConfig(std::move(config), store);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < sessions; ++c) {
      clients.emplace_back([this, until, &answered] {
        auto client =
            QueryClient::Connect("127.0.0.1", server_->port(), 5000.0);
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        Query aggregate;
        aggregate.kind = QueryKind::kAggregate;
        while (std::chrono::steady_clock::now() < until) {
          auto result = client->Execute(aggregate, 5000.0);
          if (result.ok()) {
            answered.fetch_add(1);
          } else {
            // Shed by the in-flight cap: counted as not served.
            ASSERT_EQ(result.status().code(), StatusCode::kUnavailable)
                << result.status().ToString();
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    StopServer();
    return answered.load() / elapsed.count();
  };
  const double one = ops_per_second(1);
  const double eight = ops_per_second(8);
  FailPoint::Reset();
  EXPECT_GE(eight, 3.0 * one)
      << "1 session: " << one << " ops/s, 8 sessions: " << eight << " ops/s";
}

TEST_F(QueryServerTest, RetryingClientSurvivesSessionCapRejection) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 12)});
  store->Publish(std::move(snapshot));
  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.max_sessions = 2;
  StartServerWithConfig(std::move(config), store);

  // Saturate both session slots with idle-but-open clients.
  auto holder1 = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  auto holder2 = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(holder1.ok());
  ASSERT_TRUE(holder2.ok());
  Query warm;
  warm.kind = QueryKind::kAggregate;
  ASSERT_TRUE(holder1->Execute(warm, 2000.0).ok());
  ASSERT_TRUE(holder2->Execute(warm, 2000.0).ok());

  // A third client is rejected in-band (kUnavailable); with retry it
  // succeeds once a slot frees up mid-call.
  auto third = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(third.ok());
  std::thread releaser([&holder1] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    holder1->Close();
  });
  QueryRetryOptions retry;
  retry.max_attempts = 20;
  retry.deadline_ms = 5000.0;
  retry.backoff.initial_backoff_ms = 50.0;
  retry.backoff.max_backoff_ms = 100.0;
  QueryRetryStats stats;
  auto result = third->ExecuteWithRetry(warm, retry, &stats);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->aggregate.records, 12u);
  EXPECT_GE(stats.attempts, 1u);
}

TEST_F(QueryServerTest, RetryingClientRedialsAfterTransportLoss) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 13)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  Query query;
  query.kind = QueryKind::kAggregate;
  ASSERT_TRUE(client->Execute(query, 2000.0).ok());

  // Sabotage the transport: the next send fails, the client's retry
  // path redials and the call still succeeds.
  FailPoint::Arm("net.send", {.code = StatusCode::kUnavailable});
  QueryRetryOptions retry;
  retry.max_attempts = 4;
  retry.backoff.initial_backoff_ms = 5.0;
  QueryRetryStats stats;
  auto result = client->ExecuteWithRetry(query, retry, &stats);
  FailPoint::Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(stats.redials, 1u);
  EXPECT_GE(stats.attempts, 2u);
}

TEST_F(QueryServerTest, NonRetryableInBandErrorsAreNotRetried) {
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  snapshot.pools.push_back({-1, MakeGroups(0.0, 14)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok());
  Query bad;
  bad.kind = QueryKind::kAggregate;
  bad.aggregate.range.bounds.push_back({9, 0.0, 1.0});  // dim out of range
  QueryRetryOptions retry;
  retry.max_attempts = 5;
  QueryRetryStats stats;
  auto result = client->ExecuteWithRetry(bad, retry, &stats);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.attempts, 1u);  // deterministic error: one attempt only
}

TEST_F(QueryServerTest, OversizedRegenerateGetsAnErrorAndTheServerSurvives) {
  // One d = 10 group: 900,000 records of it encode to ~72 MB, past the
  // 64 MiB frame cap, and 2^20 + 1 is past the wire's record cap.
  constexpr std::size_t kDim = 10;
  Rng rng(15);
  GroupStatistics group(kDim);
  for (std::size_t r = 0; r < 4; ++r) {
    Vector record(kDim);
    for (std::size_t d = 0; d < kDim; ++d) record[d] = rng.Gaussian();
    group.Add(record);
  }
  CondensedGroupSet groups(kDim, 4);
  groups.AddGroup(std::move(group));
  auto store = std::make_shared<SnapshotStore>();
  QuerySnapshot snapshot;
  snapshot.dim = kDim;
  snapshot.pools.push_back({-1, std::move(groups)});
  store->Publish(std::move(snapshot));
  StartServer(store);

  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.records_per_group = 900000;
  {
    auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto result = client->Execute(query, 5000.0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();

    // Past the record cap the request itself is malformed.
    query.regenerate.records_per_group = net::kMaxRecordsPerSubmit + 1;
    result = client->Execute(query, 5000.0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << result.status().ToString();
  }

  // The server is still up: a fresh connection gets answers, and the
  // largest answer that fits a frame is served in full.
  auto client = QueryClient::Connect("127.0.0.1", server_->port(), 2000.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Query aggregate;
  aggregate.kind = QueryKind::kAggregate;
  auto answer = client->Execute(aggregate, 5000.0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->aggregate.records, 4u);

  query.regenerate.records_per_group = 1000;
  auto records = client->Execute(query, 5000.0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->regenerate.records.size(), 1000u);
}

}  // namespace
}  // namespace condensa::query
