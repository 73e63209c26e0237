// Read-path chaos soak: the query tier under every stress the PR
// hardens it against, at once, asserting ZERO WRONG ANSWERS.
//
//   * client churn — retrying clients connecting, querying, and closing
//     in a loop across more threads than the session cap;
//   * slow-loris connections that trickle partial frame headers and must
//     be reclaimed by the idle timeout, never wedging a session slot;
//   * overload — an in-flight cap far below the offered load, so a
//     steady fraction of requests is shed in-band with kUnavailable;
//   * engine latency chaos — a "query.execute" failpoint armed and
//     reset concurrently with serving;
//   * concurrent ingest — a publisher thread swapping new snapshot
//     versions under the running server;
//   * process death — SIGKILL of a `condensa query-server` process
//     (cli_process.h) mid-load and a respawn on the same port, which
//     retrying clients must ride through, and which every respawned
//     server must answer.
//
// The correctness oracle: every snapshot version v is built by
// PublishVersion so that its aggregate record count is ExpectedRecords(v),
// a pure function of v; a spawned server serves one pools file, so its
// oracle is that file's record count. Any successful answer whose records
// don't match the oracle is a wrong answer and fails the test
// immediately. Everything else a request may legally experience —
// in-band kUnavailable after retries, a transport error during the kill
// window — is counted, not failed.
//
// Duration scales with CONDENSA_CHAOS_SOAK_SECONDS (default ~2s).

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_process.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"
#include "core/group_statistics.h"
#include "core/serialization.h"
#include "linalg/vector.h"
#include "net/socket.h"
#include "query/client.h"
#include "query/query.h"
#include "query/server.h"
#include "query/snapshot.h"

namespace condensa::query {
namespace {

using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Vector;

double SoakSeconds() {
  if (const char* env = std::getenv("CONDENSA_CHAOS_SOAK_SECONDS")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0) return parsed;
  }
  return 2.0;
}

constexpr std::size_t kGroupsPerPool = 3;
constexpr std::size_t kRecordsPerGroup = 4;

// The number of pools version v carries: 1..8, cycling, so snapshots
// stay cheap to build no matter how long the soak runs.
std::size_t PoolsForVersion(std::uint64_t version) {
  return static_cast<std::size_t>((version - 1) % 8) + 1;
}

// The oracle: total records any aggregate over snapshot version v must
// report. Pure function of v — no shared bookkeeping with the clients.
std::size_t ExpectedRecords(std::uint64_t version) {
  return PoolsForVersion(version) * kGroupsPerPool * kRecordsPerGroup;
}

CondensedGroupSet MakePool(double center, std::uint64_t seed) {
  Rng rng(seed);
  CondensedGroupSet groups(2, kRecordsPerGroup);
  for (std::size_t g = 0; g < kGroupsPerPool; ++g) {
    GroupStatistics stats(2);
    for (std::size_t r = 0; r < kRecordsPerGroup; ++r) {
      Vector record(2);
      record[0] = center + rng.Gaussian(0.0, 0.2);
      record[1] = double(g) + rng.Gaussian(0.0, 0.2);
      stats.Add(record);
    }
    groups.AddGroup(std::move(stats));
  }
  return groups;
}

QuerySnapshot SnapshotForVersion(std::uint64_t version) {
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  const std::size_t pools = PoolsForVersion(version);
  for (std::size_t p = 0; p < pools; ++p) {
    snapshot.pools.push_back(
        {static_cast<int>(p), MakePool(double(p), 100 + p)});
  }
  return snapshot;
}

struct SoakCounters {
  std::atomic<std::size_t> answers{0};
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> shed{0};       // in-band kUnavailable
  std::atomic<std::size_t> transport{0};  // connection-level failures
};

// Answers per server generation, for a server that is killed and
// respawned. The reaper moves to the next generation only after the old
// server is dead and before the new one starts, so an answer to a
// request sent and received within one generation came from that
// generation's server.
class Generations {
 public:
  std::size_t current() const { return current_.load(); }

  // Counts an answer to a request sent in generation `sent_in`, unless
  // the server changed before it came back.
  void Answered(std::size_t sent_in) {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_.load() == sent_in) ++answers_[sent_in];
  }

  // Called between the kill and the respawn.
  void Next() {
    std::lock_guard<std::mutex> lock(mu_);
    answers_.push_back(0);
    current_.store(answers_.size() - 1);
  }

  std::vector<std::size_t> answers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return answers_;
  }

 private:
  std::atomic<std::size_t> current_{0};
  mutable std::mutex mu_;
  std::vector<std::size_t> answers_ = {0};
};

// One churn client: connect, issue retrying aggregates while `running`
// says so, periodically drop the connection on purpose. Any successful
// answer is checked against `expected_records` of its snapshot version
// and, when `generations` is set, counted for the server generation
// that gave it.
void ChurnClient(std::uint16_t port, std::uint64_t seed,
                 const std::function<bool()>& running,
                 const std::function<std::size_t(std::uint64_t)>&
                     expected_records,
                 SoakCounters& counters, Generations* generations = nullptr) {
  Rng rng(seed);
  while (running()) {
    auto client = QueryClient::Connect("127.0.0.1", port, 2000.0);
    if (!client.ok()) {
      counters.transport.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    // A burst of requests on this session, then churn.
    const std::size_t burst = 1 + rng.UniformIndex(8);
    for (std::size_t i = 0; i < burst; ++i) {
      if (!running()) break;
      const std::size_t sent_in =
          generations == nullptr ? 0 : generations->current();
      Query query;
      query.kind = QueryKind::kAggregate;
      QueryRetryOptions retry;
      retry.max_attempts = 6;
      retry.deadline_ms = 2000.0;
      retry.jitter_seed = seed * 1000 + i;
      auto result = client->ExecuteWithRetry(query, retry);
      if (result.ok()) {
        counters.answers.fetch_add(1);
        if (generations != nullptr) generations->Answered(sent_in);
        const std::size_t want = expected_records(result->snapshot_version);
        if (result->aggregate.records != want) {
          counters.wrong.fetch_add(1);
          ADD_FAILURE() << "wrong answer: version "
                        << result->snapshot_version << " reported "
                        << result->aggregate.records << " records, want "
                        << want;
        }
      } else if (result.status().code() == StatusCode::kUnavailable) {
        counters.shed.fetch_add(1);
      } else {
        counters.wrong.fetch_add(1);
        ADD_FAILURE() << "non-retryable failure from a valid query: "
                      << result.status().ToString();
      }
      if (!client->ok()) break;  // transport loss: churn to a fresh dial
    }
  }
}

// A slow-loris attacker: dials, trickles a few bytes that never complete
// a frame header, and holds the socket open. The idle timeout must
// reclaim the session slot; the victim never takes a slot hostage.
void SlowLoris(std::uint16_t port,
               std::chrono::steady_clock::time_point until) {
  while (std::chrono::steady_clock::now() < until) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", port, 500.0);
    if (!conn.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // Raw partial garbage: half a header, then silence.
    (void)::send(conn->fd(), "CND", 3, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    conn->Close();
  }
}

TEST(QueryChaosSoakTest, ConcurrentChurnUnderChaosYieldsNoWrongAnswers) {
  FailPoint::Reset();
  const double seconds = SoakSeconds();
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000.0));

  auto store = std::make_shared<SnapshotStore>();
  ASSERT_EQ(store->Publish(SnapshotForVersion(1)), 1u);
  std::atomic<std::uint64_t> version{1};

  QueryServerConfig config;
  config.poll_ms = 10.0;
  config.idle_timeout_ms = 80.0;  // fast enough to starve the loris
  config.max_sessions = 4;
  config.max_inflight = 2;  // well below offered load: real sheds
  config.stale_after_ms = 50.0;
  auto server = QueryServer::Create(config, store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::thread serving(
      [raw = server->get()] { EXPECT_TRUE(raw->Run().ok()); });
  const std::uint16_t port = (*server)->port();

  SoakCounters counters;
  std::vector<std::thread> threads;
  const std::function<bool()> running = [until] {
    return std::chrono::steady_clock::now() < until;
  };
  const std::function<std::size_t(std::uint64_t)> oracle = ExpectedRecords;
  for (std::uint64_t c = 0; c < 6; ++c) {
    threads.emplace_back(ChurnClient, port, 71 + c, std::cref(running),
                         std::cref(oracle), std::ref(counters), nullptr);
  }
  threads.emplace_back(SlowLoris, port, until);

  // Concurrent ingest: keep publishing fresh versions while serving.
  threads.emplace_back([&store, &version, until] {
    while (std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      const std::uint64_t next = version.load() + 1;
      const std::uint64_t assigned =
          store->Publish(SnapshotForVersion(next));
      EXPECT_EQ(assigned, next);
      version.store(next);
    }
  });

  // Engine latency chaos: periodically make a handful of executions
  // slow, then let the path breathe again. Armed and reset live,
  // concurrently with requests in flight.
  threads.emplace_back([until] {
    Rng rng(99);
    while (std::chrono::steady_clock::now() < until) {
      FailPoint::Arm("query.execute",
                     {.repeat = 3, .mode = FailPointMode::kLatency,
                      .latency_ms = rng.Uniform(30.0, 70.0)});
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      FailPoint::Disarm("query.execute");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FailPoint::Disarm("query.execute");
  });

  for (std::thread& t : threads) t.join();
  (*server)->Stop();
  serving.join();
  FailPoint::Reset();

  // The soak must have done real work and returned zero wrong answers.
  EXPECT_EQ(counters.wrong.load(), 0u);
  EXPECT_GE(counters.answers.load(), 20u)
      << "soak served suspiciously few answers";
  EXPECT_GT(version.load(), 2u) << "publisher never rolled the snapshot";
}

TEST(QueryChaosSoakTest, SigkillAndRespawnMidLoadNeverYieldsWrongAnswers) {
  FailPoint::Reset();
  const double seconds = SoakSeconds();
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000.0));

  // The served file, written with SavePools: each spawned server loads
  // it, so the soak also carries the pools format across a process
  // boundary. Every aggregate must report the file's record count.
  const std::string path =
      ::testing::TempDir() + "/condensa_query_chaos_pools.bin";
  core::CondensedPools pools;
  pools.task = data::TaskType::kClassification;
  pools.feature_dim = 2;
  for (std::size_t p = 0; p < 3; ++p) {
    pools.pools.push_back(
        {static_cast<int>(p), 0, MakePool(double(p), 100 + p)});
  }
  ASSERT_TRUE(core::SavePools(pools, path).ok());
  auto saved = core::LoadPools(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  std::size_t file_records = 0;
  for (const core::CondensedPools::Pool& pool : saved->pools) {
    file_records += pool.groups.TotalRecords();
  }
  ASSERT_EQ(file_records, 3 * kGroupsPerPool * kRecordsPerGroup);

  const auto spawn = [&path](std::uint16_t port) {
    return CliProcess::Spawn({"query-server", "--groups=" + path,
                              "--port=" + std::to_string(port),
                              "--max-sessions=4"});
  };
  auto first = spawn(0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::uint16_t port = first->port();
  CliProcess server = *std::move(first);

  SoakCounters counters;
  Generations generations;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> kills{0};
  const std::function<bool()> running = [&stop] { return !stop.load(); };
  const std::function<std::size_t(std::uint64_t)> oracle =
      [file_records](std::uint64_t) { return file_records; };
  std::vector<std::thread> threads;
  for (std::uint64_t c = 0; c < 3; ++c) {
    threads.emplace_back(ChurnClient, port, 171 + c, std::cref(running),
                         std::cref(oracle), std::ref(counters),
                         &generations);
  }

  // The reaper: once the serving process has answered (or a generous
  // wait has passed), SIGKILL it mid-load, wait a beat, then respawn it
  // on the SAME port. Clients must ride through on redial. The clients
  // stop once the last generation has had its chance to answer.
  std::thread reaper([&] {
    const auto await_answer = [&generations] {
      const std::size_t generation = generations.current();
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (generations.answers()[generation] == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    };
    while (true) {
      await_answer();
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      if (std::chrono::steady_clock::now() >= until) break;
      server.Kill();
      kills.fetch_add(1);
      generations.Next();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      auto respawned = spawn(port);
      if (!respawned.ok()) {
        ADD_FAILURE() << "respawn failed: " << respawned.status().ToString();
        break;
      }
      server = *std::move(respawned);
    }
    stop.store(true);
  });

  for (std::thread& t : threads) t.join();
  reaper.join();
  server.Kill();
  std::remove(path.c_str());

  EXPECT_EQ(counters.wrong.load(), 0u);
  EXPECT_GE(counters.answers.load(), 10u)
      << "soak served suspiciously few answers across restarts";
  EXPECT_GE(kills.load(), 1u) << "the reaper never killed the server";
  const std::vector<std::size_t> answers = generations.answers();
  EXPECT_EQ(answers.size(), kills.load() + 1);
  for (std::size_t g = 0; g < answers.size(); ++g) {
    EXPECT_GE(answers[g], 1u) << "server generation " << g << " of "
                              << answers.size() << " never answered";
  }
}

}  // namespace
}  // namespace condensa::query
