// query_serve: the read side. An in-process QueryServer on loopback
// serves one fixed snapshot of a 100k x 10 labeled condensation; client
// connections run a closed loop over a fixed list that holds as many
// classify as aggregate and regenerate queries, interleaved. Nothing
// condenses or checkpoints in the timed loop: the query engine, the
// eigen cache and the frame codec do the work.
//
// The query shapes follow bench/query_scale, the repository's own query
// benchmark: classify asks for 3 neighbours, aggregate selects a
// half-space, regenerate draws one record per selected group from a
// working set the eigen cache holds ("the cache must hold the full
// working set for the steady-state measurement", as there). The equal
// mix of kinds, the connection count, the number of distinct queries,
// the 32 points of a classify query and the group share of a regenerate
// range are this benchmark's own choices, not taken from any trace.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/random.h"
#include "core/engine.h"
#include "metrics/compatibility.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/server.h"
#include "query/snapshot.h"
#include "query/wire.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

using condensa::query::Query;
using condensa::query::QueryKind;
using condensa::query::QueryResult;

constexpr std::size_t kRecords = 100000;
constexpr std::size_t kDim = 10;
constexpr std::size_t kClasses = 3;
constexpr std::size_t kGroupSize = 10;
// Set-ups timed before the served one, and again after the timed loop,
// so the samples come from both ends of the run.
constexpr int kSetupRepeats = 2;
// Distinct queries of each kind: enough that the costs of one kind form a
// smooth distribution. With a few, a percentile falls into the gap
// between two queries' costs and flips between them from round to round.
constexpr std::size_t kQueriesPerKind = 64;
constexpr QueryKind kKinds[] = {QueryKind::kClassify, QueryKind::kAggregate,
                                QueryKind::kRegenerate};
constexpr std::size_t kClassifyPoints = 32;
constexpr std::size_t kNeighbors = 3;
// Share of all groups one regenerate range selects: 64 ranges of 1/8%
// touch at most ~800 groups, inside the server's default 1024-entry
// eigen cache, and one record per group keeps every answer to one
// socket write.
constexpr double kRegenerateShare = 0.00125;
constexpr std::size_t kConnections = 2;
// Round trips per round: over all connections at once, then on one
// connection alone.
constexpr std::size_t kConcurrentPerRound = 1000;
constexpr std::size_t kSequentialPerRound = 200;
constexpr double kTimeoutMs = 30000.0;
// Traced run: repetitions of the query list for the in-process execute
// times.
constexpr std::size_t kSingleReps = 10;

// Sorted centroid coordinates of every group on dimension `dim`.
std::vector<double> SortedCenters(
    const condensa::query::QuerySnapshot& snapshot, std::size_t dim) {
  std::vector<double> centers;
  for (const auto& pool : snapshot.pools) {
    for (const auto& group : pool.groups.groups()) {
      centers.push_back(group.Centroid()[dim]);
    }
  }
  std::sort(centers.begin(), centers.end());
  return centers;
}

// A range on one dimension whose window of sorted group centroids covers
// `share` of the groups, starting at a random group.
condensa::query::RangePredicate RandomWindow(
    const condensa::query::QuerySnapshot& snapshot, double share,
    condensa::Rng& rng) {
  const std::size_t dim = rng.UniformIndex(kDim);
  const std::vector<double> centers = SortedCenters(snapshot, dim);
  const std::size_t width = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * centers.size()));
  const std::size_t lo = rng.UniformIndex(centers.size() - width + 1);
  condensa::query::RangePredicate range;
  range.bounds.push_back({dim, centers[lo], centers[lo + width - 1]});
  return range;
}

// The half-space below or above the median centroid on a random
// dimension: about half of the groups.
condensa::query::RangePredicate RandomHalfSpace(
    const condensa::query::QuerySnapshot& snapshot, condensa::Rng& rng) {
  const std::size_t dim = rng.UniformIndex(kDim);
  const std::vector<double> centers = SortedCenters(snapshot, dim);
  const double median = centers[centers.size() / 2];
  condensa::query::RangePredicate range;
  if (rng.UniformIndex(2) == 0) {
    range.bounds.push_back({dim, centers.front(), median});
  } else {
    range.bounds.push_back({dim, median, centers.back()});
  }
  return range;
}

// kQueriesPerKind queries of each kind, interleaved: classify,
// aggregate, regenerate, classify, ...
std::vector<Query> MakeQueries(const condensa::query::QuerySnapshot& snapshot,
                               std::uint64_t seed) {
  condensa::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // Classify points: fresh draws of the input's mixture.
  const condensa::data::Dataset points =
      MakeRecords(kQueriesPerKind * kClassifyPoints, kDim, kClasses,
                  /*labeled=*/false, seed + 1);
  std::vector<Query> queries;
  for (std::size_t i = 0; i < kQueriesPerKind; ++i) {
    for (QueryKind kind : kKinds) {
      Query q;
      q.kind = kind;
      switch (kind) {
        case QueryKind::kClassify:
          q.classify.neighbors = kNeighbors;
          for (std::size_t p = 0; p < kClassifyPoints; ++p) {
            q.classify.points.push_back(
                points.record(i * kClassifyPoints + p));
          }
          break;
        case QueryKind::kAggregate:
          q.aggregate.range = RandomHalfSpace(snapshot, rng);
          break;
        case QueryKind::kRegenerate:
          q.regenerate.range = RandomWindow(snapshot, kRegenerateShare, rng);
          q.regenerate.seed = seed + i;
          q.regenerate.records_per_group = 1;
          break;
      }
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

// Numbers in an answer, each counted as 8 bytes: the content the wire
// encoding carries.
double AnswerBytes(const QueryResult& r) {
  std::size_t values = 0;
  switch (r.kind) {
    case QueryKind::kClassify:
      values = r.classify.labels.size();
      break;
    case QueryKind::kAggregate:
      values = 2 + r.aggregate.mean.dim() +
               r.aggregate.covariance.values().size();
      break;
    case QueryKind::kRegenerate:
      values = 1;
      for (const auto& rec : r.regenerate.records) values += rec.dim();
      break;
  }
  return 8.0 * static_cast<double>(values);
}

// One round. `ops` and `loop` are the concurrent phase's round trips and
// cost, `wall_us` its wall-clock microseconds per round trip; `cpu_us`
// are the process CPU microseconds per round trip of the one-connection
// phase, `cpu_kind` the kind of each of those queries.
struct Round {
  double ops = 0.0;
  Cost loop;
  std::vector<double> cpu_us;
  std::vector<QueryKind> cpu_kind;
  std::vector<double> wall_us;
  std::uint64_t io_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t sheds = 0;
};

// One condense + Publish + QueryServer::Create: the server's set-up.
struct Served {
  std::shared_ptr<condensa::query::SnapshotStore> store;
  std::unique_ptr<condensa::query::QueryServer> server;
  double condense_s = 0.0;
};

condensa::StatusOr<Served> SetUp(const condensa::data::Dataset& input,
                                 std::uint64_t seed, std::size_t threads) {
  Served s;
  condensa::core::CondensationConfig config;
  config.group_size = kGroupSize;
  config.mode = condensa::core::CondensationMode::kStatic;
  config.num_threads = threads;
  condensa::core::CondensationEngine engine(config);
  condensa::Rng rng(seed);
  condensa::StatusOr<condensa::core::CondensedPools> pools =
      condensa::InternalError("not run");
  s.condense_s =
      Timed("core.condense", [&] { pools = engine.Condense(input, rng); })
          .cpu;
  CONDENSA_RETURN_IF_ERROR(pools.status());
  s.store = std::make_shared<condensa::query::SnapshotStore>();
  Timed("query.publish", [&] {
    s.store->Publish(condensa::query::SnapshotFromPools(*pools));
  });
  condensa::query::QueryServerConfig server_config;
  server_config.poll_ms = 20.0;
  server_config.max_sessions = kConnections;
  server_config.max_inflight = kConnections;
  condensa::StatusOr<std::unique_ptr<condensa::query::QueryServer>> server =
      condensa::InternalError("not run");
  Timed("query.server_create", [&] {
    server = condensa::query::QueryServer::Create(server_config, s.store);
  });
  CONDENSA_RETURN_IF_ERROR(server.status());
  s.server = std::move(*server);
  return s;
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kClassify:
      return "classify";
    case QueryKind::kAggregate:
      return "aggregate";
    case QueryKind::kRegenerate:
      return "regenerate";
  }
  return "?";
}

}  // namespace

Outcome RunQueryServe(const RunOptions& options) {
  Outcome outcome;
  const std::size_t threads =
      std::min<std::size_t>(4, options.hardware_threads);
  const condensa::data::Dataset input =
      MakeRecords(kRecords, kDim, kClasses, /*labeled=*/true, options.seed);

  // Set-up, several times; the last one before the loop serves.
  std::vector<double> setups, condenses;
  Served served;
  auto time_setup = [&] {
    condensa::StatusOr<Served> s = condensa::InternalError("not run");
    setups.push_back(Timed("setup.serve", [&] {
                       s = SetUp(input, options.seed, threads);
                     }).cpu);
    if (!s.ok()) {
      outcome.Fail("set-up: " + s.status().ToString());
      return false;
    }
    condenses.push_back(s->condense_s);
    served = std::move(*s);
    return true;
  };
  for (int i = 0; i <= kSetupRepeats; ++i) {
    if (!time_setup()) return outcome;
  }
  const std::shared_ptr<const condensa::query::QuerySnapshot> snapshot =
      served.store->Current();
  const std::vector<Query> queries =
      MakeQueries(*snapshot, options.seed);

  // The oracle: the same snapshot and queries through an in-process
  // engine.
  condensa::query::QueryEngine local;
  std::vector<QueryResult> expected;
  double encoded = 0.0, content = 0.0;
  for (const Query& q : queries) {
    auto r = local.Execute(*snapshot, q);
    if (!r.ok()) {
      outcome.Fail("in-process query: " + r.status().ToString());
      return outcome;
    }
    encoded += static_cast<double>(
        condensa::query::EncodeQueryResult(*r).size());
    content += AnswerBytes(*r);
    expected.push_back(std::move(*r));
  }

  condensa::query::QueryServer* server = served.server.get();
  condensa::Status serve_status;
  std::thread serving([server, &serve_status] { serve_status = server->Run(); });

  std::vector<condensa::query::QueryClient> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto client = condensa::query::QueryClient::Connect(
        "127.0.0.1", server->port(), kTimeoutMs);
    if (!client.ok()) {
      outcome.Fail("connect: " + client.status().ToString());
      break;
    }
    conns.push_back(std::move(*client));
  }

  // Sends queries[next] on connection c, checks the answer against the
  // oracle, and returns the round trip's cost.
  std::vector<std::string> wrong(kConnections);
  std::vector<std::size_t> failed(kConnections, 0);
  auto round_trip = [&](std::size_t c, std::size_t next) {
    condensa::StatusOr<QueryResult> r = condensa::InternalError("");
    const Cost cost = Timed("query.round_trip", [&] {
      r = conns[c].Execute(queries[next], kTimeoutMs);
    });
    std::string problem =
        r.ok() ? CompareAnswers(*r, expected[next]) : r.status().ToString();
    if (!problem.empty()) {
      ++failed[c];
      if (wrong[c].empty()) wrong[c] = std::move(problem);
    }
    return cost;
  };

  // One round, in two phases. First each connection's load thread sends
  // `per_connection` queries in a closed loop, from its own offset in the
  // query list: the throughput and the wall-clock latency under
  // concurrent load. Then one connection sends `sequential` queries one at
  // a time, continuing through the query list from round to round: with a
  // single query in flight, the process CPU time a round trip spans is
  // exactly that query's client and server work, which concurrent round
  // trips would smear across each other.
  std::size_t sequential_next = 0;
  auto run_round = [&](std::size_t per_connection, std::size_t sequential) {
    Round round;
    std::vector<std::vector<double>> wall_us(kConnections);
    const CounterDeltas cache({"condensa_query_eigen_cache_hits_total",
                               "condensa_query_eigen_cache_misses_total"});
    const std::uint64_t sheds0 = AdmissionSheds();
    const IoCalls io;
    round.loop = Timed("query.round", [&] {
      std::vector<std::thread> load;
      for (std::size_t c = 0; c < kConnections; ++c) {
        load.emplace_back([&, c] {
          std::size_t next = c * queries.size() / kConnections;
          for (std::size_t i = 0; i < per_connection; ++i) {
            wall_us[c].push_back(1e6 * round_trip(c, next).WallLessFsync());
            next = (next + 1) % queries.size();
          }
        });
      }
      for (std::thread& t : load) t.join();
    });
    for (std::size_t i = 0; i < sequential; ++i) {
      round.cpu_us.push_back(1e6 * round_trip(0, sequential_next).cpu);
      round.cpu_kind.push_back(queries[sequential_next].kind);
      sequential_next = (sequential_next + 1) % queries.size();
    }
    round.ops = static_cast<double>(per_connection * kConnections);
    round.io_calls = io.Total();
    round.cache_hits = cache.Delta("condensa_query_eigen_cache_hits_total");
    round.cache_misses =
        cache.Delta("condensa_query_eigen_cache_misses_total");
    round.sheds = AdmissionSheds() - sheds0;
    for (std::size_t c = 0; c < kConnections; ++c) {
      round.wall_us.insert(round.wall_us.end(), wall_us[c].begin(),
                           wall_us[c].end());
    }
    return round;
  };

  std::vector<Round> untraced, traced;
  if (conns.size() == kConnections) {
    // Warm-up: every distinct query on each connection, untimed; fills
    // the server's eigen cache.
    run_round(queries.size(), queries.size());
    RunRounds(options.seconds, options.trace, 1,
              [&](std::size_t) -> std::optional<Round> {
                Round round = run_round(kConcurrentPerRound / kConnections,
                                        kSequentialPerRound);
                outcome.attempted +=
                    static_cast<std::size_t>(round.ops) + round.cpu_us.size();
                return round;
              },
              &untraced, &traced);
  }
  for (auto& c : conns) c.Close();
  server->Stop();
  serving.join();
  if (!serve_status.ok()) outcome.Fail("server: " + serve_status.ToString());
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!time_setup()) return outcome;
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    outcome.failed += failed[c];
    if (!wrong[c].empty()) outcome.Fail(wrong[c]);
  }
  if (untraced.empty()) {
    outcome.Fail("no timed rounds");
    return outcome;
  }

  if (!options.trace) {
    // μ of a release regenerated over the whole snapshot.
    Query all;
    all.kind = QueryKind::kRegenerate;
    all.regenerate.seed = options.seed;
    auto release = local.Execute(*snapshot, all);
    auto mu = release.ok()
                  ? condensa::metrics::CovarianceCompatibility(
                        input, UnlabeledDataset(release->regenerate.records,
                                                kDim))
                  : condensa::StatusOr<double>(release.status());
    if (!mu.ok()) outcome.Fail("release mu: " + mu.status().ToString());

    std::vector<double> p50s, wall_p50s, io_calls;
    std::vector<std::vector<double>> rounds_us;
    for (const Round& r : untraced) {
      p50s.push_back(Median(r.cpu_us));
      wall_p50s.push_back(Median(r.wall_us));
      rounds_us.push_back(r.cpu_us);
      io_calls.push_back(static_cast<double>(r.io_calls) /
                         (r.ops + r.cpu_us.size()));
    }
    auto& v = outcome.values;
    v["setup_s"] = Median(setups);
    v["ops_per_s"] = MedianOpsPerSecond(untraced, &Cost::cpu);
    MedianOpsPerSecond(untraced, &Cost::wall);  // logged for comparison only
    LogSpread("set-up cpu s", setups);
    v["latency_p50_us"] = Median(p50s);
    AddTail(rounds_us, &v);
    v["wall_latency_p50_us"] = Median(wall_p50s);
    v["io_calls_per_op"] = Median(io_calls);
    v["write_amp"] = encoded / content;
    v["release_mu"] = mu.ok() ? *mu : 0.0;
    std::fprintf(stderr, "query_serve: %zu rounds of %zu + %zu queries\n",
                 untraced.size(), kConcurrentPerRound, kSequentialPerRound);
    return outcome;
  }

  // In-process execute times of the same queries on the same snapshot,
  // with a warm cache, to split a kind's round trip into engine and
  // network: the traced rounds' one-connection round trips minus these.
  std::map<QueryKind, std::vector<double>> in_process, single;
  for (std::size_t rep = 0; rep < kSingleReps; ++rep) {
    for (const Query& q : queries) {
      condensa::Status status;
      in_process[q.kind].push_back(1e6 * Timed("query.execute", [&] {
                                         auto r = local.Execute(*snapshot, q);
                                         status = r.status();
                                       }).cpu);
      if (!status.ok()) outcome.Fail("in-process: " + status.ToString());
    }
  }
  std::uint64_t hits = 0, misses = 0, sheds = 0;
  for (const Round& r : traced) {
    for (std::size_t i = 0; i < r.cpu_us.size(); ++i) {
      single[r.cpu_kind[i]].push_back(r.cpu_us[i]);
    }
    hits += r.cache_hits;
    misses += r.cache_misses;
    sheds += r.sheds;
  }
  auto& v = outcome.values;
  v["core.condense_s"] = Median(condenses);
  for (QueryKind kind : kKinds) {
    const double execute = Median(in_process[kind]);
    v[std::string("query.") + KindName(kind) + "_p50_us"] = execute;
    v[std::string("net.") + KindName(kind) + "_overhead_p50_us"] =
        Median(single[kind]) - execute;
  }
  v["query.eigen_cache_hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  v["runtime.admission_shed"] = static_cast<double>(sheds);
  AddTraceOverhead(untraced, traced, &v);
  return outcome;
}

}  // namespace perfbench
