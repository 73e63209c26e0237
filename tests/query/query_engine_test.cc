// QueryEngine: exactness of aggregates, centroid kNN classification,
// and deterministic cached regeneration (bit-identical to Anonymizer).

#include "query/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/anonymizer.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "query/wire.h"

namespace condensa::query {
namespace {

using condensa::core::Anonymizer;
using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Vector;

Vector MakePoint(std::initializer_list<double> values) {
  Vector v(values.size());
  std::size_t i = 0;
  for (double value : values) v[i++] = value;
  return v;
}

GroupStatistics MakeGroupAround(const Vector& center, std::size_t count,
                                std::uint64_t seed) {
  Rng rng(seed);
  GroupStatistics group(center.dim());
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(center.dim());
    for (std::size_t d = 0; d < center.dim(); ++d) {
      record[d] = center[d] + rng.Gaussian(0.0, 0.3);
    }
    group.Add(record);
  }
  return group;
}

// Two labeled pools, well separated along dimension 0.
QuerySnapshot TwoClassSnapshot(std::size_t groups_per_pool = 3,
                               std::size_t records_per_group = 5) {
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  CondensedGroupSet negative(2, records_per_group);
  CondensedGroupSet positive(2, records_per_group);
  for (std::size_t g = 0; g < groups_per_pool; ++g) {
    negative.AddGroup(MakeGroupAround(MakePoint({-5.0, double(g)}),
                                      records_per_group, 10 + g));
    positive.AddGroup(MakeGroupAround(MakePoint({5.0, double(g)}),
                                      records_per_group, 20 + g));
  }
  snapshot.pools.push_back({0, std::move(negative)});
  snapshot.pools.push_back({1, std::move(positive)});
  return snapshot;
}

TEST(QueryEngineTest, AggregateIsBitIdenticalToMomentFold) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;

  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Reference: the same fold over the same groups in the same order. Six
  // groups fill one leaf of the snapshot index's moment trees, so a
  // match-all range folds them in ascending order of their dimension-0
  // centroid coordinate (query/snapshot.h).
  std::vector<const GroupStatistics*> order;
  for (const LabeledGroups& pool : snapshot.pools) {
    for (const GroupStatistics& group : pool.groups.groups()) {
      order.push_back(&group);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const GroupStatistics* a, const GroupStatistics* b) {
                     return a->Centroid()[0] < b->Centroid()[0];
                   });
  GroupStatistics folded(snapshot.dim);
  for (const GroupStatistics* group : order) folded.Merge(*group);
  EXPECT_EQ(result->aggregate.groups_matched, 6u);
  EXPECT_EQ(result->aggregate.records, folded.count());
  ASSERT_TRUE(result->aggregate.has_moments);
  Vector mean = folded.Centroid();
  auto covariance = folded.Covariance();
  for (std::size_t d = 0; d < snapshot.dim; ++d) {
    // Exact double equality: both sides ARE the same computation.
    EXPECT_EQ(result->aggregate.mean[d], mean[d]);
    for (std::size_t e = 0; e < snapshot.dim; ++e) {
      EXPECT_EQ(result->aggregate.covariance(d, e), covariance(d, e));
    }
  }
}

TEST(QueryEngineTest, RangeSelectsByCentroidBox) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range.bounds.push_back({0, 0.0, 10.0});

  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok());
  // Only the positive pool's centroids sit in [0, 10] on dim 0.
  EXPECT_EQ(result->aggregate.groups_matched, 3u);

  GroupStatistics folded(snapshot.dim);
  for (const GroupStatistics& group : snapshot.pools[1].groups.groups()) {
    folded.Merge(group);
  }
  EXPECT_EQ(result->aggregate.records, folded.count());
  EXPECT_EQ(result->aggregate.mean[0], folded.Centroid()[0]);
}

TEST(QueryEngineTest, EmptySelectionHasNoMoments) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range.bounds.push_back({0, 50.0, 60.0});

  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->aggregate.groups_matched, 0u);
  EXPECT_EQ(result->aggregate.records, 0u);
  EXPECT_FALSE(result->aggregate.has_moments);
}

TEST(QueryEngineTest, RangeValidationRejectsBadBounds) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range.bounds.push_back({7, 0.0, 1.0});  // dim out of range
  auto result = engine.Execute(snapshot, query);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  query.aggregate.range.bounds.clear();
  query.aggregate.range.bounds.push_back({0, 2.0, 1.0});  // lo > hi
  result = engine.Execute(snapshot, query);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, ClassifiesPointsToNearestCentroidLabel) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({-5.0, 1.0}));
  query.classify.points.push_back(MakePoint({5.0, 2.0}));
  query.classify.points.push_back(MakePoint({-4.0, 0.0}));
  query.classify.neighbors = 3;

  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->classify.labels.size(), 3u);
  EXPECT_EQ(result->classify.labels[0], 0);
  EXPECT_EQ(result->classify.labels[1], 1);
  EXPECT_EQ(result->classify.labels[2], 0);
}

TEST(QueryEngineTest, VotesAreWeightedByGroupMass) {
  // One tiny group of label 1 sits nearest; a huge label-0 group is a
  // bit farther. With neighbors = 2 the mass-weighted vote must go to
  // the heavy group — each group speaks for all its records.
  QuerySnapshot snapshot;
  snapshot.dim = 1;
  CondensedGroupSet light(1, 1), heavy(1, 1);
  GroupStatistics tiny(1);
  tiny.Add(MakePoint({1.0}));
  light.AddGroup(std::move(tiny));
  GroupStatistics big(1);
  for (int i = 0; i < 50; ++i) {
    big.Add(MakePoint({2.0 + 0.001 * i}));
  }
  heavy.AddGroup(std::move(big));
  snapshot.pools.push_back({1, std::move(light)});
  snapshot.pools.push_back({0, std::move(heavy)});

  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({0.5}));
  query.classify.neighbors = 2;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->classify.labels[0], 0);

  // With a single neighbour the nearest (tiny) group wins.
  query.classify.neighbors = 1;
  result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->classify.labels[0], 1);
}

TEST(QueryEngineTest, ClassifyRejectsBadInputs) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({1.0}));  // wrong dim
  auto result = engine.Execute(snapshot, query);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  query.classify.points.clear();
  query.classify.points.push_back(MakePoint({1.0, 2.0}));
  query.classify.neighbors = 0;
  result = engine.Execute(snapshot, query);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // A snapshot with only unlabeled pools cannot classify.
  QuerySnapshot unlabeled;
  unlabeled.dim = 2;
  CondensedGroupSet groups(2, 5);
  groups.AddGroup(MakeGroupAround(MakePoint({0.0, 0.0}), 5, 1));
  unlabeled.pools.push_back({-1, std::move(groups)});
  query.classify.neighbors = 1;
  result = engine.Execute(unlabeled, query);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryEngineTest, ClassifyRejectsNonFinitePoints) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (std::size_t d = 0; d < 2; ++d) {
      Query query;
      query.kind = QueryKind::kClassify;
      query.classify.points.push_back(MakePoint({5.0, 1.0}));
      Vector point = MakePoint({-5.0, 1.0});
      point[d] = bad;
      query.classify.points.push_back(point);
      auto result = engine.Execute(snapshot, query);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "coordinate " << d << " = " << bad;
    }
  }
  // The snapshot still answers finite points.
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({-5.0, 1.0}));
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->classify.labels[0], 0);
}

TEST(QueryEngineTest, ClassifyRefusesNonFiniteLabeledCentroids) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    QuerySnapshot snapshot = TwoClassSnapshot();
    CondensedGroupSet poisoned(2, 5);
    GroupStatistics group(2);
    group.Add(MakePoint({bad, 0.0}));
    poisoned.AddGroup(group);
    snapshot.pools.push_back({2, std::move(poisoned)});

    QueryEngine engine;
    Query query;
    query.kind = QueryKind::kClassify;
    query.classify.points.push_back(MakePoint({5.0, 1.0}));
    auto result = engine.Execute(snapshot, query);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << "centroid coordinate " << bad;

    // An unlabeled pool is never searched, so its centroids do not block
    // classification.
    snapshot.pools.pop_back();
    CondensedGroupSet unlabeled(2, 5);
    unlabeled.AddGroup(group);
    snapshot.pools.push_back({-1, std::move(unlabeled)});
    result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->classify.labels[0], 1);
  }
}

TEST(QueryEngineTest, RangeQueriesRefuseNonFiniteCentroidsInAnyPool) {
  // A NaN key cannot be sorted, and a NaN centroid used to fall inside
  // every range (no comparison with NaN is true).
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (int label : {2, -1}) {
      QuerySnapshot snapshot = TwoClassSnapshot();
      CondensedGroupSet poisoned(2, 5);
      GroupStatistics group(2);
      group.Add(MakePoint({0.0, bad}));
      poisoned.AddGroup(group);
      snapshot.pools.push_back({label, std::move(poisoned)});

      QueryEngine engine;
      Query aggregate;
      aggregate.kind = QueryKind::kAggregate;
      Query bounded = aggregate;
      bounded.aggregate.range.bounds.push_back({0, 4.0, 6.0});
      Query regenerate;
      regenerate.kind = QueryKind::kRegenerate;
      for (const Query& query : {aggregate, bounded, regenerate}) {
        auto result = engine.Execute(snapshot, query);
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << QueryKindName(query.kind) << " with centroid " << bad
            << " in a pool labeled " << label;
      }
    }
  }
}

TEST(QueryEngineTest, RangeQueriesRefuseAPoolOfAnotherDimension) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  CondensedGroupSet wide(3, 5);
  wide.AddGroup(MakeGroupAround(MakePoint({0.0, 0.0, 0.0}), 5, 9));
  snapshot.pools.push_back({-1, std::move(wide)});
  QueryEngine engine;
  Query aggregate;
  aggregate.kind = QueryKind::kAggregate;
  EXPECT_EQ(engine.Execute(snapshot, aggregate).status().code(),
            StatusCode::kFailedPrecondition);
  // Classify never searches the unlabeled pool.
  Query classify;
  classify.kind = QueryKind::kClassify;
  classify.classify.points.push_back(MakePoint({5.0, 1.0}));
  auto result = engine.Execute(snapshot, classify);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->classify.labels, std::vector<int>{1});
}

TEST(QueryEngineTest, ConcurrentFirstClassifiesShareOneIndex) {
  // Readers of a freshly published snapshot race to its first classify:
  // one builds the index, the rest wait for it, and all answer alike.
  SnapshotStore store;
  store.Publish(TwoClassSnapshot(40));
  const std::shared_ptr<const QuerySnapshot> snapshot = store.Current();
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({-5.0, 7.0}));
  query.classify.points.push_back(MakePoint({5.0, 30.0}));
  std::vector<std::vector<int>> labels(4);
  std::vector<std::shared_ptr<const SnapshotIndex>> indexes(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < labels.size(); ++t) {
    readers.emplace_back([&, t] {
      QueryEngine engine;
      auto result = engine.Execute(*snapshot, query);
      if (result.ok()) labels[t] = result->classify.labels;
      indexes[t] = snapshot->GetIndex();
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t t = 0; t < labels.size(); ++t) {
    EXPECT_EQ(labels[t], (std::vector<int>{0, 1})) << "reader " << t;
    EXPECT_EQ(indexes[t], indexes[0]) << "reader " << t;
  }
}

TEST(QueryEngineTest, RegenerateIsDeterministicInTheSeed) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.seed = 1234;

  auto first = engine.Execute(snapshot, query);
  ASSERT_TRUE(first.ok());
  auto second = engine.Execute(snapshot, query);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->regenerate.records.size(),
            second->regenerate.records.size());
  EXPECT_EQ(first->regenerate.records.size(), 30u);  // 6 groups x 5
  for (std::size_t i = 0; i < first->regenerate.records.size(); ++i) {
    for (std::size_t d = 0; d < snapshot.dim; ++d) {
      EXPECT_EQ(first->regenerate.records[i][d],
                second->regenerate.records[i][d]);
    }
  }

  query.regenerate.seed = 1235;
  auto other = engine.Execute(snapshot, query);
  ASSERT_TRUE(other.ok());
  bool differs = false;
  for (std::size_t i = 0; i < other->regenerate.records.size() && !differs;
       ++i) {
    for (std::size_t d = 0; d < snapshot.dim; ++d) {
      if (other->regenerate.records[i][d] !=
          first->regenerate.records[i][d]) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(QueryEngineTest, RegenerateMatchesAnonymizerBitForBit) {
  // A single unlabeled pool regenerated with the engine's cached
  // factorizations must equal Anonymizer::Generate on the same group
  // set with the same seed: both split one substream per group in group
  // order and run core::RegenerateGroup under the set's stamp. One input
  // per built-in record.
  for (const std::string& id : core::BackendIds()) {
    SCOPED_TRACE(id);
    CondensedGroupSet groups(2, 5);
    groups.SetBackend(id, 1);
    for (std::size_t g = 0; g < 4; ++g) {
      groups.AddGroup(
          MakeGroupAround(MakePoint({double(g), -double(g)}), 5, 40 + g));
    }
    QuerySnapshot snapshot = SnapshotFromGroupSet(groups);

    QueryEngine engine;
    Query query;
    query.kind = QueryKind::kRegenerate;
    query.regenerate.seed = 77;
    auto result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Run twice so the second pass answers fully from the cache.
    auto cached = engine.Execute(snapshot, query);
    ASSERT_TRUE(cached.ok());

    Anonymizer anonymizer({.num_threads = 1});
    Rng rng(77);
    auto reference = anonymizer.Generate(groups, rng);
    ASSERT_TRUE(reference.ok());

    ASSERT_EQ(result->regenerate.records.size(), reference->size());
    for (std::size_t i = 0; i < reference->size(); ++i) {
      for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_EQ(result->regenerate.records[i][d], (*reference)[i][d]);
        EXPECT_EQ(cached->regenerate.records[i][d], (*reference)[i][d]);
      }
    }
    // Only the eigendecomposition sampler reads the cache.
    if (!(*core::FindBackend(id))->sample) {
      EXPECT_GT(engine.eigen_cache().stats().hits, 0u);
    }
  }
}

TEST(QueryEngineTest, RegenerateFromMdavPoolsEmitsCentroids) {
  // An mdav-stamped snapshot regenerates by centroid replacement, as
  // `condensa generate` releases the same pools.
  QuerySnapshot snapshot = TwoClassSnapshot();
  QuerySnapshot mdav;
  mdav.dim = snapshot.dim;
  for (const LabeledGroups& pool : snapshot.pools) {
    CondensedGroupSet groups = pool.groups;
    groups.SetBackend("mdav", 1);
    mdav.pools.emplace_back(pool.label, std::move(groups));
  }

  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.seed = 3;
  auto result = engine.Execute(mdav, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::size_t next = 0;
  for (const LabeledGroups& pool : mdav.pools) {
    for (const GroupStatistics& group : pool.groups.groups()) {
      const Vector centroid = group.Centroid();
      for (std::size_t i = 0; i < group.count(); ++i, ++next) {
        ASSERT_LT(next, result->regenerate.records.size());
        for (std::size_t d = 0; d < centroid.dim(); ++d) {
          EXPECT_EQ(result->regenerate.records[next][d], centroid[d]);
        }
      }
    }
  }
  EXPECT_EQ(next, result->regenerate.records.size());
  EXPECT_EQ(engine.eigen_cache().stats().misses, 0u);
}

TEST(QueryEngineTest, RegenerateRefusesStampsThisBuildCannotHonour) {
  CondensedGroupSet groups(2, 5);
  groups.AddGroup(MakeGroupAround(MakePoint({0.0, 0.0}), 5, 1));
  Query query;
  query.kind = QueryKind::kRegenerate;
  QueryEngine engine;

  groups.SetBackend("mdav", 2);
  auto newer = engine.Execute(SnapshotFromGroupSet(groups), query);
  EXPECT_EQ(newer.status().code(), StatusCode::kFailedPrecondition);

  groups.SetBackend("bogus", 1);
  auto unknown = engine.Execute(SnapshotFromGroupSet(groups), query);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(QueryEngineTest, RegenerateSingleRecordGroupYieldsItsCentroid) {
  CondensedGroupSet groups(2, 1);
  GroupStatistics lone(2);
  lone.Add(MakePoint({3.0, 4.0}));
  groups.AddGroup(std::move(lone));
  QuerySnapshot snapshot = SnapshotFromGroupSet(groups);

  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.records_per_group = 3;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->regenerate.records.size(), 3u);
  for (const Vector& record : result->regenerate.records) {
    EXPECT_EQ(record[0], 3.0);
    EXPECT_EQ(record[1], 4.0);
  }
  // No factorization exists for a zero-covariance group: the cache must
  // not have been touched.
  EXPECT_EQ(engine.eigen_cache().stats().misses, 0u);
}

TEST(QueryEngineTest, ParseRangeSpecRoundTrips) {
  auto empty = ParseRangeSpec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->bounds.empty());

  auto spec = ParseRangeSpec("0:-1.5:2.5,3:0:0");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->bounds.size(), 2u);
  EXPECT_EQ(spec->bounds[0].dim, 0u);
  EXPECT_EQ(spec->bounds[0].lo, -1.5);
  EXPECT_EQ(spec->bounds[0].hi, 2.5);
  EXPECT_EQ(spec->bounds[1].dim, 3u);

  EXPECT_FALSE(ParseRangeSpec("0:a:b").ok());
  EXPECT_FALSE(ParseRangeSpec("0:1").ok());
  EXPECT_FALSE(ParseRangeSpec(":1:2").ok());
  EXPECT_FALSE(ParseRangeSpec("0:1:2,").ok());
}

TEST(QueryEngineTest, RegenerateCapsRefuseTheAnswerBeforeSampling) {
  QuerySnapshot snapshot = TwoClassSnapshot();  // 6 groups, d = 2
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.records_per_group = 100;  // 600 records

  ExecutionContext records_cap;
  records_cap.max_regenerate_records = 599;
  auto refused = engine.Execute(snapshot, query, records_cap);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  ExecutionContext bytes_cap;
  bytes_cap.max_regenerate_bytes = RegenerateResultBytes(600, 2) - 1;
  refused = engine.Execute(snapshot, query, bytes_cap);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Refused before any factorization was looked up.
  EXPECT_EQ(engine.eigen_cache().stats().misses, 0u);
  EXPECT_EQ(engine.eigen_cache().stats().hits, 0u);

  // At the caps, and uncapped (the in-process default), it is answered.
  ExecutionContext at_caps;
  at_caps.max_regenerate_records = 600;
  at_caps.max_regenerate_bytes = RegenerateResultBytes(600, 2);
  auto capped = engine.Execute(snapshot, query, at_caps);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->regenerate.records.size(), 600u);
  auto uncapped = engine.Execute(snapshot, query);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  EXPECT_EQ(uncapped->regenerate.records.size(), 600u);
}

TEST(QueryEngineTest, BudgetsPastTheClockRangeMeanNoDeadline) {
  QuerySnapshot snapshot = TwoClassSnapshot();
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  // Each of these overflows the steady clock's nanosecond count; each
  // must mean "no deadline", not one already expired.
  for (double budget_ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    ExecutionContext context = ExecutionContext::WithBudgetMs(budget_ms);
    EXPECT_FALSE(context.deadline.has_value()) << budget_ms;
    auto answered = engine.Execute(snapshot, query, context);
    ASSERT_TRUE(answered.ok()) << budget_ms << ": "
                               << answered.status().ToString();
    EXPECT_EQ(answered->aggregate.records, 30u);
  }
  // Budgets inside the range still set a deadline that far from start.
  const auto start = std::chrono::steady_clock::now();
  ExecutionContext hour = ExecutionContext::WithBudgetMs(3.6e6, start);
  ASSERT_TRUE(hour.deadline.has_value());
  EXPECT_EQ(*hour.deadline - start, std::chrono::hours(1));
  ExecutionContext century =
      ExecutionContext::WithBudgetMs(3.15576e12, start);  // 100 years
  ASSERT_TRUE(century.deadline.has_value());
  EXPECT_GT(*century.deadline, start);
  EXPECT_FALSE(ExecutionContext::WithBudgetMs(0.0).deadline.has_value());
}

// A cache sized to the group count holds the regenerate working set.
// Nothing mutates the snapshot, so the first round faults every group's
// factorization in and every later lookup must hit: any further miss
// means version stamps churn on groups that did not change.
TEST(QueryEngineTest, RepeatedRegenerateHitsTheEigenCacheInSteadyState) {
  const std::size_t dim = 10;
  const std::size_t rounds = 25;
  for (std::size_t groups : {std::size_t{64}, std::size_t{512}}) {
    Rng rng(9'000 + groups);
    QuerySnapshot snapshot;
    snapshot.dim = dim;
    for (int label : {0, 1}) {
      const std::size_t pool_groups = label == 0 ? groups / 2
                                                 : groups - groups / 2;
      CondensedGroupSet pool(dim, 10);
      for (std::size_t g = 0; g < pool_groups; ++g) {
        Vector center(dim);
        for (std::size_t d = 0; d < dim; ++d) {
          center[d] = (label == 0 ? -4.0 : 4.0) + rng.Gaussian(0.0, 3.0);
        }
        pool.AddGroup(MakeGroupAround(center, 10, rng.NextUint64()));
      }
      snapshot.pools.push_back({label, std::move(pool)});
    }

    QueryEngine engine({.eigen_cache_capacity = groups});
    Query query;
    query.kind = QueryKind::kRegenerate;
    query.regenerate.seed = 4242;
    query.regenerate.records_per_group = 1;
    for (std::size_t round = 0; round < rounds; ++round) {
      auto result = engine.Execute(snapshot, query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->regenerate.groups_matched, groups);
    }

    const EigenCacheStats stats = engine.eigen_cache().stats();
    EXPECT_EQ(stats.misses, groups) << groups << " groups";
    EXPECT_EQ(stats.hits, (rounds - 1) * groups) << groups << " groups";
    EXPECT_GT(stats.HitRatio(), 0.9) << groups << " groups";
  }
}

}  // namespace
}  // namespace condensa::query
