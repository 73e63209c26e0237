// Randomized parity between the query engine and a per-group reference.
//
// The engine selects groups through each pool's packed centroids and
// ranks classify neighbours through one kd-tree over every labeled
// centroid (query/snapshot.h). The reference here never touches either:
// it walks the groups one by one with
// GroupStatistics::SquaredDistanceToCentroid, Centroid() and Merge, the
// way the engine worked before the view existed. Random snapshots mix
// 1–4 pools, unlabeled pools, single-record groups, duplicated groups
// (exact distance ties, within and across pools) and range endpoints
// equal to centroid coordinates; every classify label and every bit of
// every aggregate and regenerate answer must agree. Classify is also
// checked on deep trees (thousands of grid-snapped groups, so ties cross
// leaves) and at the index's edges: one group, fewer groups than
// neighbours, and one centroid repeated across every pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/anonymizer.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/snapshot.h"

namespace condensa::query {
namespace {

using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Matrix;
using condensa::linalg::Vector;

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameBits(const Vector& got, const Vector& want,
                    const std::string& what) {
  ASSERT_EQ(got.dim(), want.dim()) << what;
  for (std::size_t d = 0; d < want.dim(); ++d) {
    EXPECT_EQ(Bits(got[d]), Bits(want[d])) << what << " coordinate " << d;
  }
}

void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(Bits(got(i, j)), Bits(want(i, j)))
          << what << " entry (" << i << ", " << j << ")";
    }
  }
}

// A coordinate on a coarse grid half the time, so centroids collide and
// range endpoints land on them; otherwise a Gaussian draw.
double Coordinate(Rng& rng) {
  return rng.Bernoulli(0.5) ? 0.5 * rng.UniformInt(-4, 4)
                            : rng.Gaussian(0.0, 2.0);
}

GroupStatistics RandomGroup(std::size_t dim, Rng& rng) {
  GroupStatistics group(dim);
  // A quarter of the groups hold one record: zero covariance, the
  // centroid is the record.
  const std::size_t records = rng.Bernoulli(0.25) ? 1 : 2 + rng.UniformIndex(6);
  for (std::size_t r = 0; r < records; ++r) {
    Vector record(dim);
    for (std::size_t d = 0; d < dim; ++d) record[d] = Coordinate(rng);
    group.Add(record);
  }
  return group;
}

QuerySnapshot RandomSnapshot(Rng& rng) {
  QuerySnapshot snapshot;
  snapshot.dim = 1 + rng.UniformIndex(4);
  const std::size_t pools = 1 + rng.UniformIndex(4);
  std::vector<GroupStatistics> made;
  for (std::size_t p = 0; p < pools; ++p) {
    CondensedGroupSet groups(snapshot.dim, 3);
    const std::size_t count = 1 + rng.UniformIndex(20);
    for (std::size_t g = 0; g < count; ++g) {
      // Some groups repeat an earlier one (from any pool): identical
      // centroids tie on distance and must break by (pool, group).
      if (!made.empty() && rng.Bernoulli(0.2)) {
        groups.AddGroup(made[rng.UniformIndex(made.size())]);
      } else {
        made.push_back(RandomGroup(snapshot.dim, rng));
        groups.AddGroup(made.back());
      }
    }
    // Pool 0 is always labeled so classify has something to vote with;
    // later pools are unlabeled a third of the time.
    const int label =
        p > 0 && rng.Bernoulli(1.0 / 3.0) ? -1 : rng.UniformInt(0, 2);
    snapshot.pools.push_back({label, std::move(groups)});
  }
  return snapshot;
}

RangePredicate RandomRange(const QuerySnapshot& snapshot, Rng& rng) {
  RangePredicate range;
  const std::size_t bounds = rng.UniformIndex(3);
  for (std::size_t b = 0; b < bounds; ++b) {
    // Endpoints are centroid coordinates of random groups, so the
    // inclusive ends are exercised exactly.
    const LabeledGroups& pool =
        snapshot.pools[rng.UniformIndex(snapshot.pools.size())];
    const std::size_t dim = rng.UniformIndex(snapshot.dim);
    double lo = pool.groups.group(rng.UniformIndex(pool.groups.num_groups()))
                    .Centroid()[dim];
    double hi = pool.groups.group(rng.UniformIndex(pool.groups.num_groups()))
                    .Centroid()[dim];
    if (hi < lo) std::swap(lo, hi);
    range.bounds.push_back({dim, lo, hi});
  }
  return range;
}

bool ReferenceMatches(const RangePredicate& range, const Vector& centroid) {
  for (const RangePredicate::Bound& bound : range.bounds) {
    const double value = centroid[bound.dim];
    if (value < bound.lo || value > bound.hi) return false;
  }
  return true;
}

int ReferenceClassify(const QuerySnapshot& snapshot, const Vector& point,
                      std::size_t neighbors) {
  struct Candidate {
    double distance_squared;
    std::size_t pool;
    std::size_t group;
  };
  std::vector<Candidate> candidates;
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    const LabeledGroups& pool = snapshot.pools[p];
    if (pool.label < 0) continue;
    for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
      candidates.push_back(
          {pool.groups.group(g).SquaredDistanceToCentroid(point), p, g});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.distance_squared != b.distance_squared) {
                return a.distance_squared < b.distance_squared;
              }
              if (a.pool != b.pool) return a.pool < b.pool;
              return a.group < b.group;
            });
  candidates.resize(std::min(candidates.size(), neighbors));
  std::map<int, std::uint64_t> votes;
  for (const Candidate& c : candidates) {
    votes[snapshot.pools[c.pool].label] +=
        snapshot.pools[c.pool].groups.group(c.group).count();
  }
  int best_label = -1;
  std::uint64_t best_weight = 0;
  for (const auto& [label, weight] : votes) {
    if (weight > best_weight) {
      best_weight = weight;
      best_label = label;
    }
  }
  return best_label;
}

AggregateResult ReferenceAggregate(const QuerySnapshot& snapshot,
                                   const RangePredicate& range) {
  GroupStatistics folded(snapshot.dim);
  AggregateResult result;
  for (const LabeledGroups& pool : snapshot.pools) {
    for (const GroupStatistics& group : pool.groups.groups()) {
      if (!ReferenceMatches(range, group.Centroid())) continue;
      folded.Merge(group);
      ++result.groups_matched;
    }
  }
  result.records = folded.count();
  if (!folded.empty()) {
    result.has_moments = true;
    result.mean = folded.Centroid();
    result.covariance = folded.Covariance();
  }
  return result;
}

RegenerateResult ReferenceRegenerate(const QuerySnapshot& snapshot,
                                     const RegenerateQuery& query) {
  RegenerateResult result;
  Rng rng(query.seed);
  for (const LabeledGroups& pool : snapshot.pools) {
    for (const GroupStatistics& group : pool.groups.groups()) {
      const Vector centroid = group.Centroid();
      if (!ReferenceMatches(query.range, centroid)) continue;
      ++result.groups_matched;
      Rng stream = rng.Split();
      const std::size_t count = query.records_per_group > 0
                                    ? query.records_per_group
                                    : group.count();
      if (group.count() == 1) {
        result.records.insert(result.records.end(), count, centroid);
        continue;
      }
      auto eigen = linalg::CovarianceEigenDecomposition(group.Covariance());
      EXPECT_TRUE(eigen.ok()) << eigen.status().ToString();
      if (!eigen.ok()) return result;
      for (Vector& record : core::SampleFromEigen(
               centroid, *eigen, count, core::SamplingDistribution::kUniform,
               stream)) {
        result.records.push_back(std::move(record));
      }
    }
  }
  return result;
}

constexpr int kSnapshots = 60;

TEST(QueryParityTest, PackedViewHoldsEachCentroidAndMassBitForBit) {
  Rng rng(1);
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    for (const LabeledGroups& pool : snapshot.pools) {
      const PackedCentroids& packed = pool.packed();
      ASSERT_EQ(packed.centroids.size(), pool.groups.num_groups());
      ASSERT_EQ(packed.mass.size(), pool.groups.num_groups());
      ASSERT_EQ(packed.centroids.dim(), snapshot.dim);
      for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
        const Vector centroid = pool.groups.group(g).Centroid();
        for (std::size_t d = 0; d < snapshot.dim; ++d) {
          EXPECT_EQ(Bits(packed.centroids.At(g, d)), Bits(centroid[d]));
        }
        EXPECT_EQ(packed.mass[g], pool.groups.group(g).count());
      }
    }
  }
}

TEST(QueryParityTest, ClassifyMatchesPerGroupReference) {
  Rng rng(2);
  QueryEngine engine;
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    Query query;
    query.kind = QueryKind::kClassify;
    query.classify.neighbors = 1 + rng.UniformIndex(8);
    for (int i = 0; i < 16; ++i) {
      Vector point(snapshot.dim);
      // Half the points sit exactly on a centroid (a zero distance that
      // duplicates turn into a tie).
      if (rng.Bernoulli(0.5)) {
        const LabeledGroups& pool =
            snapshot.pools[rng.UniformIndex(snapshot.pools.size())];
        point = pool.groups.group(rng.UniformIndex(pool.groups.num_groups()))
                    .Centroid();
      } else {
        for (std::size_t d = 0; d < snapshot.dim; ++d) {
          point[d] = Coordinate(rng);
        }
      }
      query.classify.points.push_back(std::move(point));
    }
    auto result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->classify.labels.size(), query.classify.points.size());
    for (std::size_t i = 0; i < query.classify.points.size(); ++i) {
      EXPECT_EQ(result->classify.labels[i],
                ReferenceClassify(snapshot, query.classify.points[i],
                                  query.classify.neighbors))
          << "trial " << trial << " point " << i;
    }
  }
}

TEST(QueryParityTest, AggregateMatchesPerGroupReferenceBitForBit) {
  Rng rng(3);
  QueryEngine engine;
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    for (int q = 0; q < 4; ++q) {
      Query query;
      query.kind = QueryKind::kAggregate;
      query.aggregate.range = RandomRange(snapshot, rng);
      auto result = engine.Execute(snapshot, query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const AggregateResult want =
          ReferenceAggregate(snapshot, query.aggregate.range);
      const AggregateResult& got = result->aggregate;
      EXPECT_EQ(got.groups_matched, want.groups_matched);
      EXPECT_EQ(got.records, want.records);
      ASSERT_EQ(got.has_moments, want.has_moments);
      if (want.has_moments) {
        ExpectSameBits(got.mean, want.mean, "mean");
        ExpectSameBits(got.covariance, want.covariance, "covariance");
      }
    }
  }
}

TEST(QueryParityTest, RegenerateMatchesPerGroupReferenceBitForBit) {
  Rng rng(4);
  QueryEngine engine;
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    for (int q = 0; q < 3; ++q) {
      Query query;
      query.kind = QueryKind::kRegenerate;
      query.regenerate.range = RandomRange(snapshot, rng);
      query.regenerate.seed = rng.NextUint64();
      query.regenerate.records_per_group = rng.UniformIndex(3);
      auto result = engine.Execute(snapshot, query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RegenerateResult want =
          ReferenceRegenerate(snapshot, query.regenerate);
      EXPECT_EQ(result->regenerate.groups_matched, want.groups_matched);
      ASSERT_EQ(result->regenerate.records.size(), want.records.size());
      for (std::size_t r = 0; r < want.records.size(); ++r) {
        ExpectSameBits(result->regenerate.records[r], want.records[r],
                       "record " + std::to_string(r));
      }
    }
  }
}

TEST(QueryParityTest, CopiedSnapshotSharesThePackedView) {
  Rng rng(5);
  const QuerySnapshot snapshot = RandomSnapshot(rng);
  const QuerySnapshot copy = snapshot;
  ASSERT_EQ(copy.pools.size(), snapshot.pools.size());
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    EXPECT_EQ(&copy.pools[p].packed(), &snapshot.pools[p].packed());
  }

  // Publishing moves the snapshot into the store without repacking.
  QuerySnapshot published = snapshot;
  SnapshotStore store;
  store.Publish(std::move(published));
  const std::shared_ptr<const QuerySnapshot> current = store.Current();
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    EXPECT_EQ(&current->pools[p].packed(), &snapshot.pools[p].packed());
  }
}

// Classify answers for `points` from the engine must equal the
// reference's, point by point.
void ExpectClassifyMatchesReference(const QuerySnapshot& snapshot,
                                    const std::vector<Vector>& points,
                                    std::size_t neighbors,
                                    const std::string& what) {
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.neighbors = neighbors;
  query.classify.points = points;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
  ASSERT_EQ(result->classify.labels.size(), points.size()) << what;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(result->classify.labels[i],
              ReferenceClassify(snapshot, points[i], neighbors))
        << what << " point " << i << " neighbors " << neighbors;
  }
}

std::vector<Vector> RandomPoints(std::size_t dim, std::size_t count,
                                 Rng& rng) {
  std::vector<Vector> points;
  for (std::size_t i = 0; i < count; ++i) {
    Vector point(dim);
    for (std::size_t d = 0; d < dim; ++d) point[d] = Coordinate(rng);
    points.push_back(std::move(point));
  }
  return points;
}

TEST(QueryParityTest, ClassifyMatchesPerGroupReferenceOnDeepTrees) {
  Rng rng(6);
  for (int trial = 0; trial < 6; ++trial) {
    QuerySnapshot snapshot;
    snapshot.dim = 1 + rng.UniformIndex(5);
    std::vector<GroupStatistics> made;
    for (std::size_t p = 0; p < 3; ++p) {
      CondensedGroupSet groups(snapshot.dim, 3);
      for (std::size_t g = 300 + rng.UniformIndex(900); g > 0; --g) {
        if (!made.empty() && rng.Bernoulli(0.1)) {
          groups.AddGroup(made[rng.UniformIndex(made.size())]);
        } else {
          made.push_back(RandomGroup(snapshot.dim, rng));
          groups.AddGroup(made.back());
        }
      }
      snapshot.pools.push_back(
          {p == 1 && trial % 2 == 1 ? -1 : static_cast<int>(p),
           std::move(groups)});
    }
    std::vector<Vector> points = RandomPoints(snapshot.dim, 24, rng);
    for (int i = 0; i < 8; ++i) {
      points.push_back(made[rng.UniformIndex(made.size())].Centroid());
    }
    for (std::size_t neighbors : {1u, 3u, 10u, 64u}) {
      ExpectClassifyMatchesReference(snapshot, points, neighbors,
                                     "trial " + std::to_string(trial));
    }
  }
}

TEST(QueryParityTest, ClassifyOnASingleGroup) {
  Rng rng(7);
  QuerySnapshot snapshot;
  snapshot.dim = 3;
  CondensedGroupSet groups(snapshot.dim, 3);
  groups.AddGroup(RandomGroup(snapshot.dim, rng));
  snapshot.pools.push_back({4, std::move(groups)});
  std::vector<Vector> points = RandomPoints(snapshot.dim, 8, rng);
  points.push_back(snapshot.pools[0].groups.group(0).Centroid());
  for (std::size_t neighbors : {1u, 2u, 100u}) {
    ExpectClassifyMatchesReference(snapshot, points, neighbors, "one group");
  }
}

TEST(QueryParityTest, ClassifyWithFewerGroupsThanNeighbors) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    QuerySnapshot snapshot;
    snapshot.dim = 1 + rng.UniformIndex(3);
    std::size_t total = 0;
    for (std::size_t p = 0; p < 3; ++p) {
      CondensedGroupSet groups(snapshot.dim, 3);
      for (std::size_t g = 1 + rng.UniformIndex(3); g > 0; --g) {
        groups.AddGroup(RandomGroup(snapshot.dim, rng));
        ++total;
      }
      snapshot.pools.push_back({static_cast<int>(p), std::move(groups)});
    }
    // Every group votes once neighbors reaches the group count.
    ExpectClassifyMatchesReference(snapshot,
                                   RandomPoints(snapshot.dim, 8, rng),
                                   total + 1 + rng.UniformIndex(20),
                                   "trial " + std::to_string(trial));
  }
}

TEST(QueryParityTest, ClassifyOnOneCentroidRepeatedAcrossPools) {
  // Every group of every pool has the same centroid, so every distance
  // ties and only the (pool, group) order decides. Pool 0 (label 2) holds
  // 40 copies, pool 1 is unlabeled, pools 2 and 3 (labels 0 and 1) hold
  // 40 each.
  Rng rng(9);
  const std::size_t dim = 2;
  GroupStatistics group = RandomGroup(dim, rng);
  QuerySnapshot snapshot;
  snapshot.dim = dim;
  for (int label : {2, -1, 0, 1}) {
    CondensedGroupSet groups(dim, 3);
    for (int g = 0; g < 40; ++g) groups.AddGroup(group);
    snapshot.pools.push_back({label, std::move(groups)});
  }
  std::vector<Vector> points = RandomPoints(dim, 8, rng);
  points.push_back(group.Centroid());
  for (std::size_t neighbors : {1u, 40u, 41u, 79u, 80u, 81u, 120u, 500u}) {
    ExpectClassifyMatchesReference(snapshot, points, neighbors,
                                   "repeated centroid");
  }
  // Up to 80 neighbours pool 0 holds the majority (or ties pool 2 at 80
  // and loses to the smaller label); past that all three labels tie and
  // the smallest label wins.
  QueryEngine engine;
  for (const auto& [neighbors, label] :
       std::vector<std::pair<std::size_t, int>>{
           {1, 2}, {79, 2}, {80, 0}, {120, 0}, {500, 0}}) {
    Query query;
    query.kind = QueryKind::kClassify;
    query.classify.neighbors = neighbors;
    query.classify.points = points;
    auto result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->classify.labels, std::vector<int>(points.size(), label))
        << "neighbors " << neighbors;
  }
}

TEST(QueryParityTest, ClassifyIndexIsBuiltOnceAndRebuiltWhenPoolsChange) {
  Rng rng(10);
  QuerySnapshot snapshot = RandomSnapshot(rng);
  const std::shared_ptr<const ClassifyIndex> index =
      snapshot.GetClassifyIndex();
  ASSERT_TRUE(index->status().ok()) << index->status().ToString();
  EXPECT_EQ(snapshot.GetClassifyIndex(), index);

  // Copies and published snapshots share the built index.
  QuerySnapshot copy = snapshot;
  EXPECT_EQ(copy.GetClassifyIndex(), index);
  SnapshotStore store;
  store.Publish(QuerySnapshot(snapshot));
  EXPECT_EQ(store.Current()->GetClassifyIndex(), index);

  // A copy whose pools change gets a fresh index that sees the new pool;
  // the original keeps its own.
  Vector far(copy.dim);
  for (std::size_t d = 0; d < copy.dim; ++d) far[d] = 100.0;
  GroupStatistics far_group(copy.dim);
  far_group.Add(far);
  CondensedGroupSet extra(copy.dim, 3);
  extra.AddGroup(far_group);
  copy.pools.push_back({7, extra});
  const std::shared_ptr<const ClassifyIndex> fresh = copy.GetClassifyIndex();
  EXPECT_NE(fresh, index);
  EXPECT_EQ(snapshot.GetClassifyIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "with the far pool");
  ExpectClassifyMatchesReference(snapshot, {far}, 1, "original");

  // Same pool count, different pool: still fresh, never the stale one.
  copy.pools.pop_back();
  copy.pools.push_back({8, extra});
  EXPECT_NE(copy.GetClassifyIndex(), fresh);
  EXPECT_NE(copy.GetClassifyIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "with the relabeled pool");

  // Back to the original pools: the holder keeps only its newest index,
  // so this is another fresh one, answering as the original does.
  copy.pools.pop_back();
  EXPECT_NE(copy.GetClassifyIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "pool removed");

  // A changed dimension invalidates too.
  QuerySnapshot other_dim = snapshot;
  other_dim.dim = snapshot.dim + 1;
  EXPECT_NE(other_dim.GetClassifyIndex(), index);
}

}  // namespace
}  // namespace condensa::query
