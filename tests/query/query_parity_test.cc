// Randomized parity between the query engine and a per-group reference.
//
// The engine answers every query through the snapshot's SnapshotIndex
// (query/snapshot.h): a kd-tree for classify, sorted orders and moment
// trees for ranges. The reference here never touches it: it walks the
// groups one by one with GroupStatistics::SquaredDistanceToCentroid,
// Centroid() and Merge. Random snapshots mix 1–4 pools, unlabeled pools,
// single-record groups, duplicated groups (exact distance ties, within
// and across pools) and range endpoints equal to centroid coordinates;
// every classify label and every bit of every regenerate answer must
// agree. Aggregates of one bound or none fold in the index's own order,
// so they are checked bit for bit against MomentTreeOracle, which
// rebuilds that order from per-group moments, and against the (pool,
// group)-order fold to 1e-12 relative with exact counts; boxes of
// several bounds must equal the (pool, group)-order fold bit for bit.
// Both kinds are also checked on deep trees (thousands of grid-snapped
// groups, so ties cross leaves and blocks) and at the index's edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
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

// A bound whose endpoints are centroid coordinates of random groups, so
// the inclusive ends are exercised exactly. Some pool must hold a group.
RangePredicate::Bound RandomBound(const QuerySnapshot& snapshot, Rng& rng) {
  const LabeledGroups* pool = nullptr;
  do {
    pool = &snapshot.pools[rng.UniformIndex(snapshot.pools.size())];
  } while (pool->groups.empty());
  const std::size_t dim = rng.UniformIndex(snapshot.dim);
  double lo = pool->groups.group(rng.UniformIndex(pool->groups.num_groups()))
                  .Centroid()[dim];
  double hi = pool->groups.group(rng.UniformIndex(pool->groups.num_groups()))
                  .Centroid()[dim];
  if (hi < lo) std::swap(lo, hi);
  return {dim, lo, hi};
}

RangePredicate RandomRange(const QuerySnapshot& snapshot, Rng& rng,
                           std::size_t max_bounds = 2) {
  RangePredicate range;
  const std::size_t bounds = rng.UniformIndex(max_bounds + 1);
  for (std::size_t b = 0; b < bounds; ++b) {
    range.bounds.push_back(RandomBound(snapshot, rng));
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

// The fold SnapshotIndex defines for a range of one bound, rebuilt from
// per-group moments without the index: the groups sorted by (centroid
// coordinate on one dimension, (pool, group) ordinal); leaves folding
// kBlock consecutive sorted groups; a segment tree over the leaves that
// splits blocks [lo, hi) at (lo + hi) / 2 and folds left child, then
// right; and the selection folded as its left edge groups, its maximal
// covering nodes from left to right, then its right edge groups. Every
// node is recomputed where it is used, and the selection is found by a
// linear scan.
class MomentTreeOracle {
 public:
  static constexpr std::size_t kBlock = 32;
  static_assert(kBlock == SnapshotIndex::kBlock);

  MomentTreeOracle(const QuerySnapshot& snapshot, std::size_t dim)
      : dim_(snapshot.dim) {
    for (const LabeledGroups& pool : snapshot.pools) {
      for (const GroupStatistics& group : pool.groups.groups()) {
        sorted_.push_back({group.Centroid()[dim], &group});
      }
    }
    std::stable_sort(sorted_.begin(), sorted_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
  }

  // The fold of the groups whose key lies in [lo, hi].
  AggregateResult Aggregate(double lo, double hi) const {
    const std::size_t n = sorted_.size();
    std::size_t first = 0;
    while (first < n && sorted_[first].key < lo) ++first;
    std::size_t last = first;
    while (last < n && !(sorted_[last].key > hi)) ++last;

    GroupStatistics folded(dim_);
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    const std::size_t first_block = (first + kBlock - 1) / kBlock;
    const std::size_t last_block = last == n ? blocks : last / kBlock;
    if (first_block >= last_block) {
      MergeGroups(first, last, &folded);
    } else {
      MergeGroups(first, first_block * kBlock, &folded);
      Cover(0, blocks, first_block, last_block, &folded);
      MergeGroups(std::min(last_block * kBlock, last), last, &folded);
    }
    AggregateResult result;
    result.groups_matched = last - first;
    result.records = folded.count();
    if (!folded.empty()) {
      result.has_moments = true;
      result.mean = folded.Centroid();
      result.covariance = folded.Covariance();
    }
    return result;
  }

 private:
  struct Entry {
    double key;
    const GroupStatistics* group;
  };

  void MergeGroups(std::size_t begin, std::size_t end,
                   GroupStatistics* folded) const {
    for (std::size_t i = begin; i < end; ++i) folded->Merge(*sorted_[i].group);
  }

  GroupStatistics Node(std::size_t lo, std::size_t hi) const {
    if (hi - lo == 1) {
      GroupStatistics leaf(dim_);
      MergeGroups(lo * kBlock, std::min(hi * kBlock, sorted_.size()), &leaf);
      return leaf;
    }
    const std::size_t mid = (lo + hi) / 2;
    GroupStatistics node = Node(lo, mid);
    node.Merge(Node(mid, hi));
    return node;
  }

  void Cover(std::size_t lo, std::size_t hi, std::size_t first_block,
             std::size_t last_block, GroupStatistics* folded) const {
    if (last_block <= lo || hi <= first_block) return;
    if (first_block <= lo && hi <= last_block) {
      folded->Merge(Node(lo, hi));
      return;
    }
    const std::size_t mid = (lo + hi) / 2;
    Cover(lo, mid, first_block, last_block, folded);
    Cover(mid, hi, first_block, last_block, folded);
  }

  std::size_t dim_;
  std::vector<Entry> sorted_;
};

// The answer the engine must give bit for bit: a box of several bounds
// folds in (pool, group) order, a single bound through its dimension's
// moment tree, and no bound through dimension 0's root.
AggregateResult OracleAggregate(const QuerySnapshot& snapshot,
                                const RangePredicate& range) {
  if (range.bounds.size() > 1) return ReferenceAggregate(snapshot, range);
  if (range.bounds.empty()) {
    return MomentTreeOracle(snapshot, 0)
        .Aggregate(-std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity());
  }
  const RangePredicate::Bound& bound = range.bounds[0];
  return MomentTreeOracle(snapshot, bound.dim).Aggregate(bound.lo, bound.hi);
}

void ExpectSameAggregate(const AggregateResult& got,
                         const AggregateResult& want,
                         const std::string& what) {
  EXPECT_EQ(got.groups_matched, want.groups_matched) << what;
  EXPECT_EQ(got.records, want.records) << what;
  ASSERT_EQ(got.has_moments, want.has_moments) << what;
  if (want.has_moments) {
    ExpectSameBits(got.mean, want.mean, what + " mean");
    ExpectSameBits(got.covariance, want.covariance, what + " covariance");
  }
}

// `got` against the (pool, group)-order fold: counts exactly, moments to
// 1e-12 relative to the summed magnitudes that bound their round-off
// (Σ|Fs_i| / n for the mean, Σ|Sc_ij| / n + |mean|_i·|mean|_j for the
// covariance, both over the selected groups).
void ExpectCloseToPoolOrderFold(const QuerySnapshot& snapshot,
                                const RangePredicate& range,
                                const AggregateResult& got,
                                const std::string& what) {
  const AggregateResult want = ReferenceAggregate(snapshot, range);
  EXPECT_EQ(got.groups_matched, want.groups_matched) << what;
  EXPECT_EQ(got.records, want.records) << what;
  ASSERT_EQ(got.has_moments, want.has_moments) << what;
  if (!want.has_moments) return;
  const std::size_t dim = snapshot.dim;
  Vector first(dim);
  Matrix second(dim, dim);
  for (const LabeledGroups& pool : snapshot.pools) {
    for (const GroupStatistics& group : pool.groups.groups()) {
      if (!ReferenceMatches(range, group.Centroid())) continue;
      for (std::size_t i = 0; i < dim; ++i) {
        first[i] += std::fabs(group.first_order()[i]);
        for (std::size_t j = 0; j < dim; ++j) {
          second(i, j) += std::fabs(group.second_order()(i, j));
        }
      }
    }
  }
  const double n = static_cast<double>(want.records);
  for (std::size_t i = 0; i < dim; ++i) {
    const double mean_scale = first[i] / n;
    EXPECT_LE(std::fabs(got.mean[i] - want.mean[i]), 1e-12 * mean_scale)
        << what << " mean " << i;
    for (std::size_t j = 0; j < dim; ++j) {
      const double scale = second(i, j) / n + mean_scale * first[j] / n;
      EXPECT_LE(std::fabs(got.covariance(i, j) - want.covariance(i, j)),
                1e-12 * scale)
          << what << " covariance (" << i << ", " << j << ")";
    }
  }
}

// One aggregate through the engine, checked against both folds.
void ExpectAggregateMatchesOracles(const QuerySnapshot& snapshot,
                                   const RangePredicate& range,
                                   const std::string& what) {
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range = range;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
  ExpectSameAggregate(result->aggregate, OracleAggregate(snapshot, range),
                      what);
  ExpectCloseToPoolOrderFold(snapshot, range, result->aggregate, what);
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

TEST(QueryParityTest, IndexHoldsEachCentroidAndMassBitForBit) {
  Rng rng(1);
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    const std::shared_ptr<const SnapshotIndex> index = snapshot.GetIndex();
    ASSERT_TRUE(index->range_status().ok()) << index->range_status().ToString();
    ASSERT_EQ(index->size(), snapshot.TotalGroups());
    std::size_t ordinal = 0;
    for (const LabeledGroups& pool : snapshot.pools) {
      for (const GroupStatistics& group : pool.groups.groups()) {
        const Vector centroid = group.Centroid();
        for (std::size_t d = 0; d < snapshot.dim; ++d) {
          EXPECT_EQ(Bits(index->coordinate(ordinal, d)), Bits(centroid[d]));
        }
        EXPECT_EQ(index->mass(ordinal), group.count());
        EXPECT_EQ(&index->group(ordinal), &group);
        ++ordinal;
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
  for (int trial = 0; trial < kSnapshots; ++trial) {
    const QuerySnapshot snapshot = RandomSnapshot(rng);
    for (int q = 0; q < 4; ++q) {
      ExpectAggregateMatchesOracles(snapshot, RandomRange(snapshot, rng),
                                    "trial " + std::to_string(trial));
    }
  }
}

// Thousands of groups: many blocks and tree levels, ranges of every
// width, boxes of up to three bounds.
TEST(QueryParityTest, AggregateMatchesPerGroupReferenceOnDeepTrees) {
  Rng rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    QuerySnapshot snapshot;
    snapshot.dim = 1 + rng.UniformIndex(4);
    for (std::size_t p = 0; p < 3; ++p) {
      CondensedGroupSet groups(snapshot.dim, 3);
      for (std::size_t g = 200 + rng.UniformIndex(900); g > 0; --g) {
        groups.AddGroup(RandomGroup(snapshot.dim, rng));
      }
      snapshot.pools.push_back(
          {p == 1 ? -1 : static_cast<int>(p), std::move(groups)});
    }
    for (int q = 0; q < 24; ++q) {
      ExpectAggregateMatchesOracles(
          snapshot, RandomRange(snapshot, rng, 3),
          "trial " + std::to_string(trial) + " query " + std::to_string(q));
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

TEST(QueryParityTest, CopiedSnapshotSharesItsGroups) {
  Rng rng(5);
  const QuerySnapshot snapshot = RandomSnapshot(rng);
  const QuerySnapshot copy = snapshot;
  ASSERT_EQ(copy.pools.size(), snapshot.pools.size());
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    EXPECT_EQ(&copy.pools[p].groups, &snapshot.pools[p].groups);
  }

  // Publishing moves the snapshot into the store without copying a group.
  QuerySnapshot published = snapshot;
  SnapshotStore store;
  store.Publish(std::move(published));
  const std::shared_ptr<const QuerySnapshot> current = store.Current();
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    EXPECT_EQ(&current->pools[p].groups, &snapshot.pools[p].groups);
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
  const std::shared_ptr<const SnapshotIndex> index =
      snapshot.GetIndex();
  ASSERT_TRUE(index->classify_status().ok())
      << index->classify_status().ToString();
  EXPECT_EQ(snapshot.GetIndex(), index);

  // Copies and published snapshots share the built index.
  QuerySnapshot copy = snapshot;
  EXPECT_EQ(copy.GetIndex(), index);
  SnapshotStore store;
  store.Publish(QuerySnapshot(snapshot));
  EXPECT_EQ(store.Current()->GetIndex(), index);

  // A copy whose pools change gets a fresh index that sees the new pool;
  // the original keeps its own.
  Vector far(copy.dim);
  for (std::size_t d = 0; d < copy.dim; ++d) far[d] = 100.0;
  GroupStatistics far_group(copy.dim);
  far_group.Add(far);
  CondensedGroupSet extra(copy.dim, 3);
  extra.AddGroup(far_group);
  copy.pools.push_back({7, extra});
  const std::shared_ptr<const SnapshotIndex> fresh = copy.GetIndex();
  EXPECT_NE(fresh, index);
  EXPECT_EQ(snapshot.GetIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "with the far pool");
  ExpectClassifyMatchesReference(snapshot, {far}, 1, "original");
  ExpectAggregateMatchesOracles(copy, RangePredicate{}, "with the far pool");
  ExpectAggregateMatchesOracles(snapshot, RangePredicate{}, "original");

  // Same pool count, different pool: still fresh, never the stale one.
  copy.pools.pop_back();
  copy.pools.push_back({8, extra});
  EXPECT_NE(copy.GetIndex(), fresh);
  EXPECT_NE(copy.GetIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "with the relabeled pool");

  // Back to the original pools: the holder keeps only its newest index,
  // so this is another fresh one, answering as the original does.
  copy.pools.pop_back();
  EXPECT_NE(copy.GetIndex(), index);
  ExpectClassifyMatchesReference(copy, {far}, 1, "pool removed");

  // A changed dimension invalidates too.
  QuerySnapshot other_dim = snapshot;
  other_dim.dim = snapshot.dim + 1;
  EXPECT_NE(other_dim.GetIndex(), index);
}

// One regenerate through the engine against the per-group reference,
// bit for bit.
void ExpectRegenerateMatchesReference(const QuerySnapshot& snapshot,
                                      const RangePredicate& range,
                                      const std::string& what) {
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.range = range;
  query.regenerate.seed = 77;
  query.regenerate.records_per_group = 2;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
  const RegenerateResult want = ReferenceRegenerate(snapshot, query.regenerate);
  EXPECT_EQ(result->regenerate.groups_matched, want.groups_matched) << what;
  ASSERT_EQ(result->regenerate.records.size(), want.records.size()) << what;
  for (std::size_t r = 0; r < want.records.size(); ++r) {
    ExpectSameBits(result->regenerate.records[r], want.records[r],
                   what + " record " + std::to_string(r));
  }
}

// "[lo, hi]", for failure messages (appends: GCC 12 misreads
// "literal" + std::string under -Wrestrict).
std::string RangeText(double lo, double hi) {
  std::string text = "[";
  text += std::to_string(lo);
  text += ", ";
  text += std::to_string(hi);
  text += "]";
  return text;
}

// A two-record group whose centroid is exactly `center` on dimension 0
// (the records sit ±0.25 off it, so Fs_0 = 2·center exactly) and random
// on the others.
GroupStatistics GroupCenteredAt(std::size_t dim, double center, Rng& rng) {
  GroupStatistics group(dim);
  for (double offset : {-0.25, 0.25}) {
    Vector record(dim);
    record[0] = center + offset;
    for (std::size_t d = 1; d < dim; ++d) record[d] = rng.Gaussian(0.0, 2.0);
    group.Add(record);
  }
  return group;
}

TEST(QueryParityTest, AggregateOnTiedCentroidsAcrossBlockBoundaries) {
  // Most of 180 groups (more than two blocks' worth, asserted below)
  // share the centroid coordinate 1.0 on dimension 0, interleaved across
  // three pools with groups at 0.5 and 1.5: the tie spans several
  // 32-group blocks, and ranges end exactly on it.
  Rng rng(12);
  QuerySnapshot snapshot;
  snapshot.dim = 3;
  std::size_t tied = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    CondensedGroupSet groups(snapshot.dim, 2);
    for (int g = 0; g < 60; ++g) {
      const double center =
          rng.Bernoulli(0.6) ? 1.0 : (rng.Bernoulli(0.5) ? 0.5 : 1.5);
      if (center == 1.0) ++tied;
      groups.AddGroup(GroupCenteredAt(snapshot.dim, center, rng));
    }
    snapshot.pools.push_back({static_cast<int>(p) - 1, std::move(groups)});
  }
  ASSERT_GT(tied, 2 * SnapshotIndex::kBlock);

  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {0.5, 1.0}, {1.0, 1.5}, {0.5, 1.5}, {0.75, 1.25},
           {0.5, 0.5}, {1.5, 1.5}, {0.0, 0.9999999999999999}}) {
    RangePredicate range;
    range.bounds.push_back({0, lo, hi});
    const std::string what = RangeText(lo, hi);
    ExpectAggregateMatchesOracles(snapshot, range, what);
    ExpectRegenerateMatchesReference(snapshot, range, what);
    // Boxed with a bound on dimension 1, the range takes the candidate
    // walk instead.
    range.bounds.push_back({1, -1.0, 1.0});
    ExpectAggregateMatchesOracles(snapshot, range, what + " boxed");
  }
  RangePredicate exact;
  exact.bounds.push_back({0, 1.0, 1.0});
  QueryEngine engine;
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range = exact;
  auto result = engine.Execute(snapshot, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->aggregate.groups_matched, tied);
  EXPECT_EQ(result->aggregate.records, 2 * tied);
}

TEST(QueryParityTest, AggregateTreatsSignedZerosAlike) {
  // Single-record groups at -0.0 and +0.0 on dimension 0 (built from raw
  // sums: Add starts from +0.0 and would erase the sign), shuffled among
  // groups at ±1 so both zeros cross a block boundary.
  Rng rng(13);
  std::vector<GroupStatistics> made;
  for (int g = 0; g < 70; ++g) {
    const double x = g < 25 ? -0.0 : g < 50 ? 0.0 : (g % 2 == 0 ? -1.0 : 1.0);
    Vector first(2);
    first[0] = x;
    first[1] = rng.Gaussian(0.0, 2.0);
    Matrix second(2, 2);
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) second(i, j) = first[i] * first[j];
    }
    made.push_back(GroupStatistics::FromRawSums(1, first, second));
  }
  for (std::size_t i = made.size(); i > 1; --i) {
    std::swap(made[i - 1], made[rng.UniformIndex(i)]);
  }
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  CondensedGroupSet groups(2, 1);
  for (const GroupStatistics& group : made) groups.AddGroup(group);
  snapshot.pools.push_back({0, std::move(groups)});
  // The index keeps each zero's sign.
  const std::shared_ptr<const SnapshotIndex> index = snapshot.GetIndex();
  std::size_t negative_zeros = 0;
  for (std::size_t ordinal = 0; ordinal < index->size(); ++ordinal) {
    const double x = index->coordinate(ordinal, 0);
    if (x == 0.0 && std::signbit(x)) ++negative_zeros;
  }
  EXPECT_EQ(negative_zeros, 25u);

  for (const auto& [lo, hi, matched] :
       std::vector<std::tuple<double, double, std::uint64_t>>{
           {-0.0, -0.0, 50}, {0.0, 0.0, 50}, {-0.0, 0.0, 50}, {0.0, -0.0, 50},
           {-1.0, -0.0, 60}, {0.0, 1.0, 60}, {-1.0, 1.0, 70}}) {
    RangePredicate range;
    range.bounds.push_back({0, lo, hi});
    const std::string what = RangeText(lo, hi);
    ExpectAggregateMatchesOracles(snapshot, range, what);
    ExpectRegenerateMatchesReference(snapshot, range, what);
    QueryEngine engine;
    Query query;
    query.kind = QueryKind::kAggregate;
    query.aggregate.range = range;
    auto result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->aggregate.groups_matched, matched) << what;
  }
}

TEST(QueryParityTest, AggregateOfEmptyAndOutsideRanges) {
  Rng rng(14);
  QuerySnapshot snapshot;
  snapshot.dim = 2;
  CondensedGroupSet groups(2, 3);
  for (int g = 0; g < 150; ++g) groups.AddGroup(RandomGroup(2, rng));
  snapshot.pools.push_back({1, std::move(groups)});

  // Empty: above, below, and in a gap between two adjacent centroids.
  std::vector<double> keys;
  for (const GroupStatistics& group : snapshot.pools[0].groups.groups()) {
    keys.push_back(group.Centroid()[1]);
  }
  std::sort(keys.begin(), keys.end());
  std::size_t gap = 0;
  while (gap + 1 < keys.size() && !(keys[gap] < keys[gap + 1])) ++gap;
  ASSERT_LT(gap + 1, keys.size());
  const double inside_gap = keys[gap] + (keys[gap + 1] - keys[gap]) / 2;
  ASSERT_LT(keys[gap], inside_gap);
  ASSERT_LT(inside_gap, keys[gap + 1]);
  QueryEngine engine;
  for (const RangePredicate::Bound& bound : std::vector<RangePredicate::Bound>{
           {0, 100.0, 200.0}, {1, -200.0, -100.0},
           {1, inside_gap, inside_gap}}) {
    RangePredicate range;
    range.bounds.push_back(bound);
    ExpectAggregateMatchesOracles(snapshot, range, "empty");
    ExpectRegenerateMatchesReference(snapshot, range, "empty");
    Query query;
    query.kind = QueryKind::kAggregate;
    query.aggregate.range = range;
    auto result = engine.Execute(snapshot, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->aggregate.groups_matched, 0u);
    EXPECT_EQ(result->aggregate.records, 0u);
    EXPECT_FALSE(result->aggregate.has_moments);
  }

  // A range past both ends of the data selects everything; on dimension
  // 0 it reads the same root a match-all range reads, bit for bit.
  Query all;
  all.kind = QueryKind::kAggregate;
  auto match_all = engine.Execute(snapshot, all);
  ASSERT_TRUE(match_all.ok()) << match_all.status().ToString();
  EXPECT_EQ(match_all->aggregate.groups_matched, 150u);
  for (std::size_t dim : {0u, 1u}) {
    RangePredicate range;
    range.bounds.push_back({dim, -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::max()});
    ExpectAggregateMatchesOracles(snapshot, range, "everything");
    if (dim == 0) {
      Query query;
      query.kind = QueryKind::kAggregate;
      query.aggregate.range = range;
      auto result = engine.Execute(snapshot, query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameAggregate(result->aggregate, match_all->aggregate,
                          "dimension-0 range vs match-all");
    }
  }
  ExpectAggregateMatchesOracles(snapshot, RangePredicate{}, "match-all");
}

TEST(QueryParityTest, QueriesOverEmptyAndUnlabeledPools) {
  Rng rng(15);
  QuerySnapshot snapshot;
  snapshot.dim = 3;
  for (const auto& [label, count] : std::vector<std::pair<int, int>>{
           {-1, 0}, {0, 40}, {-1, 0}, {-1, 50}, {1, 30}, {2, 0}}) {
    CondensedGroupSet groups(snapshot.dim, 3);
    for (int g = 0; g < count; ++g) {
      groups.AddGroup(RandomGroup(snapshot.dim, rng));
    }
    snapshot.pools.push_back({label, std::move(groups)});
  }
  for (int q = 0; q < 24; ++q) {
    const RangePredicate range = RandomRange(snapshot, rng);
    ExpectAggregateMatchesOracles(snapshot, range,
                                  "query " + std::to_string(q));
    ExpectRegenerateMatchesReference(snapshot, range,
                                     "query " + std::to_string(q));
  }
  ExpectAggregateMatchesOracles(snapshot, RangePredicate{}, "match-all");
  ExpectClassifyMatchesReference(snapshot, RandomPoints(snapshot.dim, 16, rng),
                                 5, "empty and unlabeled pools");

  // Pools that are all empty: every range selects nothing.
  QuerySnapshot empty;
  empty.dim = 3;
  empty.pools.push_back({0, CondensedGroupSet(3, 3)});
  empty.pools.push_back({-1, CondensedGroupSet(3, 3)});
  RangePredicate bounded;
  bounded.bounds.push_back({2, -1.0, 1.0});
  for (const RangePredicate& range : {RangePredicate{}, bounded}) {
    ExpectAggregateMatchesOracles(empty, range, "all pools empty");
    ExpectRegenerateMatchesReference(empty, range, "all pools empty");
  }
}

}  // namespace
}  // namespace condensa::query
