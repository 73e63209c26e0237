#include "core/static_condenser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "linalg/stats.h"
#include "obs/metrics.h"

namespace condensa::core {
namespace {

using linalg::Vector;

std::vector<Vector> RandomCloud(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<Vector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.Gaussian();
    }
    points.push_back(std::move(p));
  }
  return points;
}

TEST(StaticCondenserTest, RejectsInvalidInput) {
  StaticCondenser condenser({.group_size = 5});
  Rng rng(1);
  EXPECT_FALSE(condenser.Condense({}, rng).ok());
  EXPECT_FALSE(condenser.Condense(RandomCloud(4, 2, rng), rng).ok());
  StaticCondenser zero_k({.group_size = 0});
  EXPECT_FALSE(zero_k.Condense(RandomCloud(10, 2, rng), rng).ok());
}

TEST(StaticCondenserTest, RejectsInconsistentDimensions) {
  StaticCondenser condenser({.group_size = 2});
  Rng rng(2);
  std::vector<Vector> points = {Vector{1.0, 2.0}, Vector{1.0}};
  EXPECT_FALSE(condenser.Condense(points, rng).ok());
}

TEST(StaticCondenserTest, RejectsNonFiniteCoordinatesOnBothPaths) {
  // A NaN has no place in the (distance, index) order, so the scan and
  // the index would group it differently; both refuse it up front.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Rng data_rng(4);
    std::vector<Vector> points = RandomCloud(3000, 3, data_rng);
    for (std::size_t i = 0; i < points.size(); i += 3) points[i][1] = bad;
    for (NeighbourSearch search :
         {NeighbourSearch::kBruteForce, NeighbourSearch::kKdTree,
          NeighbourSearch::kAuto}) {
      StaticCondenser condenser({.group_size = 5, .neighbour_search = search});
      Rng rng(5);
      StatusOr<CondensedGroupSet> groups = condenser.Condense(points, rng);
      ASSERT_FALSE(groups.ok());
      EXPECT_EQ(groups.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(StaticCondenserTest, AllRecordsLandInGroups) {
  Rng rng(3);
  std::vector<Vector> points = RandomCloud(103, 3, rng);
  StaticCondenser condenser({.group_size = 10});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->TotalRecords(), 103u);
}

TEST(StaticCondenserTest, EveryGroupHasAtLeastKRecords) {
  Rng rng(4);
  std::vector<Vector> points = RandomCloud(97, 2, rng);
  for (std::size_t k : {2u, 5u, 10u, 25u}) {
    StaticCondenser condenser({.group_size = k});
    auto groups = condenser.Condense(points, rng);
    ASSERT_TRUE(groups.ok());
    PrivacySummary summary = groups->Summary();
    EXPECT_GE(summary.min_group_size, k) << "k=" << k;
    // Leftover assignment can push a few groups past k but never creates
    // a group beyond 2k-1 + leftovers.
    EXPECT_LT(summary.max_group_size, 2 * k) << "k=" << k;
  }
}

TEST(StaticCondenserTest, ExactMultipleGivesUniformGroups) {
  Rng rng(5);
  std::vector<Vector> points = RandomCloud(100, 2, rng);
  StaticCondenser condenser({.group_size = 10});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->num_groups(), 10u);
  for (const GroupStatistics& g : groups->groups()) {
    EXPECT_EQ(g.count(), 10u);
  }
}

TEST(StaticCondenserTest, GroupSizeOneGivesSingletons) {
  Rng rng(6);
  std::vector<Vector> points = RandomCloud(20, 2, rng);
  StaticCondenser condenser({.group_size = 1});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->num_groups(), 20u);
  for (const GroupStatistics& g : groups->groups()) {
    EXPECT_EQ(g.count(), 1u);
  }
}

TEST(StaticCondenserTest, WholeDatasetAsOneGroup) {
  Rng rng(7);
  std::vector<Vector> points = RandomCloud(15, 2, rng);
  StaticCondenser condenser({.group_size = 15});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->num_groups(), 1u);
  EXPECT_EQ(groups->group(0).count(), 15u);
}

TEST(StaticCondenserTest, AggregateMomentsMatchInputExactly) {
  // The union of all group statistics must reproduce the dataset's global
  // first- and second-order sums (nothing is lost or invented).
  Rng rng(8);
  std::vector<Vector> points = RandomCloud(57, 3, rng);
  StaticCondenser condenser({.group_size = 8});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());

  GroupStatistics merged(3);
  for (const GroupStatistics& g : groups->groups()) {
    merged.Merge(g);
  }
  GroupStatistics direct(3);
  for (const Vector& p : points) {
    direct.Add(p);
  }
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_TRUE(linalg::ApproxEqual(merged.first_order(), direct.first_order(),
                                  1e-8));
  EXPECT_TRUE(linalg::ApproxEqual(merged.second_order(),
                                  direct.second_order(), 1e-6));
}

TEST(StaticCondenserTest, GroupsAreSpatiallyLocal) {
  // Two well-separated clusters with k = cluster size: each group must sit
  // inside one cluster, never straddle both.
  Rng rng(9);
  std::vector<Vector> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back(Vector{rng.Gaussian(), rng.Gaussian()});
  }
  for (int i = 0; i < 30; ++i) {
    points.push_back(Vector{rng.Gaussian(100.0, 1.0), rng.Gaussian()});
  }
  StaticCondenser condenser({.group_size = 10});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  for (const GroupStatistics& g : groups->groups()) {
    double x = g.Centroid()[0];
    EXPECT_TRUE(x < 20.0 || x > 80.0)
        << "group straddles the two clusters, centroid x=" << x;
    // Straddling groups would also show huge x-variance.
    EXPECT_LT(g.Covariance()(0, 0), 100.0);
  }
}

TEST(StaticCondenserTest, DeterministicGivenSeed) {
  Rng data_rng(10);
  std::vector<Vector> points = RandomCloud(40, 2, data_rng);
  StaticCondenser condenser({.group_size = 7});
  Rng rng_a(11), rng_b(11);
  auto a = condenser.Condense(points, rng_a);
  auto b = condenser.Condense(points, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_groups(), b->num_groups());
  for (std::size_t i = 0; i < a->num_groups(); ++i) {
    EXPECT_EQ(a->group(i).count(), b->group(i).count());
    EXPECT_TRUE(linalg::ApproxEqual(a->group(i).first_order(),
                                    b->group(i).first_order(), 0.0));
  }
}

void ExpectBitIdentical(const CondensedGroupSet& a,
                        const CondensedGroupSet& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (std::size_t i = 0; i < a.num_groups(); ++i) {
    EXPECT_EQ(a.group(i).count(), b.group(i).count()) << "group " << i;
    EXPECT_TRUE(linalg::ApproxEqual(a.group(i).first_order(),
                                    b.group(i).first_order(), 0.0))
        << "group " << i;
    EXPECT_TRUE(linalg::ApproxEqual(a.group(i).second_order(),
                                    b.group(i).second_order(), 0.0))
        << "group " << i;
  }
}

TEST(StaticCondenserTest, IndexAndScanPathsAreBitIdentical) {
  // The tentpole contract: the deletion-aware k-d tree path must select
  // the same neighbours, in the same order, from the same seed draws as
  // the brute-force scan — groups identical down to the last bit.
  Rng data_rng(20);
  std::vector<Vector> points = RandomCloud(450, 3, data_rng);
  for (std::size_t k : {2u, 7u, 25u}) {
    StaticCondenser brute({.group_size = k,
                           .neighbour_search = NeighbourSearch::kBruteForce});
    StaticCondenser indexed({.group_size = k,
                             .neighbour_search = NeighbourSearch::kKdTree});
    Rng rng_a(21), rng_b(21);
    auto a = brute.Condense(points, rng_a);
    auto b = indexed.Condense(points, rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b);
  }
}

TEST(StaticCondenserTest, IndexAndScanPathsAreBitIdenticalAtScale) {
  // Large enough that the index rebuilds many times over a run, and
  // quantized to a 1/8 grid so distance ties are common at every size.
  Rng data_rng(30);
  std::vector<Vector> points = RandomCloud(20000, 3, data_rng);
  for (Vector& p : points) {
    for (std::size_t d = 0; d < p.dim(); ++d) {
      p[d] = std::round(p[d] * 8.0) / 8.0;
    }
  }
  for (std::size_t k : {2u, 10u}) {
    StaticCondenser brute({.group_size = k,
                           .neighbour_search = NeighbourSearch::kBruteForce});
    StaticCondenser indexed({.group_size = k,
                             .neighbour_search = NeighbourSearch::kKdTree});
    Rng rng_a(31), rng_b(31);
    auto a = brute.Condense(points, rng_a);
    auto b = indexed.Condense(points, rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b);
  }
}

TEST(StaticCondenserTest, AutoModeMatchesBruteForceAcrossTheThreshold) {
  // kAuto flips to the index at kAutoIndexThreshold records; results must
  // not change at the cutover. One input sits just below it, one at it.
  obs::Counter& index_runs =
      obs::DefaultRegistry().GetCounter("condensa_static_index_runs_total");
  StaticCondenser brute({.group_size = 6,
                         .neighbour_search = NeighbourSearch::kBruteForce});
  StaticCondenser automatic({.group_size = 6,
                             .neighbour_search = NeighbourSearch::kAuto});
  for (const std::size_t n : {kAutoIndexThreshold - 1, kAutoIndexThreshold}) {
    Rng data_rng(22);
    std::vector<Vector> points = RandomCloud(n, 2, data_rng);
    Rng rng_a(23), rng_b(23);
    auto a = brute.Condense(points, rng_a);
    const std::uint64_t runs_before = index_runs.value();
    auto b = automatic.Condense(points, rng_b);
    EXPECT_EQ(index_runs.value() - runs_before,
              n >= kAutoIndexThreshold ? 1u : 0u)
        << "n=" << n;
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b);
  }
}

TEST(StaticCondenserTest, EquidistantNeighboursPickLowestOriginalIndex) {
  // Regression test for the distance tie-break: with massive distance
  // degeneracy (every point on a small integer grid, many duplicates) the
  // neighbour choice must be pinned by original record index, not by the
  // survivor array's churn order — which also makes scan and index paths
  // agree bit-for-bit.
  std::vector<Vector> points;
  for (int i = 0; i < 120; ++i) {
    points.push_back(Vector{static_cast<double>(i % 4),
                            static_cast<double>((i / 4) % 3)});
  }
  for (std::size_t k : {3u, 8u}) {
    StaticCondenser brute({.group_size = k,
                           .neighbour_search = NeighbourSearch::kBruteForce});
    StaticCondenser indexed({.group_size = k,
                             .neighbour_search = NeighbourSearch::kKdTree});
    Rng rng_a(24), rng_b(24);
    auto a = brute.Condense(points, rng_a);
    auto b = indexed.Condense(points, rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(*a, *b);
  }
}

TEST(StaticCondenserTest, AllCoincidentPointsCondenseOnBothPaths) {
  // Every point identical: the k-d tree degenerates to a zero-spread leaf
  // and every distance ties at 0.
  std::vector<Vector> points(64, Vector{2.5, -1.0, 3.0});
  for (NeighbourSearch search :
       {NeighbourSearch::kBruteForce, NeighbourSearch::kKdTree}) {
    StaticCondenser condenser({.group_size = 8, .neighbour_search = search});
    Rng rng(25);
    auto groups = condenser.Condense(points, rng);
    ASSERT_TRUE(groups.ok());
    EXPECT_EQ(groups->num_groups(), 8u);
    for (const GroupStatistics& g : groups->groups()) {
      EXPECT_EQ(g.count(), 8u);
      EXPECT_TRUE(
          linalg::ApproxEqual(g.Centroid(), Vector{2.5, -1.0, 3.0}, 1e-12));
    }
  }
}

TEST(StaticCondenserTest, GroupSizeOneWorksOnTheIndexPath) {
  // k = 1 means zero neighbours per seed: the index must tolerate
  // KNearestAlive(., 0) and pure seed-deletion churn.
  Rng data_rng(26);
  std::vector<Vector> points = RandomCloud(40, 2, data_rng);
  StaticCondenser indexed(
      {.group_size = 1, .neighbour_search = NeighbourSearch::kKdTree});
  Rng rng(27);
  auto groups = indexed.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->num_groups(), 40u);
  EXPECT_EQ(groups->TotalRecords(), 40u);
  for (const GroupStatistics& g : groups->groups()) {
    EXPECT_EQ(g.count(), 1u);
  }
}

TEST(StaticCondenserTest, LeftoverAbsorptionAgreesAcrossPaths) {
  // n % k != 0 exercises the centroid-index leftover routing on top of
  // the neighbour search; totals and group contents must still match.
  Rng data_rng(28);
  std::vector<Vector> points = RandomCloud(509, 4, data_rng);
  StaticCondenser brute({.group_size = 25,
                         .neighbour_search = NeighbourSearch::kBruteForce});
  StaticCondenser indexed({.group_size = 25,
                           .neighbour_search = NeighbourSearch::kKdTree});
  Rng rng_a(29), rng_b(29);
  auto a = brute.Condense(points, rng_a);
  auto b = indexed.Condense(points, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->TotalRecords(), 509u);
  ExpectBitIdentical(*a, *b);
}

// Property sweep: the k-indistinguishability invariant holds for any
// (n, k) combination.
class StaticCondenserPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(StaticCondenserPropertyTest, InvariantsHold) {
  auto [n, k] = GetParam();
  Rng rng(100 + n * 7 + k);
  std::vector<Vector> points = RandomCloud(n, 4, rng);
  StaticCondenser condenser({.group_size = k});
  auto groups = condenser.Condense(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->TotalRecords(), n);
  EXPECT_GE(groups->Summary().min_group_size, k);
  EXPECT_EQ(groups->num_groups(), n / k);
}

INSTANTIATE_TEST_SUITE_P(
    SizeByK, StaticCondenserPropertyTest,
    ::testing::Combine(::testing::Values(10, 23, 50, 64, 101),
                       ::testing::Values(1, 2, 3, 5, 10)));

}  // namespace
}  // namespace condensa::core
