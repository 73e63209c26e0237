#include "index/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mining/knn.h"

namespace condensa::index {
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

// Brute-force reference: indices of the k nearest points, sorted by
// distance with index as tiebreaker.
std::vector<std::size_t> BruteKNearest(const std::vector<Vector>& points,
                                       const Vector& query, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> distances;
  for (std::size_t i = 0; i < points.size(); ++i) {
    distances.emplace_back(linalg::SquaredDistance(points[i], query), i);
  }
  std::sort(distances.begin(), distances.end());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(k, points.size()); ++i) {
    out.push_back(distances[i].second);
  }
  return out;
}

TEST(KdTreeTest, BuildValidatesInput) {
  EXPECT_FALSE(KdTree::Build({}).ok());
  std::vector<Vector> ragged = {Vector{1.0}, Vector{1.0, 2.0}};
  EXPECT_FALSE(KdTree::Build(ragged).ok());
}

TEST(KdTreeTest, BuildRejectsNonFiniteCoordinates) {
  // A NaN breaks the median split's strict weak ordering, so no tree is
  // built over one; infinities are refused with it.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<Vector> points = {Vector{0.0, 1.0}, Vector{bad, 2.0},
                                  Vector{3.0, 4.0}};
    StatusOr<KdTree> from_points = KdTree::Build(points);
    ASSERT_FALSE(from_points.ok());
    EXPECT_EQ(from_points.status().code(), StatusCode::kInvalidArgument);
    const std::vector<double> rows = {0.0, 1.0, 2.0, bad};
    StatusOr<KdTree> from_rows = KdTree::Build(rows, 2);
    ASSERT_FALSE(from_rows.ok());
    EXPECT_EQ(from_rows.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KdTreeTest, BuildFromRowsValidatesShape) {
  const std::vector<double> rows = {0.0, 1.0, 2.0};
  EXPECT_FALSE(KdTree::Build(rows, 0).ok());
  EXPECT_FALSE(KdTree::Build(rows, 2).ok());  // not a whole row
  EXPECT_FALSE(KdTree::Build(std::vector<double>{}, 2).ok());
  StatusOr<KdTree> tree = KdTree::Build(rows, 3);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->dim(), 3u);
}

TEST(KdTreeTest, OwnsItsPointsOnceBuilt) {
  // The tree keeps its own copy: overwriting and then freeing the input
  // must not change a single answer (run under ASan, a read of the
  // freed input is a use-after-free report).
  Rng rng(7);
  const std::vector<Vector> reference = RandomCloud(700, 4, rng);
  auto input = std::make_unique<std::vector<Vector>>(reference);
  StatusOr<KdTree> tree = KdTree::Build(*input);
  ASSERT_TRUE(tree.ok());
  for (Vector& p : *input) {
    for (std::size_t d = 0; d < p.dim(); ++d) p[d] = 1e9;
  }
  input.reset();

  EXPECT_EQ(tree->size(), reference.size());
  for (int q = 0; q < 20; ++q) {
    Vector query(4);
    for (std::size_t d = 0; d < 4; ++d) query[d] = rng.Gaussian();
    EXPECT_EQ(tree->KNearest(query, 9), BruteKNearest(reference, query, 9));
    std::vector<std::pair<double, std::size_t>> expected;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expected.emplace_back(linalg::SquaredDistance(reference[i], query), i);
    }
    std::sort(expected.begin(), expected.end());
    expected.resize(9);
    EXPECT_EQ(tree->KNearestKeyed(query, 9, [](std::size_t i) { return i; }),
              expected);
    std::vector<std::size_t> within = tree->RadiusSearchSquared(query, 1.0);
    std::sort(within.begin(), within.end());
    std::vector<std::size_t> brute_within;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (linalg::SquaredDistance(reference[i], query) <= 1.0) {
        brute_within.push_back(i);
      }
    }
    EXPECT_EQ(within, brute_within);
  }
}

TEST(KdTreeTest, PositionsListEveryPointWithItsOwnRow) {
  // PointAt/AppendRow read the tree's storage back: every input row
  // appears exactly once, with its exact coordinates.
  Rng rng(8);
  const std::vector<Vector> points = RandomCloud(300, 3, rng);
  StatusOr<KdTree> tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::vector<bool> seen(points.size(), false);
  for (std::size_t pos = 0; pos < tree->size(); ++pos) {
    const std::size_t row = tree->PointAt(pos);
    ASSERT_LT(row, points.size());
    EXPECT_FALSE(seen[row]);
    seen[row] = true;
    std::vector<double> coords;
    tree->AppendRow(pos, coords);
    EXPECT_EQ(coords, std::vector<double>(points[row].data(),
                                          points[row].data() + 3));
  }
}

TEST(KdTreeTest, KeyedSearchFiltersOversizedCoincidentLeaves) {
  // A cell of coincident points becomes one leaf however large, so the
  // keyed search's candidate list must grow past kLeafSize. The plain
  // search runs first and grows only the distance buffer.
  std::vector<Vector> points(150, Vector{1.0, -1.0});
  Rng rng(9);
  for (const Vector& p : RandomCloud(200, 2, rng)) points.push_back(p);
  for (int i = 0; i < 90; ++i) points.push_back(Vector{-2.0, 2.0});
  StatusOr<KdTree> tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->KNearest(Vector{1.0, -1.0}, 150).size(), 150u);

  // Odd keys only, ranked in reverse: ties at distance 0 resolve by key.
  const auto odd_reversed = [n = points.size()](std::size_t i) {
    return i % 2 == 1 ? n - i : KdTree::kSkipPoint;
  };
  const std::vector<std::pair<double, std::size_t>> hits =
      tree->KNearestKeyed(Vector{-2.0, 2.0}, 40, odd_reversed);
  ASSERT_EQ(hits.size(), 40u);
  // Coincident rows 350..439; the odd ones from the top key down.
  for (std::size_t j = 0; j < hits.size(); ++j) {
    EXPECT_EQ(hits[j].first, 0.0);
    EXPECT_EQ(hits[j].second, points.size() - (439 - 2 * j));
  }
}

TEST(KdTreeTest, NearestOnTinySet) {
  std::vector<Vector> points = {Vector{0.0, 0.0}, Vector{5.0, 5.0},
                                Vector{10.0, 0.0}};
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Nearest(Vector{1.0, 1.0}), 0u);
  EXPECT_EQ(tree->Nearest(Vector{6.0, 4.0}), 1u);
  EXPECT_EQ(tree->Nearest(Vector{9.0, 1.0}), 2u);
}

TEST(KdTreeTest, SinglePoint) {
  std::vector<Vector> points = {Vector{3.0}};
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Nearest(Vector{-100.0}), 0u);
  EXPECT_EQ(tree->KNearest(Vector{0.0}, 5).size(), 1u);
}

TEST(KdTreeTest, DuplicatePointsHandled) {
  std::vector<Vector> points(100, Vector{1.0, 2.0});
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::vector<std::size_t> nn = tree->KNearest(Vector{1.0, 2.0}, 5);
  EXPECT_EQ(nn.size(), 5u);
}

TEST(KdTreeTest, KNearestDistancesAreNonDecreasing) {
  Rng rng(1);
  std::vector<Vector> points = RandomCloud(500, 3, rng);
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  Vector query{0.1, -0.2, 0.3};
  std::vector<std::size_t> nn = tree->KNearest(query, 20);
  ASSERT_EQ(nn.size(), 20u);
  for (std::size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(linalg::SquaredDistance(points[nn[i - 1]], query),
              linalg::SquaredDistance(points[nn[i]], query) + 1e-15);
  }
}

// Property sweep: k-d tree results match brute force across sizes,
// dimensions, and k.
class KdTreePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(KdTreePropertyTest, MatchesBruteForce) {
  auto [n, dim, k] = GetParam();
  Rng rng(10 + n + dim * 31 + k * 97);
  std::vector<Vector> points = RandomCloud(n, dim, rng);
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());

  for (int q = 0; q < 25; ++q) {
    Vector query(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      query[j] = rng.Gaussian(0.0, 1.5);
    }
    std::vector<std::size_t> expected = BruteKNearest(points, query, k);
    std::vector<std::size_t> actual = tree->KNearest(query, k);
    ASSERT_EQ(actual.size(), expected.size());
    // Compare by distance (indices can differ on exact ties).
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(linalg::SquaredDistance(points[actual[i]], query),
                  linalg::SquaredDistance(points[expected[i]], query),
                  1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreePropertyTest,
    ::testing::Combine(::testing::Values(1, 17, 100, 1000),
                       ::testing::Values(1, 2, 5, 8),
                       ::testing::Values(1, 3, 10)));

TEST(KdTreeTest, RadiusSearchMatchesBruteForce) {
  Rng rng(2);
  std::vector<Vector> points = RandomCloud(400, 2, rng);
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());

  Vector query{0.0, 0.0};
  for (double radius : {0.0, 0.3, 1.0, 3.0}) {
    std::vector<std::size_t> actual = tree->RadiusSearch(query, radius);
    std::sort(actual.begin(), actual.end());
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (linalg::SquaredDistance(points[i], query) <= radius * radius) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(actual, expected) << "radius " << radius;
  }
}

TEST(KdTreeTest, RadiusSearchSquaredIncludesBoundaryTies) {
  // The squared-radius entry point exists so callers can pass an exact
  // k-th-neighbour distance and get every boundary tie back — no
  // radius*radius rounding in between.
  std::vector<Vector> points = {Vector{1.0, 0.0}, Vector{0.0, 1.0},
                                Vector{-1.0, 0.0}, Vector{0.0, -1.0},
                                Vector{3.0, 0.0}};
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  Vector origin{0.0, 0.0};
  double boundary_sq = linalg::SquaredDistance(points[0], origin);
  std::vector<std::size_t> hits =
      tree->RadiusSearchSquared(origin, boundary_sq);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(tree->RadiusSearchSquared(origin, 0.5).empty());
}

TEST(KdTreeTest, RadiusSearchSquaredMatchesBruteForce) {
  Rng rng(5);
  std::vector<Vector> points = RandomCloud(300, 3, rng);
  auto tree = KdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  Vector query{0.2, -0.1, 0.4};
  for (double radius_sq : {0.01, 0.5, 2.0, 10.0}) {
    std::vector<std::size_t> actual =
        tree->RadiusSearchSquared(query, radius_sq);
    std::sort(actual.begin(), actual.end());
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (linalg::SquaredDistance(points[i], query) <= radius_sq) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(actual, expected) << "radius_sq " << radius_sq;
  }
}

TEST(KnnIndexIntegrationTest, IndexedClassifierMatchesBruteForce) {
  Rng rng(3);
  data::Dataset train(3, data::TaskType::kClassification);
  for (int i = 0; i < 800; ++i) {
    train.Add(Vector{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()},
              i % 3);
  }
  mining::KnnClassifier brute(
      {.k = 5, .strategy = mining::SearchStrategy::kBruteForce});
  mining::KnnClassifier indexed(
      {.k = 5, .strategy = mining::SearchStrategy::kKdTree});
  ASSERT_TRUE(brute.Fit(train).ok());
  ASSERT_TRUE(indexed.Fit(train).ok());
  EXPECT_FALSE(brute.uses_index());
  EXPECT_TRUE(indexed.uses_index());
  for (int q = 0; q < 100; ++q) {
    Vector query{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    EXPECT_EQ(brute.Predict(query), indexed.Predict(query));
  }
}

TEST(KnnIndexIntegrationTest, AutoStrategyEngagesOnLargeLowDimData) {
  Rng rng(4);
  data::Dataset small(3, data::TaskType::kClassification);
  for (int i = 0; i < 50; ++i) {
    small.Add(Vector{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()}, i % 2);
  }
  mining::KnnClassifier on_small({.k = 1});
  ASSERT_TRUE(on_small.Fit(small).ok());
  EXPECT_FALSE(on_small.uses_index());

  data::Dataset large(3, data::TaskType::kClassification);
  for (int i = 0; i < 1000; ++i) {
    large.Add(Vector{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()}, i % 2);
  }
  mining::KnnClassifier on_large({.k = 1});
  ASSERT_TRUE(on_large.Fit(large).ok());
  EXPECT_TRUE(on_large.uses_index());
}

}  // namespace
}  // namespace condensa::index
