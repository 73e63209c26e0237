#include "index/deletion_aware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "linalg/vector.h"
#include "obs/metrics.h"

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

// The reference the wrapper must match bit-for-bit: scan the alive
// points, order by (squared distance, original index).
std::vector<std::pair<double, std::size_t>> BruteKNearest(
    const std::vector<Vector>& points, const std::vector<bool>& alive,
    const Vector& query, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!alive[i]) continue;
    hits.emplace_back(linalg::SquaredDistance(points[i], query), i);
  }
  std::sort(hits.begin(), hits.end());
  if (hits.size() > k) hits.resize(k);
  return hits;
}

TEST(DeletionAwareKdTreeTest, RejectsEmptyInput) {
  EXPECT_FALSE(DeletionAwareKdTree::Build({}).ok());
}

TEST(DeletionAwareKdTreeTest, MatchesBruteForceWithoutDeletions) {
  Rng rng(1);
  std::vector<Vector> points = RandomCloud(200, 3, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->alive_count(), 200u);
  std::vector<bool> alive(points.size(), true);
  for (int trial = 0; trial < 20; ++trial) {
    Vector query{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    EXPECT_EQ(tree->KNearestAlive(query, 7),
              BruteKNearest(points, alive, query, 7));
  }
}

TEST(DeletionAwareKdTreeTest, MatchesBruteForceUnderInterleavedDeletions) {
  // Erase points between queries, past the 50% rebuild threshold (and
  // through the rebuilds after it), and check every answer against the
  // alive-only scan.
  Rng rng(2);
  std::vector<Vector> points = RandomCloud(300, 4, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::vector<bool> alive(points.size(), true);
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  std::size_t erased = 0;
  for (std::size_t round = 0; round < 28; ++round) {
    for (std::size_t j = 0; j < 10; ++j) {
      std::size_t victim = order[erased++];
      tree->Erase(victim);
      alive[victim] = false;
    }
    ASSERT_EQ(tree->alive_count(), points.size() - erased);
    Vector query(4);
    for (std::size_t d = 0; d < 4; ++d) query[d] = rng.Gaussian();
    EXPECT_EQ(tree->KNearestAlive(query, 9),
              BruteKNearest(points, alive, query, 9))
        << "after erasing " << erased << " points";
  }
}

TEST(DeletionAwareKdTreeTest, ErasedPointNeverReturned) {
  Rng rng(3);
  std::vector<Vector> points = RandomCloud(50, 2, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  Vector query = points[17];
  auto before = tree->KNearestAlive(query, 1);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].second, 17u);
  tree->Erase(17);
  EXPECT_FALSE(tree->alive(17));
  for (const auto& [dist, idx] : tree->KNearestAlive(query, 49)) {
    EXPECT_NE(idx, 17u);
  }
}

TEST(DeletionAwareKdTreeTest, TiesBreakByOriginalIndex) {
  // Many coincident points: every distance ties, so ordering must come
  // from the original index alone.
  std::vector<Vector> points(20, Vector{1.0, 1.0});
  points.push_back(Vector{5.0, 5.0});
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  auto hits = tree->KNearestAlive(Vector{1.0, 1.0}, 5);
  ASSERT_EQ(hits.size(), 5u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, 0.0);
    EXPECT_EQ(hits[i].second, i);
  }
  // Erasing low indices shifts the selection to the next-lowest ones.
  tree->Erase(0);
  tree->Erase(2);
  auto after = tree->KNearestAlive(Vector{1.0, 1.0}, 3);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].second, 1u);
  EXPECT_EQ(after[1].second, 3u);
  EXPECT_EQ(after[2].second, 4u);
}

TEST(DeletionAwareKdTreeTest, KClampsToAliveCount) {
  Rng rng(4);
  std::vector<Vector> points = RandomCloud(10, 2, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  tree->Erase(0);
  tree->Erase(1);
  auto hits = tree->KNearestAlive(Vector{0.0, 0.0}, 100);
  EXPECT_EQ(hits.size(), 8u);
}

TEST(DeletionAwareKdTreeTest, SurvivesErasingAllButOne) {
  // Drives several rebuilds in a row and ends on a single-point tree.
  Rng rng(5);
  std::vector<Vector> points = RandomCloud(128, 3, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    tree->Erase(i);
  }
  EXPECT_EQ(tree->alive_count(), 1u);
  auto hits = tree->KNearestAlive(Vector{0.0, 0.0, 0.0}, 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].second, points.size() - 1);
}

TEST(DeletionAwareKdTreeTest, DuplicateHeavyDataMatchesBruteAcrossRebuilds) {
  // Points on a 5x5x3 grid, ~27 copies each: every query sits on a grid
  // point, so the k-th distance ties across many alive points and the
  // original index alone decides the boundary. Each rebuild reads the
  // survivors back from the previous tree's storage, so a wrong row or
  // key after any of them shows up as a mismatch here.
  Rng rng(7);
  std::vector<Vector> points;
  for (std::size_t i = 0; i < 2000; ++i) {
    points.push_back(Vector{static_cast<double>(rng.UniformIndex(5)),
                            static_cast<double>(rng.UniformIndex(5)),
                            static_cast<double>(rng.UniformIndex(3))});
  }
  obs::Counter& rebuilds = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_rebuilds_total");
  const std::uint64_t rebuilds_before = rebuilds.value();
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::vector<bool> alive(points.size(), true);
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  for (std::size_t erased = 0; erased + 10 < points.size();) {
    for (std::size_t j = 0; j < 25 && erased + 10 < points.size(); ++j) {
      const std::size_t victim = order[erased++];
      tree->Erase(victim);
      alive[victim] = false;
      EXPECT_FALSE(tree->alive(victim));
    }
    const Vector& query = points[order[erased]];
    for (std::size_t k : {1u, 9u, 40u}) {
      ASSERT_EQ(tree->KNearestAlive(query, k),
                BruteKNearest(points, alive, query, k))
          << "k=" << k << " after erasing " << erased << " points";
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(tree->alive(i), alive[i]) << "point " << i;
  }
  // 2000 -> 10 survivors halves the tree about seven times.
  EXPECT_GE(rebuilds.value() - rebuilds_before, 5u);
}

TEST(DeletionAwareKdTreeTest, WrapperSurvivesMove) {
  // The condenser moves the wrapper out of StatusOr; the tree it owns
  // must answer the same afterwards.
  Rng rng(6);
  std::vector<Vector> points = RandomCloud(64, 2, rng);
  auto built = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(built.ok());
  DeletionAwareKdTree tree = std::move(built).value();
  tree.Erase(10);
  std::vector<bool> alive(points.size(), true);
  alive[10] = false;
  Vector query{0.1, -0.2};
  EXPECT_EQ(tree.KNearestAlive(query, 6),
            BruteKNearest(points, alive, query, 6));
}

}  // namespace
}  // namespace condensa::index
