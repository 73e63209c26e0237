// Wall-time floors for static condensation's neighbour search (paper
// Fig. 1): the deletion-aware kd-tree against the brute-force scan on one
// 100k x 10 unlabeled Gaussian pool, k in {10, 25}.
//
// The gated number is a ratio of two timings from the same process on
// the same machine (brute seconds / kd-tree seconds), so it transfers
// across hosts and damps load that slows both paths together. Smaller
// pools are not gated: at n = 5k the two paths take ~15 ms each and
// their ratio swings ±40% run to run, while at n = 100k it holds to
// ~±10%. Each floor is 0.9x the lowest speedup of five full captures on
// the reference machine (4.4594 at k = 10, 2.693 at k = 25).
//
// tests/CMakeLists.txt registers this binary only in optimised builds
// without sanitizers, and marks its cases RUN_SERIAL so that `ctest -j`
// does not skew the ratio.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/serialization.h"
#include "core/static_condenser.h"
#include "linalg/vector.h"
#include "obs/timing.h"

namespace condensa::core {
namespace {

using linalg::Vector;

constexpr std::size_t kRecords = 100'000;
constexpr std::size_t kDim = 10;

std::vector<Vector> MakeCloud(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  Rng rng(seed);
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

struct TimedCondense {
  double seconds = 0.0;
  std::string serialized;
};

TimedCondense Condense(NeighbourSearch search, std::size_t k,
                       const std::vector<Vector>& points,
                       std::uint64_t seed) {
  StaticCondenser condenser({.group_size = k, .neighbour_search = search});
  Rng rng(seed);
  obs::Timer timer;
  StatusOr<CondensedGroupSet> groups = condenser.Condense(points, rng);
  TimedCondense timed;
  timed.seconds = timer.ElapsedSeconds();
  EXPECT_TRUE(groups.ok()) << groups.status().ToString();
  if (groups.ok()) timed.serialized = SerializeGroupSet(*groups);
  return timed;
}

// Condenses the pool on both paths, checks that they release the same
// group set byte for byte, and that the kd-tree is at least `floor`
// times faster.
void ExpectKdTreeSpeedupAtLeast(std::size_t k, double floor) {
  const std::vector<Vector> points =
      MakeCloud(kRecords, kDim, 7'000 + kRecords);
  const std::uint64_t seed = 11 * kRecords + k;
  const TimedCondense brute =
      Condense(NeighbourSearch::kBruteForce, k, points, seed);
  const TimedCondense indexed =
      Condense(NeighbourSearch::kKdTree, k, points, seed);

  ASSERT_FALSE(brute.serialized.empty());
  EXPECT_TRUE(brute.serialized == indexed.serialized)
      << "brute-force and kd-tree group sets differ at k = " << k;
  const double speedup = brute.seconds / indexed.seconds;
  std::printf("n=%zu k=%zu: brute %.3fs, kd-tree %.3fs, speedup %.2fx "
              "(floor %.4f)\n",
              kRecords, k, brute.seconds, indexed.seconds, speedup, floor);
  EXPECT_GE(speedup, floor)
      << "brute " << brute.seconds << " s, kd-tree " << indexed.seconds
      << " s";
}

TEST(CondenseSpeedupTest, KdTreeBeatsBruteForceAt100kK10) {
  ExpectKdTreeSpeedupAtLeast(10, 0.9 * 4.4594);
}

TEST(CondenseSpeedupTest, KdTreeBeatsBruteForceAt100kK25) {
  ExpectKdTreeSpeedupAtLeast(25, 0.9 * 2.693);
}

}  // namespace
}  // namespace condensa::core
