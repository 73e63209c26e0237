#include "core/mdav.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "core/serialization.h"
#include "linalg/vector.h"

namespace condensa::core {
namespace {

using linalg::Vector;

std::vector<Vector> MakePoints(std::size_t n, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.Gaussian(static_cast<double>(i % 3), 1.0);
    }
    points.push_back(std::move(p));
  }
  return points;
}

TEST(MdavTest, EveryGroupSizeIsWithinKAndTwoKMinusOne) {
  for (std::size_t k : {2u, 3u, 5u, 10u}) {
    // n sweeps across every endgame branch: exactly k, the [k, 2k)
    // single-group tail, the [2k, 3k) two-group tail, and larger pools
    // that exercise the main loop.
    for (std::size_t n :
         {k, 2 * k - 1, 2 * k, 3 * k - 1, 3 * k, 4 * k + 1, 10 * k + 3}) {
      auto groups = MdavBuildGroups(MakePoints(n, 4, 17 * n + k), k);
      ASSERT_TRUE(groups.ok()) << "n=" << n << " k=" << k;
      std::size_t total = 0;
      for (const GroupStatistics& group : groups->groups()) {
        EXPECT_GE(group.count(), k) << "n=" << n << " k=" << k;
        EXPECT_LE(group.count(), 2 * k - 1) << "n=" << n << " k=" << k;
        total += group.count();
      }
      EXPECT_EQ(total, n) << "n=" << n << " k=" << k;
      EXPECT_EQ(groups->TotalRecords(), n);
    }
  }
}

TEST(MdavTest, MomentsAreBitExactFoldsOfTheAssignedMembers) {
  const std::vector<Vector> points = MakePoints(47, 3, 99);
  std::vector<std::vector<std::size_t>> assignments;
  auto groups = MdavBuildGroups(points, 5, &assignments);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(assignments.size(), groups->num_groups());

  for (std::size_t g = 0; g < groups->num_groups(); ++g) {
    // Re-fold the assigned members in order; additive moments must match
    // the construction's aggregates bit for bit.
    GroupStatistics refold(3);
    for (std::size_t index : assignments[g]) {
      ASSERT_LT(index, points.size());
      refold.Add(points[index]);
    }
    const GroupStatistics& built = groups->group(g);
    ASSERT_EQ(refold.count(), built.count());
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(refold.first_order()[j], built.first_order()[j]);
      for (std::size_t i = 0; i <= j; ++i) {
        EXPECT_EQ(refold.second_order()(i, j), built.second_order()(i, j));
      }
    }
  }
}

TEST(MdavTest, AssignmentsPartitionTheInput) {
  const std::vector<Vector> points = MakePoints(33, 2, 5);
  std::vector<std::vector<std::size_t>> assignments;
  ASSERT_TRUE(MdavBuildGroups(points, 4, &assignments).ok());
  std::vector<bool> seen(points.size(), false);
  for (const auto& members : assignments) {
    for (std::size_t index : members) {
      ASSERT_LT(index, seen.size());
      EXPECT_FALSE(seen[index]) << "record " << index << " assigned twice";
      seen[index] = true;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "record " << i << " never assigned";
  }
}

TEST(MdavTest, MergeIsCommutativeOnMdavGroups) {
  auto groups = MdavBuildGroups(MakePoints(30, 3, 11), 5);
  ASSERT_TRUE(groups.ok());
  ASSERT_GE(groups->num_groups(), 2u);
  GroupStatistics ab = groups->group(0);
  ab.Merge(groups->group(1));
  GroupStatistics ba = groups->group(1);
  ba.Merge(groups->group(0));
  ASSERT_EQ(ab.count(), ba.count());
  for (std::size_t j = 0; j < 3; ++j) {
    // Two-operand double addition commutes exactly.
    EXPECT_EQ(ab.first_order()[j], ba.first_order()[j]);
    for (std::size_t i = 0; i <= j; ++i) {
      EXPECT_EQ(ab.second_order()(i, j), ba.second_order()(i, j));
    }
  }
}

TEST(MdavTest, MergeIsAssociativeOnMdavGroups) {
  auto groups = MdavBuildGroups(MakePoints(45, 3, 13), 5);
  ASSERT_TRUE(groups.ok());
  ASSERT_GE(groups->num_groups(), 3u);
  GroupStatistics left = groups->group(0);
  left.Merge(groups->group(1));
  left.Merge(groups->group(2));
  GroupStatistics bc = groups->group(1);
  bc.Merge(groups->group(2));
  GroupStatistics right = groups->group(0);
  right.Merge(bc);
  ASSERT_EQ(left.count(), right.count());
  for (std::size_t j = 0; j < 3; ++j) {
    // Association can reorder rounding, so compare to within one ulp-ish
    // relative tolerance rather than bit-for-bit.
    EXPECT_NEAR(left.first_order()[j], right.first_order()[j],
                1e-12 * (1.0 + std::abs(left.first_order()[j])));
    for (std::size_t i = 0; i <= j; ++i) {
      EXPECT_NEAR(left.second_order()(i, j), right.second_order()(i, j),
                  1e-12 * (1.0 + std::abs(left.second_order()(i, j))));
    }
  }
}

TEST(MdavTest, ConstructionIsDeterministic) {
  const std::vector<Vector> points = MakePoints(61, 5, 23);
  auto first = MdavBuildGroups(points, 7);
  auto second = MdavBuildGroups(points, 7);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(SerializeGroupSet(*first), SerializeGroupSet(*second));
}

TEST(MdavTest, ConstructionHookNeverDrawsFromTheRng) {
  const std::vector<Vector> points = MakePoints(40, 3, 31);
  Rng used(123);
  Rng untouched(123);
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  auto groups = (*mdav)->Build(points, 5, used);
  ASSERT_TRUE(groups.ok());
  // MDAV is deterministic: the rng passed to Build must come out
  // in the same state it went in.
  EXPECT_EQ(used.NextUint64(), untouched.NextUint64());
}

TEST(MdavTest, RejectsDegenerateInputs) {
  const std::vector<Vector> points = MakePoints(10, 2, 3);
  EXPECT_TRUE(IsInvalidArgument(MdavBuildGroups(points, 0).status()));
  EXPECT_TRUE(IsInvalidArgument(MdavBuildGroups({}, 3).status()));
  EXPECT_TRUE(IsInvalidArgument(MdavBuildGroups(points, 11).status()));
  std::vector<Vector> ragged = points;
  ragged.push_back(Vector{1.0, 2.0, 3.0});
  EXPECT_TRUE(IsInvalidArgument(MdavBuildGroups(ragged, 3).status()));
}

TEST(MdavTest, BackendIdentities) {
  auto mdav = FindBackend("mdav");
  auto mdav_eigen = FindBackend("mdav-eigen");
  ASSERT_TRUE(mdav.ok());
  ASSERT_TRUE(mdav_eigen.ok());
  EXPECT_EQ((*mdav)->id, "mdav");
  EXPECT_TRUE(static_cast<bool>((*mdav)->sample));
  EXPECT_EQ((*mdav_eigen)->id, "mdav-eigen");
  // Null sample = inherit the built-in eigendecomposition sampler.
  EXPECT_FALSE(static_cast<bool>((*mdav_eigen)->sample));
}

TEST(MdavTest, CentroidReplacementEmitsCentroidCopies) {
  GroupStatistics stats(2);
  stats.Add(Vector{1.0, 2.0});
  stats.Add(Vector{3.0, 6.0});
  stats.Add(Vector{5.0, 10.0});
  const Vector centroid = stats.Centroid();
  Rng rng(1);
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  ASSERT_TRUE(static_cast<bool>((*mdav)->sample));
  auto sample = (*mdav)->sample(stats, 3, rng);
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ(sample->size(), 3u);
  for (const Vector& record : *sample) {
    ASSERT_EQ(record.dim(), 2u);
    EXPECT_EQ(record[0], centroid[0]);
    EXPECT_EQ(record[1], centroid[1]);
  }
}

}  // namespace
}  // namespace condensa::core
