#include "core/condensed_group_set.h"

#include <gtest/gtest.h>

namespace condensa::core {
namespace {

using linalg::Vector;

GroupStatistics MakeGroupAt(double x, double y, std::size_t count) {
  GroupStatistics stats(2);
  for (std::size_t i = 0; i < count; ++i) {
    stats.Add(Vector{x, y});
  }
  return stats;
}

TEST(CondensedGroupSetTest, EmptySet) {
  CondensedGroupSet set(3, 10);
  EXPECT_EQ(set.dim(), 3u);
  EXPECT_EQ(set.indistinguishability_level(), 10u);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.TotalRecords(), 0u);
  PrivacySummary summary = set.Summary();
  EXPECT_EQ(summary.num_groups, 0u);
  EXPECT_EQ(summary.min_group_size, 0u);
}

TEST(CondensedGroupSetTest, AddGroupTracksCounts) {
  CondensedGroupSet set(2, 5);
  set.AddGroup(MakeGroupAt(0.0, 0.0, 5));
  set.AddGroup(MakeGroupAt(10.0, 0.0, 7));
  EXPECT_EQ(set.num_groups(), 2u);
  EXPECT_EQ(set.TotalRecords(), 12u);
}

TEST(CondensedGroupSetTest, NearestGroupFindsClosestCentroid) {
  CondensedGroupSet set(2, 5);
  set.AddGroup(MakeGroupAt(0.0, 0.0, 5));
  set.AddGroup(MakeGroupAt(10.0, 0.0, 5));
  set.AddGroup(MakeGroupAt(0.0, 10.0, 5));
  EXPECT_EQ(set.NearestGroup(Vector{1.0, 1.0}), 0u);
  EXPECT_EQ(set.NearestGroup(Vector{9.0, 1.0}), 1u);
  EXPECT_EQ(set.NearestGroup(Vector{1.0, 9.0}), 2u);
}

TEST(CondensedGroupSetTest, NearestGroupTieBreaksByLowestGroupId) {
  // Several groups share the nearest centroid: the lowest id wins. Every
  // routing path relies on this for its bit-identical replays.
  CondensedGroupSet set(2, 1);
  for (int g = 0; g < 40; ++g) {
    const bool tied = g == 3 || g == 7 || g == 12;
    set.AddGroup(tied ? MakeGroupAt(1.0, 1.0, 1)
                      : MakeGroupAt(10.0 + g, -5.0, 1));
  }
  EXPECT_EQ(set.NearestGroup(Vector{1.0, 1.0}), 3u);
  EXPECT_EQ(set.NearestGroup(Vector{1.5, 0.5}), 3u);
}

TEST(CondensedGroupSetTest, RemoveGroupIsSwapRemove) {
  CondensedGroupSet set(2, 5);
  set.AddGroup(MakeGroupAt(0.0, 0.0, 5));
  set.AddGroup(MakeGroupAt(10.0, 0.0, 6));
  set.AddGroup(MakeGroupAt(20.0, 0.0, 7));
  set.RemoveGroup(0);
  EXPECT_EQ(set.num_groups(), 2u);
  EXPECT_EQ(set.TotalRecords(), 13u);
  // Former last group moved to slot 0.
  EXPECT_DOUBLE_EQ(set.group(0).Centroid()[0], 20.0);
}

TEST(CondensedGroupSetTest, SummaryReportsSizes) {
  CondensedGroupSet set(2, 5);
  set.AddGroup(MakeGroupAt(0.0, 0.0, 5));
  set.AddGroup(MakeGroupAt(1.0, 0.0, 9));
  set.AddGroup(MakeGroupAt(2.0, 0.0, 7));
  PrivacySummary summary = set.Summary();
  EXPECT_EQ(summary.num_groups, 3u);
  EXPECT_EQ(summary.total_records, 21u);
  EXPECT_EQ(summary.min_group_size, 5u);
  EXPECT_EQ(summary.max_group_size, 9u);
  EXPECT_DOUBLE_EQ(summary.average_group_size, 7.0);
}

TEST(CondensedGroupSetDeathTest, InvalidOperationsAbort) {
  CondensedGroupSet set(2, 5);
  EXPECT_DEATH((void)set.NearestGroup(Vector{0.0, 0.0}), "CHECK");
  EXPECT_DEATH(set.AddGroup(GroupStatistics(2)), "CHECK");  // empty group
  CondensedGroupSet wrong_dim(3, 5);
  EXPECT_DEATH(wrong_dim.AddGroup(MakeGroupAt(0.0, 0.0, 1)),
               "CHECK");  // 2-dim group into 3-dim set
}

}  // namespace
}  // namespace condensa::core
