#include "shard/coordinator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "core/serialization.h"
#include "linalg/vector.h"

namespace condensa::shard {
namespace {

using core::CondensedGroupSet;
using core::GroupStatistics;
using linalg::Vector;

Vector RandomPoint(Rng& rng, std::size_t dim) {
  Vector point(dim);
  for (std::size_t j = 0; j < dim; ++j) point[j] = rng.Gaussian();
  return point;
}

// A shard-local set with the given group sizes, clustered so nearest-
// centroid folds are well defined.
CondensedGroupSet MakeShardSet(const std::vector<std::size_t>& sizes,
                               std::size_t dim, std::size_t k, Rng& rng) {
  CondensedGroupSet set(dim, k);
  for (std::size_t size : sizes) {
    GroupStatistics group(dim);
    Vector center = RandomPoint(rng, dim);
    for (std::size_t i = 0; i < size; ++i) {
      Vector point(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        point[j] = center[j] + 0.05 * rng.Gaussian();
      }
      group.Add(point);
    }
    set.AddGroup(std::move(group));
  }
  return set;
}

TEST(CoordinatorTest, ConcatenatesHealthyShardSetsExactly) {
  Rng rng(1);
  const std::size_t k = 5;
  std::vector<CondensedGroupSet> sets;
  sets.push_back(MakeShardSet({5, 7, 6}, 3, k, rng));
  sets.push_back(MakeShardSet({9, 5}, 3, k, rng));

  Coordinator coordinator({.group_size = k});
  GatherReport report;
  auto gathered = coordinator.Gather(std::move(sets), &report);
  ASSERT_TRUE(gathered.ok()) << gathered.status();

  // Every input group already satisfies the k-floor, so the gather is a
  // pure concatenation: no merges, no splits, no approximation.
  EXPECT_EQ(report.shards_in, 2u);
  EXPECT_EQ(report.groups_in, 5u);
  EXPECT_EQ(report.undersized_in, 0u);
  EXPECT_EQ(report.merges, 0u);
  EXPECT_EQ(report.splits, 0u);
  EXPECT_EQ(gathered->num_groups(), 5u);
  EXPECT_EQ(gathered->TotalRecords(), 32u);
  EXPECT_EQ(report.records_in, 32u);
  EXPECT_GE(gathered->Summary().min_group_size, k);
}

TEST(CoordinatorTest, FoldsUndersizedGroupsUpToKFloor) {
  Rng rng(2);
  const std::size_t k = 5;
  std::vector<CondensedGroupSet> sets;
  // Two healthy shards plus two warm-up remainders below the floor.
  sets.push_back(MakeShardSet({6, 5, 2}, 3, k, rng));
  sets.push_back(MakeShardSet({7, 3}, 3, k, rng));

  Coordinator coordinator({.group_size = k});
  GatherReport report;
  auto gathered = coordinator.Gather(std::move(sets), &report);
  ASSERT_TRUE(gathered.ok()) << gathered.status();

  EXPECT_EQ(report.undersized_in, 2u);
  // One merge can repair both remainders at once (2 + 3 = k), so only a
  // floor of one merge is guaranteed.
  EXPECT_GE(report.merges, 1u);
  // Record conservation: 13 + 10 = 23 records, none dropped.
  EXPECT_EQ(gathered->TotalRecords(), 23u);
  // Global k-floor restored.
  EXPECT_GE(gathered->Summary().min_group_size, k);
}

TEST(CoordinatorTest, SplitsOversizeFoldResults) {
  Rng rng(3);
  const std::size_t k = 5;
  // One tight cluster: a 4-record remainder will fold into the nearest
  // group; engineering that group to 2k-4 records makes the fold result
  // exactly 2k, which must split back into the [k, 2k) band.
  const std::size_t dim = 2;
  CondensedGroupSet a(dim, k);
  GroupStatistics big(dim);
  for (std::size_t i = 0; i < 2 * k - 4; ++i) {
    big.Add(Vector{0.01 * rng.Gaussian(), 0.01 * rng.Gaussian()});
  }
  a.AddGroup(std::move(big));
  GroupStatistics far(dim);
  for (std::size_t i = 0; i < k; ++i) {
    far.Add(Vector{100.0 + 0.01 * rng.Gaussian(), 100.0});
  }
  a.AddGroup(std::move(far));

  CondensedGroupSet b(dim, k);
  GroupStatistics remainder(dim);
  for (std::size_t i = 0; i < 4; ++i) {
    remainder.Add(Vector{0.01 * rng.Gaussian(), 0.01 * rng.Gaussian()});
  }
  b.AddGroup(std::move(remainder));

  std::vector<CondensedGroupSet> sets;
  sets.push_back(std::move(a));
  sets.push_back(std::move(b));
  Coordinator coordinator({.group_size = k});
  GatherReport report;
  auto gathered = coordinator.Gather(std::move(sets), &report);
  ASSERT_TRUE(gathered.ok()) << gathered.status();

  EXPECT_EQ(report.merges, 1u);
  EXPECT_EQ(report.splits, 1u);
  EXPECT_EQ(gathered->TotalRecords(), 3 * k);
  const core::PrivacySummary summary = gathered->Summary();
  EXPECT_GE(summary.min_group_size, k);
  EXPECT_LT(summary.max_group_size, 2 * k);
}

TEST(CoordinatorTest, FewerThanKRecordsTotalLeavesOneUndersizedGroup) {
  Rng rng(4);
  const std::size_t k = 10;
  std::vector<CondensedGroupSet> sets;
  sets.push_back(MakeShardSet({2}, 2, k, rng));
  sets.push_back(MakeShardSet({3}, 2, k, rng));

  Coordinator coordinator({.group_size = k});
  auto gathered = coordinator.Gather(std::move(sets), nullptr);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  // Folding 5 < k records cannot reach the floor; conservation wins over
  // dropping them.
  EXPECT_EQ(gathered->num_groups(), 1u);
  EXPECT_EQ(gathered->TotalRecords(), 5u);
}

TEST(CoordinatorTest, SkipsEmptyShardSets) {
  Rng rng(5);
  const std::size_t k = 4;
  std::vector<CondensedGroupSet> sets;
  sets.emplace_back(3, k);  // empty shard
  sets.push_back(MakeShardSet({4, 5}, 3, k, rng));
  sets.emplace_back(0, 0);  // shard that never saw a record

  Coordinator coordinator({.group_size = k});
  GatherReport report;
  auto gathered = coordinator.Gather(std::move(sets), &report);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_EQ(report.shards_in, 3u);
  EXPECT_EQ(gathered->num_groups(), 2u);
  EXPECT_EQ(gathered->TotalRecords(), 9u);
}

TEST(CoordinatorTest, AllEmptyYieldsEmptySet) {
  std::vector<CondensedGroupSet> sets;
  sets.emplace_back(0, 0);
  sets.emplace_back(0, 0);
  Coordinator coordinator({.group_size = 5});
  auto gathered = coordinator.Gather(std::move(sets), nullptr);
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_TRUE(gathered->empty());
}

TEST(CoordinatorTest, RejectsDimensionMismatch) {
  Rng rng(6);
  std::vector<CondensedGroupSet> sets;
  sets.push_back(MakeShardSet({5}, 2, 5, rng));
  sets.push_back(MakeShardSet({5}, 3, 5, rng));
  Coordinator coordinator({.group_size = 5});
  auto gathered = coordinator.Gather(std::move(sets), nullptr);
  EXPECT_TRUE(IsInvalidArgument(gathered.status()));
}

TEST(CoordinatorTest, RejectsShardsThatDisagreeOnBackend) {
  // Same id at two versions is as much a mismatch as two ids: the
  // versions' outputs differ for a fixed seed.
  const std::size_t k = 5;
  for (const auto& [id, version] :
       std::vector<std::pair<std::string, int>>{{"mdav", 2},
                                                {"condensation", 1}}) {
    Rng rng(3);
    std::vector<CondensedGroupSet> sets;
    sets.push_back(MakeShardSet({5, 6}, 2, k, rng));
    sets.push_back(MakeShardSet({7}, 2, k, rng));
    sets[0].SetBackend("mdav", 1);
    sets[1].SetBackend(id, version);
    auto gathered = Coordinator({.group_size = k}).Gather(std::move(sets));
    ASSERT_FALSE(gathered.ok()) << id << " " << version;
    EXPECT_TRUE(IsInvalidArgument(gathered.status()));
  }

  // Agreement on both keeps the stamp, version included.
  Rng rng(3);
  std::vector<CondensedGroupSet> sets;
  sets.push_back(MakeShardSet({5, 6}, 2, k, rng));
  sets.push_back(MakeShardSet({7}, 2, k, rng));
  for (CondensedGroupSet& set : sets) set.SetBackend("mdav", 2);
  auto gathered = Coordinator({.group_size = k}).Gather(std::move(sets));
  ASSERT_TRUE(gathered.ok()) << gathered.status();
  EXPECT_EQ(gathered->backend_id(), "mdav");
  EXPECT_EQ(gathered->backend_version(), 2);
}

TEST(CoordinatorTest, GatherIsDeterministic) {
  const std::size_t k = 5;
  auto build_inputs = [&] {
    Rng rng(7);
    std::vector<CondensedGroupSet> sets;
    sets.push_back(MakeShardSet({6, 2, 5}, 3, k, rng));
    sets.push_back(MakeShardSet({3, 8}, 3, k, rng));
    sets.push_back(MakeShardSet({1}, 3, k, rng));
    return sets;
  };
  Coordinator coordinator({.group_size = k});
  auto first = coordinator.Gather(build_inputs(), nullptr);
  auto second = coordinator.Gather(build_inputs(), nullptr);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  // Serialization round-trips doubles bit-exactly, so string equality is
  // bit-identity of the whole structure.
  EXPECT_EQ(core::SerializeGroupSet(*first), core::SerializeGroupSet(*second));
}

TEST(CoordinatorTest, GatherConservesGlobalMoments) {
  // The gather's merges are exact: the global first-order sum equals the
  // sum over all input groups regardless of how the fold reshuffles them.
  Rng rng(8);
  const std::size_t k = 5;
  const std::size_t dim = 3;
  auto sets = std::vector<CondensedGroupSet>{};
  sets.push_back(MakeShardSet({6, 2, 5, 3}, dim, k, rng));
  sets.push_back(MakeShardSet({7, 1}, dim, k, rng));

  Vector expected_sum(dim);
  std::size_t expected_count = 0;
  for (const CondensedGroupSet& set : sets) {
    for (const GroupStatistics& group : set.groups()) {
      expected_sum += group.first_order();
      expected_count += group.count();
    }
  }

  Coordinator coordinator({.group_size = k});
  auto gathered = coordinator.Gather(std::move(sets), nullptr);
  ASSERT_TRUE(gathered.ok()) << gathered.status();

  Vector actual_sum(dim);
  std::size_t actual_count = 0;
  for (const GroupStatistics& group : gathered->groups()) {
    actual_sum += group.first_order();
    actual_count += group.count();
  }
  EXPECT_EQ(actual_count, expected_count);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(actual_sum[j], expected_sum[j], 1e-9);
  }
}

}  // namespace
}  // namespace condensa::shard
