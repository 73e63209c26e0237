// Adversarial insert/remove interleavings for the dynamic condenser.
//
// The paper's dynamic maintenance keeps every group's zeroth and first
// moments exact under arbitrary streams (Observation 1: sums are
// additive), while splits and merges shuffle records between groups.
// These tests drive interleavings chosen to force the same groups
// through repeated split/merge churn and then check that the aggregate
// moments never drift from a straight batch recompute of the records
// that are actually inside the structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dynamic_condenser.h"
#include "linalg/vector.h"

namespace condensa::core {
namespace {

using linalg::Vector;

Vector MakeRecord(Rng& rng, std::size_t dim, double center, double spread) {
  Vector v(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    v[j] = rng.Gaussian(center, spread);
  }
  return v;
}

// Exact aggregate ledger of what should be inside the condenser.
struct BatchLedger {
  explicit BatchLedger(std::size_t dim) : first_order(dim) {}

  void Add(const Vector& record) {
    ++count;
    for (std::size_t j = 0; j < record.dim(); ++j) {
      first_order[j] += record[j];
    }
  }
  void Remove(const Vector& record) {
    --count;
    for (std::size_t j = 0; j < record.dim(); ++j) {
      first_order[j] -= record[j];
    }
  }

  std::size_t count = 0;
  Vector first_order;
};

// Sums the condenser's per-group moments (plus any warm-up forming
// buffer) and compares them against the ledger: exact count
// conservation, first moments to relative 1e-6.
void ExpectMomentsMatch(const DynamicCondenser& condenser,
                        const BatchLedger& ledger) {
  std::size_t total = 0;
  Vector sum(ledger.first_order.dim());
  for (const GroupStatistics& group : condenser.groups().groups()) {
    total += group.count();
    for (std::size_t j = 0; j < sum.dim(); ++j) {
      sum[j] += group.first_order()[j];
    }
  }
  if (const auto& forming = condenser.forming(); forming.has_value()) {
    total += forming->count();
    for (std::size_t j = 0; j < sum.dim(); ++j) {
      sum[j] += forming->first_order()[j];
    }
  }
  ASSERT_EQ(total, ledger.count);
  for (std::size_t j = 0; j < sum.dim(); ++j) {
    const double expect = ledger.first_order[j];
    const double scale = std::max(1.0, std::fabs(expect));
    EXPECT_NEAR(sum[j], expect, 1e-6 * scale) << "attribute " << j;
  }
}

// Every group obeys the paper's steady-state bound [k, 2k - 1].
void ExpectSizeInvariant(const DynamicCondenser& condenser, std::size_t k) {
  for (const GroupStatistics& group : condenser.groups().groups()) {
    EXPECT_GE(group.count(), k);
    EXPECT_LT(group.count(), 2 * k);
  }
}

class DynamicAdversarialTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Pump one tight cluster up and down across the split threshold: inserts
// push the (single) group to 2k and force a split, removals drag the
// halves below k and force the merge back. Each round re-runs the same
// split/merge pair on the same records.
TEST_P(DynamicAdversarialTest, SplitMergeChurnOnOneCluster) {
  const std::size_t k = 6;
  const std::size_t dim = 3;
  Rng rng(GetParam());
  DynamicCondenser condenser(dim, {.group_size = k});
  BatchLedger ledger(dim);

  std::vector<Vector> resident;
  for (std::size_t i = 0; i < k; ++i) {
    Vector record = MakeRecord(rng, dim, 0.0, 0.5);
    ASSERT_TRUE(condenser.Insert(record).ok());
    ledger.Add(record);
    resident.push_back(std::move(record));
  }

  for (int round = 0; round < 40; ++round) {
    // Grow well past 2k: at least one split per round.
    std::vector<Vector> added;
    for (std::size_t i = 0; i < 2 * k; ++i) {
      Vector record = MakeRecord(rng, dim, 0.0, 0.5);
      ASSERT_TRUE(condenser.Insert(record).ok());
      ledger.Add(record);
      added.push_back(std::move(record));
    }
    ExpectMomentsMatch(condenser, ledger);
    ExpectSizeInvariant(condenser, k);

    // Shrink back down: merges undo the splits.
    for (const Vector& record : added) {
      ASSERT_TRUE(condenser.Remove(record).ok());
      ledger.Remove(record);
    }
    ExpectMomentsMatch(condenser, ledger);
  }
  EXPECT_GT(condenser.split_count(), 0u);
  EXPECT_GT(condenser.merge_count(), 0u);
  EXPECT_EQ(condenser.groups().TotalRecords(), resident.size());
}

// Two well-separated clusters with anti-correlated load: one side only
// inserts while the other only removes, then the roles flip. Exercises
// merge target selection across groups while totals stay exact.
TEST_P(DynamicAdversarialTest, SeesawLoadAcrossTwoClusters) {
  const std::size_t k = 5;
  const std::size_t dim = 2;
  Rng rng(GetParam() + 100);
  DynamicCondenser condenser(dim, {.group_size = k});
  BatchLedger ledger(dim);

  std::vector<Vector> left;
  std::vector<Vector> right;
  for (std::size_t i = 0; i < 4 * k; ++i) {
    Vector a = MakeRecord(rng, dim, -10.0, 0.5);
    Vector b = MakeRecord(rng, dim, +10.0, 0.5);
    ASSERT_TRUE(condenser.Insert(a).ok());
    ledger.Add(a);
    left.push_back(std::move(a));
    ASSERT_TRUE(condenser.Insert(b).ok());
    ledger.Add(b);
    right.push_back(std::move(b));
  }
  ExpectMomentsMatch(condenser, ledger);

  for (int round = 0; round < 12; ++round) {
    std::vector<Vector>& shrink = round % 2 == 0 ? left : right;
    std::vector<Vector>& grow = round % 2 == 0 ? right : left;
    const double center = round % 2 == 0 ? +10.0 : -10.0;
    for (std::size_t i = 0; i < 2 * k && shrink.size() > k; ++i) {
      ASSERT_TRUE(condenser.Remove(shrink.back()).ok());
      ledger.Remove(shrink.back());
      shrink.pop_back();
      Vector record = MakeRecord(rng, dim, center, 0.5);
      ASSERT_TRUE(condenser.Insert(record).ok());
      ledger.Add(record);
      grow.push_back(std::move(record));
    }
    ExpectMomentsMatch(condenser, ledger);
    ExpectSizeInvariant(condenser, k);
  }
  EXPECT_GT(condenser.split_count(), 0u);
  EXPECT_GT(condenser.merge_count(), 0u);
}

// Random interleaving with removal of a random resident record (not
// LIFO), biased so the population repeatedly crosses group boundaries.
TEST_P(DynamicAdversarialTest, RandomizedInterleavingNeverDrifts) {
  const std::size_t k = 4;
  const std::size_t dim = 3;
  Rng rng(GetParam() + 200);
  DynamicCondenser condenser(dim, {.group_size = k});
  BatchLedger ledger(dim);
  std::vector<Vector> resident;

  for (int step = 0; step < 1200; ++step) {
    const bool insert =
        resident.size() <= k || rng.UniformDouble() < 0.55;
    if (insert) {
      Vector record =
          MakeRecord(rng, dim, rng.UniformDouble() < 0.5 ? -4.0 : 4.0, 1.0);
      ASSERT_TRUE(condenser.Insert(record).ok());
      ledger.Add(record);
      resident.push_back(std::move(record));
    } else {
      const std::size_t pick = rng.UniformIndex(resident.size());
      ASSERT_TRUE(condenser.Remove(resident[pick]).ok());
      ledger.Remove(resident[pick]);
      resident[pick] = std::move(resident.back());
      resident.pop_back();
    }
    if (step % 100 == 99) {
      ExpectMomentsMatch(condenser, ledger);
    }
  }
  ExpectMomentsMatch(condenser, ledger);
  EXPECT_EQ(condenser.records_seen(), ledger.count);
  EXPECT_GT(condenser.split_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicAdversarialTest,
                         ::testing::Values(1u, 17u, 4242u));

}  // namespace
}  // namespace condensa::core
