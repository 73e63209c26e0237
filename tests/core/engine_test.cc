#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "datagen/profiles.h"
#include "linalg/stats.h"
#include "metrics/compatibility.h"

namespace condensa::core {
namespace {

using data::Dataset;
using data::TaskType;
using linalg::Vector;

Dataset TwoClassBlobs(Rng& rng) {
  return datagen::MakeGaussianBlobs(2, 60, 3, 8.0, rng);
}

TEST(EngineTest, RejectsEmptyDataset) {
  CondensationEngine engine({.group_size = 5});
  Rng rng(1);
  EXPECT_FALSE(engine.Anonymize(Dataset(2), rng).ok());
}

TEST(EngineTest, ClassificationPreservesSizeAndLabels) {
  Rng rng(2);
  Dataset input = TwoClassBlobs(rng);
  CondensationEngine engine({.group_size = 10});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->anonymized.size(), input.size());
  EXPECT_EQ(result->anonymized.task(), TaskType::kClassification);
  auto in_by = input.IndicesByLabel();
  auto out_by = result->anonymized.IndicesByLabel();
  ASSERT_EQ(in_by.size(), out_by.size());
  for (const auto& [label, indices] : in_by) {
    EXPECT_EQ(out_by[label].size(), indices.size()) << "label " << label;
  }
}

TEST(EngineTest, ReportsOnePoolPerClass) {
  Rng rng(3);
  Dataset input = TwoClassBlobs(rng);
  CondensationEngine engine({.group_size = 10});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->reports.size(), 2u);
  for (const PoolReport& report : result->reports) {
    EXPECT_EQ(report.pool_size, 60u);
    EXPECT_EQ(report.effective_group_size, 10u);
    EXPECT_GE(report.privacy.min_group_size, 10u);
  }
  EXPECT_GE(result->AchievedIndistinguishability(), 10u);
  EXPECT_GE(result->AverageGroupSize(), 10.0);
}

TEST(EngineTest, ClassSmallerThanKCollapsesToOneGroup) {
  Rng rng(4);
  Dataset input(2, TaskType::kClassification);
  for (int i = 0; i < 40; ++i) {
    input.Add(Vector{rng.Gaussian(), rng.Gaussian()}, 0);
  }
  for (int i = 0; i < 3; ++i) {  // tiny class, below k
    input.Add(Vector{rng.Gaussian(50.0, 1.0), rng.Gaussian()}, 1);
  }
  CondensationEngine engine({.group_size = 10});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  const PoolReport* tiny = nullptr;
  for (const PoolReport& report : result->reports) {
    if (report.label == 1) tiny = &report;
  }
  ASSERT_NE(tiny, nullptr);
  EXPECT_EQ(tiny->effective_group_size, 3u);
  EXPECT_EQ(tiny->privacy.num_groups, 1u);
  // Achieved level reflects the weakest pool.
  EXPECT_EQ(result->AchievedIndistinguishability(), 3u);
}

TEST(EngineTest, StaticKOneReproducesOriginalRecords) {
  // The paper's baseline anchor: static condensation with k = 1 gives back
  // the original data (each record is its own group).
  Rng rng(5);
  Dataset input = TwoClassBlobs(rng);
  CondensationEngine engine(
      {.group_size = 1, .mode = CondensationMode::kStatic});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  // Every anonymized record appears in the original class (exact match).
  for (const auto& [label, indices] : input.IndicesByLabel()) {
    Dataset original_class = input.SelectLabel(label);
    Dataset anonymized_class = result->anonymized.SelectLabel(label);
    ASSERT_EQ(anonymized_class.size(), original_class.size());
    for (std::size_t i = 0; i < anonymized_class.size(); ++i) {
      bool found = false;
      for (std::size_t j = 0; j < original_class.size() && !found; ++j) {
        found = linalg::ApproxEqual(anonymized_class.record(i),
                                    original_class.record(j), 1e-9);
      }
      EXPECT_TRUE(found) << "anonymized record not in original class";
    }
  }
}

TEST(EngineTest, RegressionKeepsTargetsInRange) {
  Rng rng(6);
  Dataset input(2, TaskType::kRegression);
  for (int i = 0; i < 100; ++i) {
    double x = rng.Uniform(0.0, 10.0);
    input.Add(Vector{x, rng.Gaussian()}, 2.0 * x + 5.0);
  }
  CondensationEngine engine({.group_size = 10});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->anonymized.size(), 100u);
  EXPECT_EQ(result->anonymized.task(), TaskType::kRegression);
  // Targets stay in a plausible band around the original range [5, 25].
  for (std::size_t i = 0; i < result->anonymized.size(); ++i) {
    EXPECT_GT(result->anonymized.target(i), -10.0);
    EXPECT_LT(result->anonymized.target(i), 40.0);
  }
}

TEST(EngineTest, RegressionPreservesFeatureTargetCorrelation) {
  // Condensing in (feature ⊕ target) space keeps the x-y correlation.
  Rng rng(7);
  Dataset input(1, TaskType::kRegression);
  for (int i = 0; i < 300; ++i) {
    double x = rng.Uniform(0.0, 10.0);
    input.Add(Vector{x}, 3.0 * x + rng.Gaussian(0.0, 0.5));
  }
  CondensationEngine engine({.group_size = 15});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());

  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < result->anonymized.size(); ++i) {
    xs.push_back(result->anonymized.record(i)[0]);
    ys.push_back(result->anonymized.target(i));
  }
  EXPECT_GT(linalg::PearsonCorrelation(xs, ys), 0.95);
}

TEST(EngineTest, UnlabeledDatasetCondensesAsOnePool) {
  Rng rng(8);
  Dataset input(2);
  for (int i = 0; i < 50; ++i) {
    input.Add(Vector{rng.Gaussian(), rng.Gaussian()});
  }
  CondensationEngine engine({.group_size = 5});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->reports.size(), 1u);
  EXPECT_EQ(result->reports[0].pool_size, 50u);
  EXPECT_EQ(result->anonymized.size(), 50u);
}

TEST(EngineTest, DynamicModeRunsAndReportsSplits) {
  Rng rng(9);
  Dataset input = datagen::MakeGaussianBlobs(2, 200, 3, 8.0, rng);
  CondensationEngine engine({.group_size = 10,
                             .mode = CondensationMode::kDynamic,
                             .bootstrap_fraction = 0.25});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->anonymized.size(), input.size());
  std::size_t total_splits = 0;
  for (const PoolReport& report : result->reports) {
    total_splits += report.splits;
  }
  EXPECT_GT(total_splits, 0u);
}

TEST(EngineTest, DynamicPureStreamingWorks) {
  Rng rng(10);
  Dataset input = TwoClassBlobs(rng);
  CondensationEngine engine({.group_size = 8,
                             .mode = CondensationMode::kDynamic,
                             .bootstrap_fraction = 0.0});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->anonymized.size(), input.size());
}

TEST(EngineTest, CondensationPreservesCovarianceStructure) {
  // End-to-end μ check on a correlated dataset: static condensation with a
  // modest k must keep μ close to 1.
  Rng rng(11);
  Dataset input(3);
  for (int i = 0; i < 400; ++i) {
    double x = rng.Gaussian(0.0, 2.0);
    input.Add(Vector{x, 0.8 * x + rng.Gaussian(0.0, 0.5),
                     -0.5 * x + rng.Gaussian(0.0, 1.0)});
  }
  CondensationEngine engine({.group_size = 20});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  auto mu = metrics::CovarianceCompatibility(input, result->anonymized);
  ASSERT_TRUE(mu.ok());
  EXPECT_GT(*mu, 0.95);
}

TEST(EngineTest, CondensePointsHonoursMode) {
  Rng rng(12);
  std::vector<Vector> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back(Vector{rng.Gaussian(), rng.Gaussian()});
  }
  CondensationEngine engine({.group_size = 6});
  auto groups = engine.CondensePoints(points, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->TotalRecords(), 60u);
  EXPECT_GE(groups->Summary().min_group_size, 6u);
}

TEST(EngineTest, FeatureNamesSurviveAnonymization) {
  Rng rng(13);
  Dataset input(2, TaskType::kClassification);
  for (int i = 0; i < 20; ++i) {
    input.Add(Vector{rng.Gaussian(), rng.Gaussian()}, i % 2);
  }
  ASSERT_TRUE(input.SetFeatureNames({"alpha", "beta"}).ok());
  CondensationEngine engine({.group_size = 5});
  auto result = engine.Anonymize(input, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->anonymized.feature_names().size(), 2u);
  EXPECT_EQ(result->anonymized.feature_names()[0], "alpha");
}

TEST(EngineTest, RejectsNonFiniteValues) {
  Rng rng(21);
  Dataset with_nan(2, TaskType::kClassification);
  for (int i = 0; i < 20; ++i) {
    with_nan.Add(Vector{rng.Gaussian(), rng.Gaussian()}, i % 2);
  }
  with_nan.Add(Vector{std::nan(""), 0.0}, 0);
  CondensationEngine engine({.group_size = 3});
  auto result = engine.Anonymize(with_nan, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsInvalidArgument(result.status()));

  Dataset with_inf_target(1, TaskType::kRegression);
  for (int i = 0; i < 10; ++i) {
    with_inf_target.Add(Vector{rng.Gaussian()}, 1.0);
  }
  with_inf_target.Add(Vector{0.0},
                      std::numeric_limits<double>::infinity());
  auto regression_result = engine.Anonymize(with_inf_target, rng);
  ASSERT_FALSE(regression_result.ok());
  EXPECT_TRUE(IsInvalidArgument(regression_result.status()));
}

TEST(EngineTest, CondenseThenGenerateMatchesAnonymizeContract) {
  Rng data_rng(14);
  Dataset input = TwoClassBlobs(data_rng);
  CondensationEngine engine({.group_size = 10});

  Rng rng(15);
  auto pools = engine.Condense(input, rng);
  ASSERT_TRUE(pools.ok());
  EXPECT_EQ(pools->task, TaskType::kClassification);
  EXPECT_EQ(pools->feature_dim, input.dim());
  EXPECT_EQ(pools->pools.size(), 2u);

  auto release = core::GenerateRelease(*pools, rng);
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release->anonymized.size(), input.size());
  EXPECT_GE(release->AchievedIndistinguishability(), 10u);
}

TEST(EngineTest, RepeatedReleasesShareStatisticsButDifferPointwise) {
  // The server keeps pools and can regenerate forever: two releases from
  // the same pools are different record sets with the same second-order
  // structure.
  Rng data_rng(16);
  Dataset input(3);
  for (int i = 0; i < 300; ++i) {
    double x = data_rng.Gaussian();
    input.Add(Vector{x, 0.7 * x + data_rng.Gaussian(0.0, 0.4),
                     data_rng.Gaussian()});
  }
  CondensationEngine engine({.group_size = 15});
  Rng rng(17);
  auto pools = engine.Condense(input, rng);
  ASSERT_TRUE(pools.ok());

  Rng rng_a(18), rng_b(19);
  auto a = core::GenerateRelease(*pools, rng_a);
  auto b = core::GenerateRelease(*pools, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  bool identical = true;
  for (std::size_t i = 0; i < a->anonymized.size() && identical; ++i) {
    identical = linalg::ApproxEqual(a->anonymized.record(i),
                                    b->anonymized.record(i), 1e-12);
  }
  EXPECT_FALSE(identical);

  auto mu = metrics::CovarianceCompatibility(a->anonymized, b->anonymized);
  ASSERT_TRUE(mu.ok());
  EXPECT_GT(*mu, 0.98);
}

TEST(EngineTest, GenerateReleaseValidatesPools) {
  core::CondensedPools empty;
  empty.feature_dim = 2;
  Rng rng(20);
  EXPECT_FALSE(core::GenerateRelease(empty, rng).ok());

  // Pool dimension inconsistent with the declared feature_dim.
  core::CondensedPools bad;
  bad.task = TaskType::kUnlabeled;
  bad.feature_dim = 3;
  GroupStatistics wrong_dim(2);
  wrong_dim.Add(Vector{0.0, 0.0});
  CondensedGroupSet groups(2, 1);
  groups.AddGroup(std::move(wrong_dim));
  bad.pools.push_back(core::CondensedPools::Pool{-1, 0, std::move(groups)});
  EXPECT_FALSE(core::GenerateRelease(bad, rng).ok());
}

TEST(EngineTest, InvalidConfigSurfacesStatus) {
  EXPECT_TRUE(IsInvalidArgument(CondensationConfig{.group_size = 0}.Validate()));
  EXPECT_TRUE(IsInvalidArgument(
      CondensationConfig{.group_size = 5,
                         .mode = CondensationMode::kDynamic,
                         .bootstrap_fraction = 1.5}
          .Validate()));
  EXPECT_TRUE(CondensationConfig{.group_size = 5}.Validate().ok());

  // Construction never aborts; the Status surfaces at first use instead.
  CondensationEngine engine({.group_size = 0});
  Rng rng(33);
  std::vector<Vector> points = {Vector{0.0, 0.0}, Vector{1.0, 1.0}};
  auto condensed = engine.CondensePoints(points, rng);
  ASSERT_FALSE(condensed.ok());
  EXPECT_TRUE(IsInvalidArgument(condensed.status()));

  data::Dataset dataset(2);
  dataset.Add(Vector{0.0, 0.0});
  dataset.Add(Vector{1.0, 1.0});
  auto anonymized = engine.Anonymize(dataset, rng);
  ASSERT_FALSE(anonymized.ok());
  EXPECT_TRUE(IsInvalidArgument(anonymized.status()));
}

TEST(EngineTest, CondenseIsThreadCountInvariant) {
  // Per-class pools are condensed on a worker pool, one Rng substream per
  // pool split in label order before any pool runs: the retained group
  // aggregates must be bit-identical at any thread count.
  Rng data_rng(40);
  Dataset input = datagen::MakeGaussianBlobs(4, 75, 3, 8.0, data_rng);
  CondensationEngine serial({.group_size = 10, .num_threads = 1});
  CondensationEngine pooled({.group_size = 10, .num_threads = 4});
  Rng rng_a(41), rng_b(41);
  auto a = serial.Condense(input, rng_a);
  auto b = pooled.Condense(input, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->pools.size(), b->pools.size());
  for (std::size_t p = 0; p < a->pools.size(); ++p) {
    EXPECT_EQ(a->pools[p].label, b->pools[p].label);
    const CondensedGroupSet& ga = a->pools[p].groups;
    const CondensedGroupSet& gb = b->pools[p].groups;
    ASSERT_EQ(ga.num_groups(), gb.num_groups()) << "pool " << p;
    for (std::size_t i = 0; i < ga.num_groups(); ++i) {
      EXPECT_EQ(ga.group(i).count(), gb.group(i).count());
      EXPECT_TRUE(linalg::ApproxEqual(ga.group(i).first_order(),
                                      gb.group(i).first_order(), 0.0));
      EXPECT_TRUE(linalg::ApproxEqual(ga.group(i).second_order(),
                                      gb.group(i).second_order(), 0.0));
    }
  }
  // Downstream draws stay aligned too.
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

TEST(EngineTest, AnonymizeIsThreadCountInvariant) {
  // End to end: condensation and regeneration both fan out, and the
  // released records must not depend on the worker count.
  Rng data_rng(42);
  Dataset input = datagen::MakeGaussianBlobs(3, 80, 2, 6.0, data_rng);
  CondensationEngine serial({.group_size = 8, .num_threads = 1});
  CondensationEngine pooled({.group_size = 8, .num_threads = 0});  // all hw
  Rng rng_a(43), rng_b(43);
  auto a = serial.Anonymize(input, rng_a);
  auto b = pooled.Anonymize(input, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->anonymized.size(), b->anonymized.size());
  for (std::size_t i = 0; i < a->anonymized.size(); ++i) {
    EXPECT_EQ(a->anonymized.label(i), b->anonymized.label(i));
    EXPECT_TRUE(linalg::ApproxEqual(a->anonymized.record(i),
                                    b->anonymized.record(i), 0.0))
        << "record " << i;
  }
}

}  // namespace
}  // namespace condensa::core
