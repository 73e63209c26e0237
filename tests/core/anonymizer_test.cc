#include "core/anonymizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "linalg/eigen.h"
#include "linalg/stats.h"

namespace condensa::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(AnonymizerTest, RejectsEmptyGroup) {
  Anonymizer anonymizer;
  Rng rng(1);
  EXPECT_FALSE(
      anonymizer.GenerateFromGroup(GroupStatistics(2), 5, rng).ok());
}

GroupStatistics TwoRecordGroup() {
  GroupStatistics group(2);
  group.Add(Vector{0.0, 1.0});
  group.Add(Vector{1.0, 0.0});
  return group;
}

TEST(AnonymizerTest, GenerateRefusesAMismatchedBackendVersion) {
  CondensedGroupSet groups(2, 2);
  groups.SetBackend("mdav", 2);
  groups.AddGroup(TwoRecordGroup());
  Rng rng(1);
  auto generated = Anonymizer().Generate(groups, rng);
  EXPECT_TRUE(IsFailedPrecondition(generated.status()));
  const std::string message(generated.status().message());
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_NE(message.find("version 1"), std::string::npos) << message;
}

TEST(AnonymizerTest, GenerateRefusesAnUnknownBackend) {
  CondensedGroupSet groups(2, 2);
  groups.SetBackend("bogus", 1);
  groups.AddGroup(TwoRecordGroup());
  Rng rng(1);
  auto generated = Anonymizer().Generate(groups, rng);
  EXPECT_TRUE(IsNotFound(generated.status()));
  EXPECT_NE(std::string(generated.status().message()).find("bogus"),
            std::string::npos);
}

TEST(AnonymizerTest, SingletonGroupReproducesItsRecordExactly) {
  // The k = 1 anchor: a 1-record group regenerates the original record.
  GroupStatistics group(2);
  group.Add(Vector{3.5, -1.25});
  Anonymizer anonymizer;
  Rng rng(2);
  auto points = anonymizer.GenerateFromGroup(group, 3, rng);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  for (const Vector& p : *points) {
    EXPECT_TRUE(linalg::ApproxEqual(p, Vector{3.5, -1.25}, 1e-12));
  }
}

TEST(AnonymizerTest, GeneratedCountMatchesRequest) {
  GroupStatistics group(1);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) group.Add(Vector{rng.Gaussian()});
  Anonymizer anonymizer;
  auto points = anonymizer.GenerateFromGroup(group, 25, rng);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 25u);
}

TEST(AnonymizerTest, SamplesPreserveGroupMoments) {
  // Large sample from one group: mean and covariance of the anonymized
  // points converge to the group's stored moments.
  Rng rng(4);
  GroupStatistics group(3);
  for (int i = 0; i < 200; ++i) {
    double x = rng.Gaussian(0.0, 2.0);
    group.Add(Vector{x, 0.5 * x + rng.Gaussian(0.0, 0.5), rng.Gaussian()});
  }
  Anonymizer anonymizer;
  auto points = anonymizer.GenerateFromGroup(group, 60000, rng);
  ASSERT_TRUE(points.ok());

  Vector sample_mean = linalg::MeanVector(*points);
  Matrix sample_cov = linalg::CovarianceMatrix(*points);
  Matrix group_cov = group.Covariance();
  double scale = std::max(1.0, group_cov.MaxAbs());
  EXPECT_TRUE(linalg::ApproxEqual(sample_mean, group.Centroid(),
                                  0.05 * scale));
  EXPECT_TRUE(linalg::ApproxEqual(sample_cov, group_cov, 0.1 * scale));
}

TEST(AnonymizerTest, SamplesAreUniformAlongEigenvectors) {
  // Project anonymized points of a group onto its leading eigenvector; the
  // projections must be bounded by ±sqrt(3 λ1) (uniform support) and look
  // flat, not Gaussian: the kurtosis of a uniform is 1.8, of a normal 3.
  Rng rng(5);
  GroupStatistics group(2);
  for (int i = 0; i < 100; ++i) {
    group.Add(Vector{rng.Gaussian(0.0, 3.0), rng.Gaussian(0.0, 0.3)});
  }
  auto eigen = linalg::CovarianceEigenDecomposition(group.Covariance());
  ASSERT_TRUE(eigen.ok());
  double lambda1 = eigen->eigenvalues[0];
  Vector e1 = eigen->Eigenvector(0);
  Vector centroid = group.Centroid();

  Anonymizer anonymizer;
  auto points = anonymizer.GenerateFromGroup(group, 20000, rng);
  ASSERT_TRUE(points.ok());

  double bound = std::sqrt(3.0 * lambda1) + 1e-9;
  double m2 = 0.0, m4 = 0.0;
  for (const Vector& p : *points) {
    double u = linalg::Dot(p - centroid, e1);
    EXPECT_LE(std::abs(u), bound);
    m2 += u * u;
    m4 += u * u * u * u;
  }
  m2 /= static_cast<double>(points->size());
  m4 /= static_cast<double>(points->size());
  double kurtosis = m4 / (m2 * m2);
  EXPECT_NEAR(kurtosis, 1.8, 0.1);  // uniform, not Gaussian
}

TEST(AnonymizerTest, GenerateEmitsOneRecordPerCondensedRecord) {
  Rng rng(6);
  CondensedGroupSet set(2, 5);
  for (int g = 0; g < 3; ++g) {
    GroupStatistics group(2);
    for (int i = 0; i < 5 + g; ++i) {
      group.Add(Vector{rng.Gaussian(), rng.Gaussian()});
    }
    set.AddGroup(std::move(group));
  }
  Anonymizer anonymizer;
  auto points = anonymizer.Generate(set, rng);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 5u + 6u + 7u);
}

TEST(AnonymizerTest, RecordsPerGroupOverrideApplies) {
  Rng rng(7);
  CondensedGroupSet set(1, 2);
  GroupStatistics group(1);
  group.Add(Vector{0.0});
  group.Add(Vector{1.0});
  set.AddGroup(std::move(group));
  Anonymizer anonymizer({.records_per_group = 10});
  auto points = anonymizer.Generate(set, rng);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 10u);
}

TEST(AnonymizerTest, DeterministicGivenSeed) {
  Rng data_rng(8);
  GroupStatistics group(2);
  for (int i = 0; i < 10; ++i) {
    group.Add(Vector{data_rng.Gaussian(), data_rng.Gaussian()});
  }
  Anonymizer anonymizer;
  Rng rng_a(9), rng_b(9);
  auto a = anonymizer.GenerateFromGroup(group, 20, rng_a);
  auto b = anonymizer.GenerateFromGroup(group, 20, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE(linalg::ApproxEqual((*a)[i], (*b)[i], 0.0));
  }
}

TEST(AnonymizerTest, GaussianSamplingPreservesMomentsToo) {
  Rng rng(11);
  GroupStatistics group(2);
  for (int i = 0; i < 100; ++i) {
    double x = rng.Gaussian(0.0, 2.0);
    group.Add(Vector{x, 0.7 * x + rng.Gaussian(0.0, 0.4)});
  }
  Anonymizer anonymizer(
      {.distribution = SamplingDistribution::kGaussian});
  auto points = anonymizer.GenerateFromGroup(group, 50000, rng);
  ASSERT_TRUE(points.ok());
  Matrix sample_cov = linalg::CovarianceMatrix(*points);
  Matrix group_cov = group.Covariance();
  double scale = std::max(1.0, group_cov.MaxAbs());
  EXPECT_TRUE(linalg::ApproxEqual(sample_cov, group_cov, 0.1 * scale));
}

TEST(AnonymizerTest, GaussianSamplingIsNotBounded) {
  // The uniform sampler is bounded by ±sqrt(3 λ1); the Gaussian one
  // occasionally exceeds that, which distinguishes the two modes.
  Rng rng(12);
  GroupStatistics group(1);
  for (int i = 0; i < 100; ++i) {
    group.Add(Vector{rng.Gaussian(0.0, 1.0)});
  }
  auto eigen = linalg::CovarianceEigenDecomposition(group.Covariance());
  ASSERT_TRUE(eigen.ok());
  double uniform_bound = std::sqrt(3.0 * eigen->eigenvalues[0]);
  double centroid = group.Centroid()[0];

  Anonymizer gaussian({.distribution = SamplingDistribution::kGaussian});
  auto points = gaussian.GenerateFromGroup(group, 20000, rng);
  ASSERT_TRUE(points.ok());
  bool exceeded = false;
  for (const Vector& p : *points) {
    if (std::abs(p[0] - centroid) > uniform_bound) {
      exceeded = true;
      break;
    }
  }
  EXPECT_TRUE(exceeded);
}

TEST(AnonymizerTest, DuplicatePointGroupRegeneratesFinitely) {
  // All-identical records give a singular covariance whose Jacobi
  // eigenvalues can come out as tiny negatives (floating-point noise).
  // Regression test: the sampler must clamp them, not sqrt() them into
  // NaNs.
  GroupStatistics group(3);
  for (int i = 0; i < 12; ++i) {
    group.Add(Vector{1e6 + 0.1, -3.0, 42.0});
  }
  Rng rng(21);
  for (SamplingDistribution distribution :
       {SamplingDistribution::kUniform, SamplingDistribution::kGaussian}) {
    Anonymizer anonymizer({.distribution = distribution});
    auto points = anonymizer.GenerateFromGroup(group, 50, rng);
    ASSERT_TRUE(points.ok());
    for (const Vector& p : *points) {
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_TRUE(std::isfinite(p[j]));
      }
      // Near-zero covariance: the regenerated records sit at the centroid
      // up to cancellation noise in Sc - n c c^T, which at 1e6 magnitude
      // leaves eigenvalues of order 1e-3 (spread ~sqrt(3e-3)).
      EXPECT_NEAR(p[0], 1e6 + 0.1, 1.0);
      EXPECT_NEAR(p[1], -3.0, 1e-3);
      EXPECT_NEAR(p[2], 42.0, 1e-3);
    }
  }
}

TEST(AnonymizerTest, ConstantAttributeGroupRegeneratesFinitely) {
  // One attribute constant, the others spread out: the covariance has an
  // exactly-zero row/column and the solver may return -1e-17-style
  // eigenvalues for it.
  Rng rng(22);
  GroupStatistics group(3);
  for (int i = 0; i < 30; ++i) {
    double x = rng.Gaussian(0.0, 3.0);
    group.Add(Vector{x, 123.456, 2.0 * x + rng.Gaussian(0.0, 0.1)});
  }
  Anonymizer anonymizer;
  auto points = anonymizer.GenerateFromGroup(group, 200, rng);
  ASSERT_TRUE(points.ok());
  for (const Vector& p : *points) {
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_TRUE(std::isfinite(p[j]));
    }
    EXPECT_NEAR(p[1], 123.456, 1e-5);
  }
}

TEST(AnonymizerTest, DegenerateDirectionStaysCollapsed) {
  // A group that is constant in dimension 1 must regenerate records that
  // are constant in dimension 1 (zero eigenvalue -> zero spread).
  Rng rng(10);
  GroupStatistics group(2);
  for (int i = 0; i < 20; ++i) {
    group.Add(Vector{rng.Gaussian(), 7.0});
  }
  Anonymizer anonymizer;
  auto points = anonymizer.GenerateFromGroup(group, 100, rng);
  ASSERT_TRUE(points.ok());
  for (const Vector& p : *points) {
    EXPECT_NEAR(p[1], 7.0, 1e-6);
  }
}

TEST(AnonymizerTest, GenerateReservesExactlyTheOutputSize) {
  // Regression test: Generate used to reserve TotalRecords() even when
  // records_per_group overrides the per-group count, over- (or under-)
  // allocating the output. The reserve must match what is produced in
  // both modes.
  Rng rng(23);
  CondensedGroupSet set(2, 4);
  for (int g = 0; g < 4; ++g) {
    GroupStatistics group(2);
    for (int i = 0; i < 50; ++i) {
      group.Add(Vector{rng.Gaussian(), rng.Gaussian()});
    }
    set.AddGroup(std::move(group));
  }

  Anonymizer per_record;  // default: one output per condensed record
  auto a = per_record.Generate(set, rng);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), 200u);
  EXPECT_EQ(a->capacity(), 200u);

  Anonymizer overridden({.records_per_group = 3});
  auto b = overridden.Generate(set, rng);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 12u);
  // The fix: 12 slots reserved, not TotalRecords() = 200.
  EXPECT_EQ(b->capacity(), 12u);
}

TEST(AnonymizerTest, GenerateIsThreadCountInvariant) {
  // One Rng substream per group, split on the calling thread in group
  // order: the sampled records must be bit-identical whether the groups
  // are generated serially or on a worker pool.
  Rng data_rng(24);
  CondensedGroupSet set(3, 5);
  for (int g = 0; g < 9; ++g) {
    GroupStatistics group(3);
    for (int i = 0; i < 5 + g; ++i) {
      group.Add(Vector{data_rng.Gaussian(), data_rng.Gaussian(),
                       data_rng.Gaussian()});
    }
    set.AddGroup(std::move(group));
  }
  Anonymizer serial({.num_threads = 1});
  Anonymizer pooled({.num_threads = 4});
  Rng rng_a(25), rng_b(25);
  auto a = serial.Generate(set, rng_a);
  auto b = pooled.Generate(set, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE(linalg::ApproxEqual((*a)[i], (*b)[i], 0.0)) << "record " << i;
  }
  // The caller's Rng must also land in the same state (same number of
  // splits drawn), so downstream draws stay seed-deterministic.
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

}  // namespace
}  // namespace condensa::core
