// Differential and edge-case coverage for the batch distance kernels.
//
// Every kernel carries a bit-identity contract: every finite output
// equals the scalar reference bit for bit, and a +inf output may appear
// only from a bounded call whose true distance strictly exceeds the
// bound (see src/simd/distance.h). These tests pin that contract across
// dimensions (including the partial-block padding tails), record counts,
// sub-block ranges, NaN/Inf inputs, and a randomized 1000-trial sweep —
// for every kernel the host can run, each called directly through its
// internal declaration, independent of which one the CPU selects.

#include "simd/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "linalg/vector.h"
#include "simd/distance_internal.h"
#include "simd/record_block.h"

namespace condensa::simd {
namespace {

using linalg::Vector;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct Kernel {
  const char* name;
  internal::RangeFn range;

  // The whole store, as SquaredDistanceBatch would scan it.
  void Batch(const RecordBlock& records, const double* query, double bound,
             double* out) const {
    range(records, query, 0, records.size(), bound, out);
  }
};

// Every kernel this host can run, the scalar oracle included.
std::vector<Kernel> AvailableKernels() {
  std::vector<Kernel> kernels = {{"scalar", internal::RangeScalar},
                                 {"portable", internal::RangePortable}};
  if (internal::CpuHasAvx2()) {
    kernels.push_back({"avx2", internal::RangeAvx2});
  }
  return kernels;
}

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

Vector RandomQuery(std::size_t dim, Rng& rng) {
  Vector q(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    q[j] = rng.Gaussian();
  }
  return q;
}

// Checks one kernel output against the scalar exact distance under the
// bounded-kernel contract: finite values are bit-identical, +inf is
// legal only when the true distance strictly exceeds the bound. NaN
// exacts must stay NaN (bounded abandonment never fires on NaN).
void ExpectContract(double got, double exact, double bound) {
  if (std::isnan(exact)) {
    EXPECT_TRUE(std::isnan(got));
    return;
  }
  if (got == kInf && exact != kInf) {
    EXPECT_TRUE(exact > bound) << "abandoned a record at exact distance "
                               << exact << " under bound " << bound;
    return;
  }
  EXPECT_EQ(Bits(got), Bits(exact));
}

TEST(DistanceKernelTest, DispatchFollowsTheCpu) {
  // The CPU alone picks the kernel, and never the reference oracle.
  const internal::RangeFn resolved = internal::ResolvedRange();
  EXPECT_EQ(resolved, internal::CpuHasAvx2() ? internal::RangeAvx2
                                             : internal::RangePortable);
  EXPECT_NE(resolved, internal::RangeScalar);
}

TEST(DistanceKernelTest, ScalarOracleMatchesLinalg) {
  Rng rng(101);
  for (std::size_t dim : {0u, 1u, 2u, 7u, 8u, 9u, 10u}) {
    std::vector<Vector> points = RandomCloud(11, dim, rng);
    RecordBlock block = RecordBlock::FromVectors(points);
    Vector query = RandomQuery(dim, rng);
    std::vector<double> out(points.size());
    SquaredDistanceBatchScalar(block, query.data(), out.data());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(Bits(out[i]),
                Bits(linalg::SquaredDistance(points[i], query)));
    }
  }
}

TEST(DistanceKernelTest, AllKernelsBitIdenticalAcrossDims) {
  Rng rng(202);
  // Every dimension through 64 exercises all padding tails of the
  // 8-wide dimension loop; the counts cover single-record, partial,
  // exact, and multi-block stores.
  for (std::size_t dim = 1; dim <= 64; ++dim) {
    for (std::size_t n : {1u, 5u, 8u, 9u, 24u}) {
      std::vector<Vector> points = RandomCloud(n, dim, rng);
      RecordBlock block = RecordBlock::FromVectors(points);
      Vector query = RandomQuery(dim, rng);
      std::vector<double> expected(n);
      SquaredDistanceBatchScalar(block, query.data(), expected.data());
      for (const Kernel& kernel : AvailableKernels()) {
        std::vector<double> out(n, -1.0);
        kernel.Batch(block, query.data(), kInf, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(out[i]), Bits(expected[i]))
              << kernel.name << " dim=" << dim << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(DistanceKernelTest, SubRangesCoverEdgeLanes) {
  Rng rng(303);
  const std::size_t n = 40;
  const std::size_t dim = 6;
  std::vector<Vector> points = RandomCloud(n, dim, rng);
  RecordBlock block = RecordBlock::FromVectors(points);
  Vector query = RandomQuery(dim, rng);
  std::vector<double> full(n);
  SquaredDistanceBatchScalar(block, query.data(), full.data());
  // Ranges chosen to hit every begin/end alignment case: block-aligned,
  // mid-block, single record, and within one block.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, n}, {0, 8}, {3, 29}, {8, 16}, {5, 6}, {9, 15}, {17, 40}, {12, 12}};
  for (const Kernel& kernel : AvailableKernels()) {
    for (const auto& [begin, end] : ranges) {
      std::vector<double> out(end - begin, -1.0);
      kernel.range(block, query.data(), begin, end, kInf, out.data());
      for (std::size_t i = begin; i < end; ++i) {
        ASSERT_EQ(Bits(out[i - begin]), Bits(full[i]))
            << kernel.name << " range [" << begin << ", " << end << ")";
      }
    }
  }
}

TEST(DistanceKernelTest, BoundedOutputsExactOrProvablyBeyondBound) {
  Rng rng(404);
  const std::size_t n = 30;
  const std::size_t dim = 24;  // several bound-check strides deep
  std::vector<Vector> points = RandomCloud(n, dim, rng);
  RecordBlock block = RecordBlock::FromVectors(points);
  Vector query = RandomQuery(dim, rng);
  std::vector<double> exact(n);
  SquaredDistanceBatchScalar(block, query.data(), exact.data());
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  for (double bound : {sorted[n / 4], sorted[n / 2], sorted[n - 1], 0.0}) {
    for (const Kernel& kernel : AvailableKernels()) {
      std::vector<double> out(n, -1.0);
      kernel.Batch(block, query.data(), bound, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ExpectContract(out[i], exact[i], bound);
      }
    }
  }
}

TEST(DistanceKernelTest, NaNPropagatesLikeScalar) {
  std::vector<Vector> points = {Vector{1.0, 2.0, 3.0}, Vector{kNaN, 0.0, 1.0},
                                Vector{4.0, kNaN, 5.0}, Vector{0.5, 0.5, 0.5},
                                Vector{6.0, 7.0, 8.0}};
  RecordBlock block = RecordBlock::FromVectors(points);
  Vector query{0.0, 0.0, 0.0};
  const std::size_t n = points.size();
  std::vector<double> exact(n);
  SquaredDistanceBatchScalar(block, query.data(), exact.data());
  EXPECT_TRUE(std::isnan(exact[1]));
  EXPECT_TRUE(std::isnan(exact[2]));
  for (const Kernel& kernel : AvailableKernels()) {
    std::vector<double> out(n, -1.0);
    kernel.Batch(block, query.data(), kInf, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isnan(exact[i])) {
        EXPECT_TRUE(std::isnan(out[i])) << kernel.name << " i=" << i;
      } else {
        EXPECT_EQ(Bits(out[i]), Bits(exact[i]));
      }
    }
    // A tiny bound still may not abandon a NaN record: the comparison is
    // false, the block stays live, and the NaN completes like scalar.
    kernel.Batch(block, query.data(), 1e-12, out.data());
    EXPECT_TRUE(std::isnan(out[1])) << kernel.name;
    EXPECT_TRUE(std::isnan(out[2])) << kernel.name;
  }
}

TEST(DistanceKernelTest, InfinitePointsProduceInfiniteOrNaNLikeScalar) {
  std::vector<Vector> points = {Vector{kInf, 0.0}, Vector{-kInf, 1.0},
                                Vector{1.0, 1.0}};
  RecordBlock block = RecordBlock::FromVectors(points);
  // query[0] = +inf makes record 0's diff inf - inf = NaN and record 1's
  // diff -inf; the scalar loop says NaN and +inf respectively.
  Vector query{kInf, 0.0};
  std::vector<double> exact(3);
  SquaredDistanceBatchScalar(block, query.data(), exact.data());
  EXPECT_TRUE(std::isnan(exact[0]));
  EXPECT_EQ(exact[1], kInf);
  EXPECT_EQ(exact[2], kInf);
  for (const Kernel& kernel : AvailableKernels()) {
    std::vector<double> out(3, -1.0);
    kernel.Batch(block, query.data(), kInf, out.data());
    EXPECT_TRUE(std::isnan(out[0])) << kernel.name;
    EXPECT_EQ(out[1], kInf) << kernel.name;
    EXPECT_EQ(out[2], kInf) << kernel.name;
  }
}

TEST(DistanceKernelTest, ZeroDimensionalDistancesAreZero) {
  RecordBlock block(0);
  block.Reserve(3);
  Vector empty(0);
  for (int i = 0; i < 3; ++i) block.Append(empty);
  for (const Kernel& kernel : AvailableKernels()) {
    std::vector<double> out(3, -1.0);
    kernel.Batch(block, nullptr, kInf, out.data());
    for (double v : out) {
      EXPECT_EQ(v, 0.0) << kernel.name;
    }
  }
}

TEST(DistanceKernelTest, RandomizedDifferentialSweep) {
  Rng rng(505);
  const std::vector<Kernel> kernels = AvailableKernels();
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t dim = 1 + rng.UniformIndex(40);
    const std::size_t n = 1 + rng.UniformIndex(70);
    std::vector<Vector> points = RandomCloud(n, dim, rng);
    RecordBlock block = RecordBlock::FromVectors(points);
    Vector query = RandomQuery(dim, rng);
    const std::size_t begin = rng.UniformIndex(n);
    const std::size_t end = begin + 1 + rng.UniformIndex(n - begin);
    // Mix unbounded scans with bounds tight enough to abandon blocks.
    const double bound =
        trial % 3 == 0 ? kInf : rng.Uniform(0.0, 2.0 * dim);
    std::vector<double> exact(n);
    SquaredDistanceBatchScalar(block, query.data(), exact.data());
    for (const Kernel& kernel : kernels) {
      std::vector<double> out(end - begin, -1.0);
      kernel.range(block, query.data(), begin, end, bound, out.data());
      for (std::size_t i = begin; i < end; ++i) {
        ExpectContract(out[i - begin], exact[i], bound);
      }
    }
  }
}

TEST(DistanceKernelTest, AxpyAndAddScaledRowsMatchScalarLoop) {
  Rng rng(707);
  const std::size_t dim = 13;
  const std::size_t rows = 4;
  std::vector<double> matrix(rows * dim);
  std::vector<double> coeffs(rows);
  for (double& v : matrix) v = rng.Gaussian();
  for (double& c : coeffs) c = rng.Gaussian();
  std::vector<double> expected(dim), got(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    expected[d] = got[d] = rng.Gaussian();
  }
  // Reference: row-by-row, element-by-element accumulation — the order
  // AddScaledRows promises (and SampleFromEigen's bit-identity needs).
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t d = 0; d < dim; ++d) {
      expected[d] += coeffs[r] * matrix[r * dim + d];
    }
  }
  AddScaledRows(dim, coeffs.data(), matrix.data(), rows, got.data());
  for (std::size_t d = 0; d < dim; ++d) {
    EXPECT_EQ(Bits(got[d]), Bits(expected[d]));
  }
}

}  // namespace
}  // namespace condensa::simd
