// Dispatcher plus the scalar and portable kernels. This translation unit
// (and the whole condensa_simd target) is compiled with
// -ffp-contract=off -fopenmp-simd: no fused multiply-adds may be formed
// here, or the bit-identity contract with the scalar reference breaks.
// The AVX2 specializations live in distance_avx2.cc.

#include "simd/distance.h"

#include <limits>

#include "common/check.h"
#include "simd/distance_internal.h"

namespace condensa::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kLane = RecordBlock::kLane;
// The bounded kernels test for block abandonment every this many
// dimensions — often enough to save work on wide records, rare enough
// that the check cost vanishes on narrow ones.
constexpr std::size_t kBoundCheckStride = 8;

// One block of kLane records, dimension-major, portable vectorization.
// Every lane accumulates its record's sum in dimension order, so lane
// results equal the scalar per-record loop bit for bit.
void BlockPortable(const double* block, const double* query, std::size_t dim,
                   double* acc) {
  for (std::size_t lane = 0; lane < kLane; ++lane) acc[lane] = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double q = query[d];
    const double* row = block + d * kLane;
#pragma omp simd
    for (std::size_t lane = 0; lane < kLane; ++lane) {
      const double diff = row[lane] - q;
      acc[lane] += diff * diff;
    }
  }
}

// Bounded flavour: bails out of the block once every lane's partial sum
// exceeds `bound` (partials only grow, so all true distances are then
// > bound) and reports the abandoned lanes as +infinity.
void BlockPortableBounded(const double* block, const double* query,
                          std::size_t dim, double bound, double* acc) {
  for (std::size_t lane = 0; lane < kLane; ++lane) acc[lane] = 0.0;
  std::size_t d = 0;
  while (d < dim) {
    const std::size_t stop = d + kBoundCheckStride < dim
                                 ? d + kBoundCheckStride
                                 : dim;
    for (; d < stop; ++d) {
      const double q = query[d];
      const double* row = block + d * kLane;
#pragma omp simd
      for (std::size_t lane = 0; lane < kLane; ++lane) {
        const double diff = row[lane] - q;
        acc[lane] += diff * diff;
      }
    }
    if (d == dim) break;
    bool all_over = true;
    for (std::size_t lane = 0; lane < kLane; ++lane) {
      // NaN partials compare false and keep the block live, so NaN
      // distances complete exactly like the scalar path.
      if (!(acc[lane] > bound)) {
        all_over = false;
        break;
      }
    }
    if (all_over) {
      for (std::size_t lane = 0; lane < kLane; ++lane) acc[lane] = kInf;
      return;
    }
  }
}

// The range entry point is hot enough (one call per kd-tree leaf) that
// re-deciding the kernel per call shows up, so the CPU check runs once.
const internal::RangeFn g_range =
    internal::CpuHasAvx2() ? internal::RangeAvx2 : internal::RangePortable;

}  // namespace

namespace internal {

void RangePortable(const RecordBlock& records, const double* query,
                   std::size_t begin, std::size_t end, double bound,
                   double* out) {
  const std::size_t dim = records.dim();
  const bool bounded = bound < kInf;
  double lanes[kLane];
  for (std::size_t b = begin / kLane; b * kLane < end; ++b) {
    const double* block = records.BlockData(b);
    const std::size_t lo = b * kLane < begin ? begin - b * kLane : 0;
    const std::size_t hi = end - b * kLane < kLane ? end - b * kLane : kLane;
    // Full in-range blocks write straight into out; edge blocks go
    // through the lane buffer.
    double* acc = (lo == 0 && hi == kLane) ? out + (b * kLane - begin)
                                           : lanes;
    if (bounded) {
      BlockPortableBounded(block, query, dim, bound, acc);
    } else {
      BlockPortable(block, query, dim, acc);
    }
    if (acc == lanes) {
      for (std::size_t lane = lo; lane < hi; ++lane) {
        out[b * kLane + lane - begin] = lanes[lane];
      }
    }
  }
}

// The reference oracle: per record, plain scalar accumulation in
// dimension order (exactly linalg::SquaredDistance's loop).
void RangeScalar(const RecordBlock& records, const double* query,
                 std::size_t begin, std::size_t end, double bound,
                 double* out) {
  const std::size_t dim = records.dim();
  const bool bounded = bound < kInf;
  for (std::size_t i = begin; i < end; ++i) {
    double total = 0.0;
    bool abandoned = false;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = records.At(i, d) - query[d];
      total += diff * diff;
      if (bounded && d + 1 < dim && (d + 1) % kBoundCheckStride == 0 &&
          total > bound) {
        abandoned = true;
        break;
      }
    }
    out[i - begin] = abandoned ? kInf : total;
  }
}

RangeFn ResolvedRange() { return g_range; }

}  // namespace internal

void SquaredDistanceBatchRange(const RecordBlock& records,
                               const double* query, std::size_t begin,
                               std::size_t end, double bound, double* out) {
  CONDENSA_DCHECK_LE(begin, end);
  CONDENSA_DCHECK_LE(end, records.size());
  if (begin == end) return;
  g_range(records, query, begin, end, bound, out);
}

void SquaredDistanceBatch(const RecordBlock& records, const double* query,
                          double* out) {
  SquaredDistanceBatchRange(records, query, 0, records.size(), kInf, out);
}

void SquaredDistanceBatchScalar(const RecordBlock& records,
                                const double* query, double* out) {
  internal::RangeScalar(records, query, 0, records.size(), kInf, out);
}

void Axpy(std::size_t n, double a, const double* x, double* y) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

void AddScaledRows(std::size_t dim, const double* coeffs, const double* rows,
                   std::size_t num_rows, double* out) {
  for (std::size_t j = 0; j < num_rows; ++j) {
    Axpy(dim, coeffs[j], rows + j * dim, out);
  }
}

}  // namespace condensa::simd
