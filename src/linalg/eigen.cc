#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace condensa::linalg {
namespace {

// Stop when the off-diagonal norm is <= kRelativeTolerance * max(1, |A|_max).
constexpr double kRelativeTolerance = 1e-12;
// Safety bound on full sweeps; Jacobi converges quadratically, so this is
// generous for any realistic input.
constexpr int kMaxSweeps = 64;

struct EigenMetrics {
  obs::Counter& decompositions = obs::DefaultRegistry().GetCounter(
      "condensa_eigen_decompositions_total");
  obs::Counter& sweeps =
      obs::DefaultRegistry().GetCounter("condensa_eigen_sweeps_total");
  obs::Counter& failures =
      obs::DefaultRegistry().GetCounter("condensa_eigen_failures_total");
  obs::Counter& clamped_eigenvalues = obs::DefaultRegistry().GetCounter(
      "condensa_eigen_clamped_eigenvalues_total");

  static EigenMetrics& Get() {
    static EigenMetrics metrics;
    return metrics;
  }
};

// A 2x2 decomposition runs in ~200ns, so even two relaxed fetch_adds
// per call are measurable. Successful runs therefore tally into
// thread-locals and flush to the registry every kFlushEvery runs (and
// at thread exit; the registry is a leaked singleton, so flushing from
// a thread_local destructor is safe).
struct EigenTally {
  std::uint64_t runs = 0;
  std::uint64_t sweeps = 0;

  static constexpr std::uint64_t kFlushEvery = 16;

  void Record(int sweep_count) {
    ++runs;
    sweeps += static_cast<std::uint64_t>(sweep_count);
    if (runs >= kFlushEvery) Flush();
  }

  void Flush() {
    if (runs == 0) return;
    EigenMetrics& metrics = EigenMetrics::Get();
    metrics.decompositions.Increment(runs);
    metrics.sweeps.Increment(sweeps);
    runs = 0;
    sweeps = 0;
  }

  ~EigenTally() { Flush(); }
};

thread_local EigenTally eigen_tally;

// Sum of squared off-diagonal entries.
double OffDiagonalNorm(const Matrix& a) {
  double total = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = r + 1; c < a.cols(); ++c) {
      total += 2.0 * a(r, c) * a(r, c);
    }
  }
  return std::sqrt(total);
}

}  // namespace

Matrix EigenDecomposition::Reconstruct() const {
  Matrix lambda = Matrix::Diagonal(eigenvalues);
  return MatMul(MatMul(eigenvectors, lambda), eigenvectors.Transposed());
}

StatusOr<EigenDecomposition> JacobiEigenDecomposition(const Matrix& a) {
  if (a.empty()) {
    return InvalidArgumentError("eigendecomposition of empty matrix");
  }
  if (a.rows() != a.cols()) {
    return InvalidArgumentError("eigendecomposition requires a square matrix");
  }
  double scale = std::max(1.0, a.MaxAbs());
  if (!a.IsSymmetric(1e-8 * scale)) {
    return InvalidArgumentError("eigendecomposition requires symmetry");
  }

  const std::size_t n = a.rows();
  Matrix work = a;
  // Symmetrize exactly to eliminate tiny asymmetries.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      double avg = 0.5 * (work(r, c) + work(c, r));
      work(r, c) = avg;
      work(c, r) = avg;
    }
  }
  Matrix vectors = Matrix::Identity(n);

  // Tests arm this probe to exercise the non-convergence path without
  // having to construct a pathological matrix.
  if (Status forced = FailPoint::Maybe("eigen.jacobi"); !forced.ok()) {
    return forced;
  }

  const double tolerance = kRelativeTolerance * scale;
  int sweep = 0;
  while (OffDiagonalNorm(work) > tolerance) {
    if (++sweep > kMaxSweeps) {
      EigenMetrics::Get().failures.Increment();
      return InternalError("Jacobi eigendecomposition failed to converge");
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double apq = work(p, q);
        if (std::abs(apq) <= tolerance * 1e-2) continue;
        double app = work(p, p);
        double aqq = work(q, q);
        // Classic Jacobi rotation: choose t = tan(theta) so that the (p,q)
        // entry is annihilated, via the stable formula using theta-cotangent.
        double tau = (aqq - app) / (2.0 * apq);
        double t;
        if (tau >= 0.0) {
          t = 1.0 / (tau + std::sqrt(1.0 + tau * tau));
        } else {
          t = -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        }
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = t * c;

        // Apply the rotation A <- Jᵀ A J on rows/columns p and q.
        for (std::size_t i = 0; i < n; ++i) {
          double aip = work(i, p);
          double aiq = work(i, q);
          work(i, p) = c * aip - s * aiq;
          work(i, q) = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          double api = work(p, i);
          double aqi = work(q, i);
          work(p, i) = c * api - s * aqi;
          work(q, i) = s * api + c * aqi;
        }
        // Accumulate eigenvectors: V <- V J.
        for (std::size_t i = 0; i < n; ++i) {
          double vip = vectors(i, p);
          double viq = vectors(i, q);
          vectors(i, p) = c * vip - s * viq;
          vectors(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  eigen_tally.Record(sweep);

  // Collect and sort eigenpairs by decreasing eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> raw(n);
  for (std::size_t i = 0; i < n; ++i) raw[i] = work(i, i);
  std::stable_sort(order.begin(), order.end(),
                   [&raw](std::size_t x, std::size_t y) {
                     return raw[x] > raw[y];
                   });

  EigenDecomposition result;
  result.eigenvalues = Vector(n);
  result.eigenvectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    result.eigenvalues[i] = raw[order[i]];
    for (std::size_t r = 0; r < n; ++r) {
      result.eigenvectors(r, i) = vectors(r, order[i]);
    }
  }
  return result;
}

StatusOr<EigenDecomposition> CovarianceEigenDecomposition(
    const Matrix& covariance) {
  CONDENSA_ASSIGN_OR_RETURN(EigenDecomposition decomposition,
                            JacobiEigenDecomposition(covariance));
  for (std::size_t i = 0; i < decomposition.eigenvalues.dim(); ++i) {
    if (decomposition.eigenvalues[i] < 0.0) {
      decomposition.eigenvalues[i] = 0.0;
      EigenMetrics::Get().clamped_eigenvalues.Increment();
    }
  }
  return decomposition;
}

}  // namespace condensa::linalg
