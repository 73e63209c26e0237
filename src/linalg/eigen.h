// Eigendecomposition of real symmetric matrices.
//
// This is the `C(G) = P(G) Λ(G) P(G)ᵀ` step of the paper (Section 2.1,
// Equation 1): condensa uses it to find the orthonormal axis system of a
// condensed group's covariance matrix, both for anonymized-data generation
// and for the dynamic split along the largest eigenvector.
//
// Algorithm: cyclic Jacobi rotations with an off-diagonal threshold. For the
// symmetric PSD matrices and modest dimensions (d <= ~50) of the paper's
// workloads this is simple, numerically robust, and produces an orthonormal
// eigenvector set directly. The stopping tolerance and the sweep limit are
// fixed constants (eigen.cc), so a matrix always yields the same
// decomposition.

#ifndef CONDENSA_LINALG_EIGEN_H_
#define CONDENSA_LINALG_EIGEN_H_

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace condensa::linalg {

// Result of a symmetric eigendecomposition, sorted by decreasing eigenvalue
// as the paper assumes (λ₁ >= λ₂ >= ... >= λ_d).
struct EigenDecomposition {
  // eigenvalues[i] is the i-th largest eigenvalue.
  Vector eigenvalues;
  // Column i of `eigenvectors` is the unit eigenvector for eigenvalues[i].
  Matrix eigenvectors;

  // Returns eigenvector i as a Vector (column copy).
  Vector Eigenvector(std::size_t i) const { return eigenvectors.Col(i); }

  // Reconstructs P Λ Pᵀ.
  Matrix Reconstruct() const;
};

// Decomposes the symmetric matrix `a`. Fails with InvalidArgument when `a`
// is empty, non-square or not symmetric (to 1e-8 relative), and with
// Internal when the sweep limit is exhausted (pathological input).
StatusOr<EigenDecomposition> JacobiEigenDecomposition(const Matrix& a);

// Convenience: eigendecomposition with eigenvalues clamped at >= 0, for
// covariance matrices whose tiny negative eigenvalues are round-off.
StatusOr<EigenDecomposition> CovarianceEigenDecomposition(
    const Matrix& covariance);

}  // namespace condensa::linalg

#endif  // CONDENSA_LINALG_EIGEN_H_
