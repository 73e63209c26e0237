// Vectorized batch distance kernels over RecordBlock storage.
//
// Every kernel computes squared Euclidean distances from one query to
// many stored records. Lanes map to records and each record's sum
// accumulates in dimension order — the same order as
// linalg::SquaredDistance — so every kernel is bit-identical to the
// scalar reference on every input, including NaN/Inf propagation.
// This is the repo's bit-identity contract: releases must not depend on
// which kernel the CPU selects (docs/performance.md, "Kernel dispatch"
// and "The bit-identity contract boundary").
//
// Three implementations exist; the CPU alone picks one at start-up:
//   scalar    plain per-record loops; the reference oracle, never
//             dispatched to.
//   portable  auto-vectorization-friendly blocked loops
//             (#pragma omp simd), compiled with -ffp-contract=off; runs
//             on CPUs without AVX2.
//   avx2      explicit AVX2 intrinsics (mul + add, no FMA); runs when
//             the CPU supports AVX2.
// No environment variable, flag or setter changes the choice, and no
// kernel contracts multiplies into adds, so a seed fixes every release.
//
// The bounded variants abandon a whole block once every lane's partial
// sum exceeds `bound`, writing +infinity for the abandoned records.
// Because partial sums only grow, an abandoned record's true distance is
// strictly greater than `bound`; every finite output is the exact full
// sum. Callers prune with `out[i] > bound` (or compare exact values) and
// get answers identical to a full scalar scan.

#ifndef CONDENSA_SIMD_DISTANCE_H_
#define CONDENSA_SIMD_DISTANCE_H_

#include <cstddef>

#include "simd/record_block.h"

namespace condensa::simd {

// out[i] = squared distance from query (records.dim() doubles) to record
// i, for all i in [0, records.size()).
void SquaredDistanceBatch(const RecordBlock& records, const double* query,
                          double* out);

// Bounded batch over the position range [begin, end); out must hold
// end - begin doubles (out[p - begin] is record p's distance). This is
// the kd-tree leaf-scan entry point.
void SquaredDistanceBatchRange(const RecordBlock& records,
                               const double* query, std::size_t begin,
                               std::size_t end, double bound, double* out);

// The scalar reference oracle. Parity tests compare every kernel
// against this.
void SquaredDistanceBatchScalar(const RecordBlock& records,
                                const double* query, double* out);

// y[i] += a * x[i] for i in [0, n): the anonymizer's eigenvector
// accumulation, compiled contraction-free so results match the scalar
// loop bit for bit.
void Axpy(std::size_t n, double a, const double* x, double* y);

// out[r] += sum over j of coeffs[j] * rows[j*dim + r], accumulated in
// ascending j per element — the batched per-group generation path
// (bit-identical to looping Axpy over rows).
void AddScaledRows(std::size_t dim, const double* coeffs, const double* rows,
                   std::size_t num_rows, double* out);

}  // namespace condensa::simd

#endif  // CONDENSA_SIMD_DISTANCE_H_
