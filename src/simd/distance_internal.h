// The individual batch-distance kernels behind SquaredDistanceBatchRange,
// for the dispatcher in distance.cc and the kernel parity tests. Callers
// outside the simd layer use distance.h.

#ifndef CONDENSA_SIMD_DISTANCE_INTERNAL_H_
#define CONDENSA_SIMD_DISTANCE_INTERNAL_H_

#include <cstddef>

#include "simd/record_block.h"

namespace condensa::simd::internal {

// Every kernel writes the (bounded) squared distances of records
// [begin, end) to out[0, end - begin); see distance.h for the contract.
using RangeFn = void (*)(const RecordBlock& records, const double* query,
                         std::size_t begin, std::size_t end, double bound,
                         double* out);

// The reference oracle (distance.cc); never dispatched to.
void RangeScalar(const RecordBlock& records, const double* query,
                 std::size_t begin, std::size_t end, double bound,
                 double* out);
// #pragma omp simd blocked loops (distance.cc); the non-AVX2 kernel.
void RangePortable(const RecordBlock& records, const double* query,
                   std::size_t begin, std::size_t end, double bound,
                   double* out);
// AVX2 intrinsics (distance_avx2.cc); call only when CpuHasAvx2(). A
// no-op on non-x86 builds.
void RangeAvx2(const RecordBlock& records, const double* query,
               std::size_t begin, std::size_t end, double bound,
               double* out);

bool CpuHasAvx2();

// The kernel SquaredDistanceBatchRange calls: RangeAvx2 when the CPU has
// AVX2, RangePortable otherwise. Resolved once at start-up.
RangeFn ResolvedRange();

}  // namespace condensa::simd::internal

#endif  // CONDENSA_SIMD_DISTANCE_INTERNAL_H_
