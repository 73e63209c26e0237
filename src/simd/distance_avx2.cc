// The AVX2 batch distance kernel, which distance.cc selects once at
// start-up when the CPU supports AVX2. Compiled as part of the
// ordinary (baseline -march) build: the AVX2 code is gated behind GCC's
// per-function target attribute and only ever called after
// __builtin_cpu_supports("avx2") says it is safe, so the binary still
// runs on pre-AVX2 hardware.
//
// The kernel uses separate multiply and add (no FMA), which keeps lane
// results bit-identical to the scalar reference: per record the sum
// accumulates in dimension order and each (diff * diff) rounds exactly
// as the scalar loop rounds it. A fused _mm256_fmadd_pd would skip that
// intermediate rounding and change low bits (docs/performance.md, "The
// bit-identity contract boundary").

#include <cstddef>
#include <limits>

#include "simd/distance_internal.h"
#include "simd/record_block.h"

#if defined(__x86_64__) || defined(__i386__)
#define CONDENSA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace condensa::simd::internal {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kLane = RecordBlock::kLane;
constexpr std::size_t kBoundCheckStride = 8;
}  // namespace

#if defined(CONDENSA_SIMD_X86)

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

namespace {

// One block of kLane records in two 4-wide accumulators. Returns true if
// the block was abandoned (all lanes' partial sums exceeded `bound`), in
// which case acc holds +inf for every lane.
__attribute__((target("avx2"))) inline bool BlockAvx2(
    const double* block, const double* query, std::size_t dim, double bound,
    bool bounded, double* acc) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m256d vbound = _mm256_set1_pd(bound);
  std::size_t d = 0;
  while (d < dim) {
    const std::size_t stop =
        d + kBoundCheckStride < dim ? d + kBoundCheckStride : dim;
    for (; d < stop; ++d) {
      const __m256d q = _mm256_set1_pd(query[d]);
      const double* row = block + d * kLane;
      const __m256d diff0 = _mm256_sub_pd(_mm256_load_pd(row), q);
      const __m256d diff1 = _mm256_sub_pd(_mm256_load_pd(row + 4), q);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(diff0, diff0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(diff1, diff1));
    }
    if (d == dim) break;
    if (bounded) {
      // GT compares are false for NaN partials, keeping those lanes (and
      // hence the block) live — NaN distances complete like scalar.
      const __m256d over0 = _mm256_cmp_pd(acc0, vbound, _CMP_GT_OQ);
      const __m256d over1 = _mm256_cmp_pd(acc1, vbound, _CMP_GT_OQ);
      if (_mm256_movemask_pd(over0) == 0xF &&
          _mm256_movemask_pd(over1) == 0xF) {
        const __m256d inf = _mm256_set1_pd(kInf);
        _mm256_storeu_pd(acc, inf);
        _mm256_storeu_pd(acc + 4, inf);
        return true;
      }
    }
  }
  _mm256_storeu_pd(acc, acc0);
  _mm256_storeu_pd(acc + 4, acc1);
  return false;
}

}  // namespace

__attribute__((target("avx2"))) void RangeAvx2(
    const RecordBlock& records, const double* query, std::size_t begin,
    std::size_t end, double bound, double* out) {
  const std::size_t dim = records.dim();
  const bool bounded = bound < kInf;
  alignas(32) double lanes[kLane];
  for (std::size_t b = begin / kLane; b * kLane < end; ++b) {
    const double* block = records.BlockData(b);
    const std::size_t lo = b * kLane < begin ? begin - b * kLane : 0;
    const std::size_t hi = end - b * kLane < kLane ? end - b * kLane : kLane;
    if (lo == 0 && hi == kLane) {
      // Full in-range block (the common case once the kd-tree
      // lane-aligns its leaf ranges): results land directly in out.
      BlockAvx2(block, query, dim, bound, bounded, out + (b * kLane - begin));
      continue;
    }
    BlockAvx2(block, query, dim, bound, bounded, lanes);
    for (std::size_t lane = lo; lane < hi; ++lane) {
      out[b * kLane + lane - begin] = lanes[lane];
    }
  }
}

#else  // !CONDENSA_SIMD_X86

bool CpuHasAvx2() { return false; }

void RangeAvx2(const RecordBlock&, const double*, std::size_t, std::size_t,
               double, double*) {}

#endif  // CONDENSA_SIMD_X86

}  // namespace condensa::simd::internal
