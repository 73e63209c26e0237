// Blocked structure-of-arrays record storage for the vectorized distance
// kernels (src/simd/distance.h).
//
// The row-major layout the rest of the library uses (one
// std::vector<double> per record) defeats vectorization of the
// batch-distance hot paths: computing "one query against N records" walks
// N separate heap allocations and the compiler cannot map vector lanes
// onto records. RecordBlock stores the same doubles blocked and
// transposed: records are grouped into blocks of kLane, and within a
// block the storage is dimension-major, so
//
//   data[block * dim * kLane + d * kLane + lane]
//
// holds coordinate d of record (block * kLane + lane). A batch kernel
// streams one 64-byte line (kLane doubles) per dimension per block and
// computes kLane distances at once, with vector lanes mapped to records.
// Each record's squared-distance sum still accumulates in dimension
// order — exactly the order linalg::SquaredDistance uses — so
// vectorizing across records never reassociates a single record's sum
// and the kernels stay bit-identical to the scalar reference (see
// docs/performance.md for the contract boundary).
//
// The final partial block is padded with zero records; kernels compute
// distances for padding lanes too and callers ignore them (size() is the
// true record count). The backing buffer is 64-byte aligned.

#ifndef CONDENSA_SIMD_RECORD_BLOCK_H_
#define CONDENSA_SIMD_RECORD_BLOCK_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "linalg/vector.h"

namespace condensa::simd {

class RecordBlock {
 public:
  // Records per block: 8 doubles = one 64-byte cache line per dimension.
  static constexpr std::size_t kLane = 8;
  static constexpr std::size_t kAlignment = 64;

  // An empty store for d-dimensional records.
  explicit RecordBlock(std::size_t dim) : dim_(dim) {}

  RecordBlock(RecordBlock&&) = default;
  RecordBlock& operator=(RecordBlock&&) = default;
  RecordBlock(const RecordBlock&) = delete;
  RecordBlock& operator=(const RecordBlock&) = delete;

  // Builds a store holding `points` in order. All points must share one
  // dimension (checked); an empty input yields an empty store of dim 0.
  static RecordBlock FromVectors(const std::vector<linalg::Vector>& points);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t dim() const { return dim_; }
  // Blocks currently holding at least one live record.
  std::size_t num_blocks() const { return (size_ + kLane - 1) / kLane; }

  // Appends one record (dim must match).
  void Append(const linalg::Vector& point) {
    CONDENSA_CHECK_EQ(point.dim(), dim_);
    Append(point.data());
  }
  // Same, from a raw pointer to dim() doubles (boundary checked by the
  // caller — this is the batch-ingest path).
  void Append(const double* values);

  // Grows the backing buffer to hold at least `records` records,
  // zero-filling new storage so fresh padding lanes hold benign values.
  void Reserve(std::size_t records);

  // Coordinate d of record i.
  double At(std::size_t i, std::size_t d) const {
    CONDENSA_DCHECK_LT(i, size_);
    CONDENSA_DCHECK_LT(d, dim_);
    return data_[Offset(i, d)];
  }

  // Overwrites record dst with the coordinates of record src (both must
  // be live). Used with Truncate for swap-with-last compaction that
  // mirrors a survivor array.
  void CopyRecord(std::size_t src, std::size_t dst);

  // Drops records [new_size, size()). Freed slots become padding; their
  // stale coordinates are only ever read into lanes whose results the
  // kernels discard.
  void Truncate(std::size_t new_size) {
    CONDENSA_DCHECK_LE(new_size, size_);
    size_ = new_size;
  }

  // Pointer to block b: dim() * kLane doubles, dimension-major.
  const double* BlockData(std::size_t b) const {
    CONDENSA_DCHECK_LT(b, num_blocks());
    return data_.get() + b * dim_ * kLane;
  }

  // Raw aligned storage (kernels only).
  const double* data() const { return data_.get(); }

 private:
  static std::size_t BlocksFor(std::size_t n) {
    return (n + kLane - 1) / kLane;
  }
  std::size_t Offset(std::size_t i, std::size_t d) const {
    return (i / kLane) * dim_ * kLane + d * kLane + (i % kLane);
  }

  struct AlignedDeleter {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_blocks_ = 0;
  std::unique_ptr<double[], AlignedDeleter> data_;
};

}  // namespace condensa::simd

#endif  // CONDENSA_SIMD_RECORD_BLOCK_H_
