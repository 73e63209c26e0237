#include "simd/record_block.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace condensa::simd {

RecordBlock RecordBlock::FromVectors(
    const std::vector<linalg::Vector>& points) {
  RecordBlock block(points.empty() ? 0 : points.front().dim());
  block.Reserve(points.size());
  for (const linalg::Vector& p : points) {
    CONDENSA_CHECK_EQ(p.dim(), block.dim_);
    block.Append(p.data());
  }
  return block;
}

void RecordBlock::Reserve(std::size_t records) {
  const std::size_t blocks_needed = BlocksFor(records);
  if (blocks_needed <= capacity_blocks_) return;
  const std::size_t new_blocks =
      std::max(blocks_needed, capacity_blocks_ * 2);
  const std::size_t doubles = new_blocks * dim_ * kLane;
  std::unique_ptr<double[], AlignedDeleter> grown(
      static_cast<double*>(::operator new[](
          doubles * sizeof(double), std::align_val_t{kAlignment})));
  // Zero everything: live slots are overwritten below, the rest becomes
  // benign padding for the kernels' discarded lanes.
  std::memset(grown.get(), 0, doubles * sizeof(double));
  if (data_) {
    std::memcpy(grown.get(), data_.get(),
                capacity_blocks_ * dim_ * kLane * sizeof(double));
  }
  data_ = std::move(grown);
  capacity_blocks_ = new_blocks;
}

void RecordBlock::Append(const double* values) {
  Reserve(size_ + 1);
  double* base = data_.get() + (size_ / kLane) * dim_ * kLane + size_ % kLane;
  for (std::size_t d = 0; d < dim_; ++d) {
    base[d * kLane] = values[d];
  }
  ++size_;
}

void RecordBlock::CopyRecord(std::size_t src, std::size_t dst) {
  CONDENSA_DCHECK_LT(src, size_);
  CONDENSA_DCHECK_LT(dst, size_);
  if (src == dst) return;
  const double* from =
      data_.get() + (src / kLane) * dim_ * kLane + src % kLane;
  double* to = data_.get() + (dst / kLane) * dim_ * kLane + dst % kLane;
  for (std::size_t d = 0; d < dim_; ++d) {
    to[d * kLane] = from[d * kLane];
  }
}

}  // namespace condensa::simd
