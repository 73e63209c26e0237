#include "query/snapshot.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::query {

LabeledGroups::LabeledGroups(int label, core::CondensedGroupSet groups)
    : label(label),
      shared_(std::make_shared<const core::CondensedGroupSet>(
          std::move(groups))),
      groups(*shared_) {}

SnapshotIndex::SnapshotIndex(std::size_t dim,
                             const std::vector<LabeledGroups>& pools)
    : dim_(dim) {
  sources_.reserve(pools.size());
  offsets_.reserve(pools.size() + 1);
  offsets_.push_back(0);
  for (const LabeledGroups& pool : pools) {
    sources_.push_back(pool.shared_);
    offsets_.push_back(offsets_.back() + pool.groups.num_groups());
  }
  const std::size_t total = offsets_.back();
  groups_.reserve(total);
  centroids_.reserve(total * dim);
  mass_.reserve(total);
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const LabeledGroups& pool = pools[p];
    const bool labeled = pool.label >= 0;
    const bool fits = pool.groups.empty() || pool.groups.dim() == dim;
    Status status;
    if (!fits) {
      status = FailedPreconditionError(
          "pool " + std::to_string(p) + " has dimension " +
          std::to_string(pool.groups.dim()) + " but the snapshot has " +
          std::to_string(dim));
    }
    for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
      const core::GroupStatistics& group = pool.groups.group(g);
      groups_.push_back(&group);
      mass_.push_back(group.count());
      if (labeled) labeled_.push_back(groups_.size() - 1);
      // A pool of the wrong dimension gets placeholder rows; its status
      // keeps every reader off them.
      const double n = static_cast<double>(group.count());
      for (std::size_t d = 0; d < dim; ++d) {
        centroids_.push_back(fits ? group.first_order()[d] / n : 0.0);
        if (status.ok() && !std::isfinite(centroids_.back())) {
          status = FailedPreconditionError(
              "pool " + std::to_string(p) + " group " + std::to_string(g) +
              " has a non-finite centroid");
        }
      }
    }
    if (range_status_.ok()) range_status_ = status;
    if (labeled && classify_status_.ok()) classify_status_ = status;
  }
  if (range_status_.ok() && total > 0 && dim == 0) {
    range_status_ =
        FailedPreconditionError("snapshot holds groups but has dimension 0");
  }
  if (range_status_.ok() && total > std::numeric_limits<std::uint32_t>::max()) {
    range_status_ = FailedPreconditionError(
        "snapshot holds more than 2^32 - 1 groups");
  }

  // On error no tree is built, so nothing is ever served from a partial
  // or NaN-ordered index.
  if (classify_status_.ok() && !labeled_.empty()) {
    std::vector<double> rows;
    rows.reserve(labeled_.size() * dim);
    for (std::size_t ordinal : labeled_) {
      rows.insert(rows.end(), centroids_.begin() + ordinal * dim,
                  centroids_.begin() + (ordinal + 1) * dim);
    }
    StatusOr<index::KdTree> tree = index::KdTree::Build(rows, dim);
    if (tree.ok()) {
      tree_.emplace(*std::move(tree));
    } else {
      classify_status_ = FailedPreconditionError(tree.status().message());
    }
  }

  if (!range_status_.ok() || total == 0) return;
  const std::size_t blocks = (total + kBlock - 1) / kBlock;
  axes_.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    Axis& axis = axes_[d];
    axis.order.resize(total);
    std::iota(axis.order.begin(), axis.order.end(), std::uint32_t{0});
    // Stable on an ascending sequence: equal coordinates stay in
    // ordinal order.
    std::stable_sort(axis.order.begin(), axis.order.end(),
                     [this, d](std::uint32_t a, std::uint32_t b) {
                       return coordinate(a, d) < coordinate(b, d);
                     });
    axis.keys.reserve(total);
    for (std::uint32_t ordinal : axis.order) {
      axis.keys.push_back(coordinate(ordinal, d));
    }
    axis.nodes.assign(2 * blocks - 1, core::GroupStatistics(dim));
    BuildNodes(axis, 0, 0, blocks);
  }
}

void SnapshotIndex::BuildNodes(Axis& axis, std::size_t node, std::size_t lo,
                               std::size_t hi) {
  core::GroupStatistics& fold = axis.nodes[node];
  if (hi - lo == 1) {
    const std::size_t end = std::min(hi * kBlock, axis.order.size());
    for (std::size_t i = lo * kBlock; i < end; ++i) {
      fold.Merge(*groups_[axis.order[i]]);
    }
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  const std::size_t right = node + 2 * (mid - lo);
  BuildNodes(axis, node + 1, lo, mid);
  BuildNodes(axis, right, mid, hi);
  fold = axis.nodes[node + 1];
  fold.Merge(axis.nodes[right]);
}

bool SnapshotIndex::Indexes(std::size_t dim,
                            const std::vector<LabeledGroups>& pools) const {
  if (dim != dim_ || pools.size() != sources_.size()) return false;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    if (pools[p].shared_ != sources_[p]) return false;
  }
  return true;
}

std::size_t SnapshotIndex::bytes() const {
  std::size_t bytes = sources_.capacity() * sizeof(sources_[0]) +
                      offsets_.capacity() * sizeof(std::size_t) +
                      groups_.capacity() * sizeof(groups_[0]) +
                      centroids_.capacity() * sizeof(double) +
                      mass_.capacity() * sizeof(std::uint64_t) +
                      labeled_.capacity() * sizeof(std::size_t);
  if (tree_) {
    bytes += tree_->size() * (dim_ * sizeof(double) + sizeof(std::size_t));
  }
  const std::size_t fold_bytes = sizeof(core::GroupStatistics) +
                                 (dim_ + dim_ * dim_) * sizeof(double);
  for (const Axis& axis : axes_) {
    bytes += axis.order.capacity() * sizeof(std::uint32_t) +
             axis.keys.capacity() * sizeof(double) +
             axis.nodes.size() * fold_bytes;
  }
  return bytes;
}

std::vector<SnapshotIndex::Neighbor> SnapshotIndex::Nearest(
    const linalg::Vector& point, std::size_t k) const {
  std::vector<Neighbor> out;
  if (!tree_) return out;
  // Rows were laid out in ordinal order, so the row is as good a key as
  // the ordinal itself.
  const std::vector<std::pair<double, std::size_t>> nearest =
      tree_->KNearestKeyed(point, k, [](std::size_t row) { return row; });
  out.reserve(nearest.size());
  for (const auto& [distance_squared, row] : nearest) {
    const std::size_t ordinal = labeled_[row];
    out.push_back({distance_squared, pool(ordinal), mass_[ordinal]});
  }
  return out;
}

std::size_t SnapshotIndex::pool(std::size_t ordinal) const {
  // The pool whose ordinal range [offsets_[p], offsets_[p + 1]) holds it;
  // upper_bound steps past the empty ranges of empty pools.
  return static_cast<std::size_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), ordinal) -
      offsets_.begin() - 1);
}

std::pair<std::size_t, std::size_t> SnapshotIndex::Positions(
    const RangePredicate::Bound& bound) const {
  const std::vector<double>& keys = axes_[bound.dim].keys;
  // Both ends inclusive: the first key >= lo up to the first key > hi.
  const auto first = std::lower_bound(keys.begin(), keys.end(), bound.lo);
  const auto last = std::upper_bound(first, keys.end(), bound.hi);
  return {static_cast<std::size_t>(first - keys.begin()),
          static_cast<std::size_t>(last - keys.begin())};
}

std::vector<std::size_t> SnapshotIndex::Select(
    const RangePredicate& range) const {
  std::vector<std::size_t> selected;
  if (range.bounds.empty()) {
    selected.resize(size());
    std::iota(selected.begin(), selected.end(), std::size_t{0});
    return selected;
  }
  if (size() == 0) return selected;
  // Walk the narrowest bound's sorted range; test the others per group.
  std::size_t narrowest = 0;
  std::pair<std::size_t, std::size_t> span = Positions(range.bounds[0]);
  for (std::size_t b = 1; b < range.bounds.size(); ++b) {
    const std::pair<std::size_t, std::size_t> other =
        Positions(range.bounds[b]);
    if (other.second - other.first < span.second - span.first) {
      narrowest = b;
      span = other;
    }
  }
  // Matches are marked in a bitmap by ordinal, which reads them back in
  // ascending order without a sort.
  std::vector<std::uint64_t> marked((size() + 63) / 64);
  const Axis& axis = axes_[range.bounds[narrowest].dim];
  for (std::size_t i = span.first; i < span.second; ++i) {
    const std::size_t ordinal = axis.order[i];
    bool inside = true;
    for (std::size_t b = 0; b < range.bounds.size() && inside; ++b) {
      const RangePredicate::Bound& bound = range.bounds[b];
      const double value = coordinate(ordinal, bound.dim);
      inside = b == narrowest || !(value < bound.lo || value > bound.hi);
    }
    if (inside) marked[ordinal / 64] |= std::uint64_t{1} << (ordinal % 64);
  }
  for (std::size_t word = 0; word < marked.size(); ++word) {
    for (std::uint64_t bits = marked[word]; bits != 0; bits &= bits - 1) {
      selected.push_back(word * 64 + std::countr_zero(bits));
    }
  }
  return selected;
}

std::uint64_t SnapshotIndex::Fold(const RangePredicate& range,
                                  core::GroupStatistics* folded) const {
  if (size() == 0) return 0;
  if (range.bounds.size() > 1) {
    const std::vector<std::size_t> selected = Select(range);
    for (std::size_t ordinal : selected) folded->Merge(*groups_[ordinal]);
    return selected.size();
  }
  if (range.bounds.empty()) {
    FoldPositions(axes_[0], 0, size(), folded);
    return size();
  }
  const auto [first, last] = Positions(range.bounds[0]);
  FoldPositions(axes_[range.bounds[0].dim], first, last, folded);
  return last - first;
}

void SnapshotIndex::FoldPositions(const Axis& axis, std::size_t first,
                                  std::size_t last,
                                  core::GroupStatistics* folded) const {
  const std::size_t total = axis.order.size();
  const std::size_t blocks = (total + kBlock - 1) / kBlock;
  // The blocks wholly inside [first, last); the last block may be short.
  const std::size_t first_block = (first + kBlock - 1) / kBlock;
  const std::size_t last_block = last == total ? blocks : last / kBlock;
  auto merge_groups = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      folded->Merge(*groups_[axis.order[i]]);
    }
  };
  if (first_block >= last_block) {
    merge_groups(first, last);
    return;
  }
  merge_groups(first, first_block * kBlock);
  FoldNodes(axis, 0, 0, blocks, first_block, last_block, folded);
  merge_groups(std::min(last_block * kBlock, last), last);
}

void SnapshotIndex::FoldNodes(const Axis& axis, std::size_t node,
                              std::size_t lo, std::size_t hi,
                              std::size_t first_block, std::size_t last_block,
                              core::GroupStatistics* folded) const {
  if (last_block <= lo || hi <= first_block) return;
  if (first_block <= lo && hi <= last_block) {
    folded->Merge(axis.nodes[node]);
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  FoldNodes(axis, node + 1, lo, mid, first_block, last_block, folded);
  FoldNodes(axis, node + 2 * (mid - lo), mid, hi, first_block, last_block,
            folded);
}

SnapshotIndexHolder::SnapshotIndexHolder(const SnapshotIndexHolder& other)
    : index_(other.Load()) {}

SnapshotIndexHolder& SnapshotIndexHolder::operator=(
    const SnapshotIndexHolder& other) {
  if (this != &other) {
    std::shared_ptr<const SnapshotIndex> index = other.Load();
    std::lock_guard<std::mutex> lock(mu_);
    index_ = std::move(index);
  }
  return *this;
}

std::shared_ptr<const SnapshotIndex> SnapshotIndexHolder::Load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_;
}

std::shared_ptr<const SnapshotIndex> SnapshotIndexHolder::Get(
    std::size_t dim, const std::vector<LabeledGroups>& pools) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_ == nullptr || !index_->Indexes(dim, pools)) {
    obs::Timer timer;
    index_ = std::make_shared<const SnapshotIndex>(dim, pools);
    obs::DefaultRegistry()
        .GetHistogram("condensa_query_snapshot_index_build_seconds")
        .Observe(timer.ElapsedSeconds());
    obs::DefaultRegistry()
        .GetGauge("condensa_query_snapshot_index_bytes")
        .Set(static_cast<double>(index_->bytes()));
  }
  return index_;
}

std::shared_ptr<const SnapshotIndex> QuerySnapshot::GetIndex() const {
  return index_holder.Get(dim, pools);
}

std::size_t QuerySnapshot::TotalGroups() const {
  std::size_t total = 0;
  for (const LabeledGroups& pool : pools) {
    total += pool.groups.num_groups();
  }
  return total;
}

double QuerySnapshot::AgeMs(std::chrono::steady_clock::time_point now) const {
  if (published_at == std::chrono::steady_clock::time_point{}) {
    return 0.0;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(now - published_at).count();
  return ms < 0.0 ? 0.0 : ms;
}

std::size_t QuerySnapshot::TotalRecords() const {
  std::size_t total = 0;
  for (const LabeledGroups& pool : pools) {
    total += pool.groups.TotalRecords();
  }
  return total;
}

QuerySnapshot SnapshotFromGroupSet(const core::CondensedGroupSet& groups) {
  QuerySnapshot snapshot;
  snapshot.dim = groups.dim();
  snapshot.records_seen = groups.TotalRecords();
  snapshot.pools.emplace_back(-1, groups);
  return snapshot;
}

QuerySnapshot SnapshotFromPools(const core::CondensedPools& pools) {
  QuerySnapshot snapshot;
  snapshot.dim = pools.CondensedDim();
  snapshot.pools.reserve(pools.pools.size());
  for (const core::CondensedPools::Pool& pool : pools.pools) {
    snapshot.records_seen += pool.groups.TotalRecords();
    snapshot.pools.emplace_back(pool.label, pool.groups);
  }
  return snapshot;
}

std::uint64_t SnapshotStore::Publish(QuerySnapshot snapshot) {
  std::shared_ptr<const QuerySnapshot> published;
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version = next_version_++;
    snapshot.version = version;
    snapshot.published_at = std::chrono::steady_clock::now();
    published = std::make_shared<const QuerySnapshot>(std::move(snapshot));
    current_ = std::move(published);
  }
  obs::DefaultRegistry()
      .GetGauge("condensa_query_snapshot_version")
      .Set(static_cast<double>(version));
  return version;
}

std::shared_ptr<const QuerySnapshot> SnapshotStore::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace condensa::query
