#include "query/snapshot.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace condensa::query {

PackedCentroids::PackedCentroids(const core::CondensedGroupSet& groups)
    : centroids(groups.dim()) {
  centroids.Reserve(groups.num_groups());
  mass.reserve(groups.num_groups());
  for (const core::GroupStatistics& group : groups.groups()) {
    centroids.AppendQuotient(group.first_order().data(),
                             static_cast<double>(group.count()));
    mass.push_back(group.count());
  }
}

LabeledGroups::LabeledGroups(int label, core::CondensedGroupSet groups)
    : label(label),
      groups(std::move(groups)),
      packed_(std::make_shared<const PackedCentroids>(this->groups)) {}

ClassifyIndex::ClassifyIndex(std::size_t dim,
                             const std::vector<LabeledGroups>& pools)
    : dim_(dim) {
  sources_.reserve(pools.size());
  offsets_.reserve(pools.size() + 1);
  offsets_.push_back(0);
  // The indexed centroids in key order, row-major: the tree copies them
  // into its own storage, so this buffer dies with the constructor.
  std::vector<double> rows;
  std::size_t indexed = 0;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    const LabeledGroups& pool = pools[p];
    sources_.push_back(pool.packed_);
    if (pool.label >= 0 && status_.ok()) {
      const simd::RecordBlock& block = pool.packed().centroids;
      if (!pool.groups.empty() && block.dim() != dim) {
        status_ = FailedPreconditionError(
            "labeled pool " + std::to_string(p) + " has dimension " +
            std::to_string(block.dim()) + " but the snapshot has " +
            std::to_string(dim));
      }
      for (std::size_t g = 0; g < block.size() && status_.ok(); ++g) {
        for (std::size_t d = 0; d < dim; ++d) {
          rows.push_back(block.At(g, d));
          if (!std::isfinite(rows.back())) {
            status_ = FailedPreconditionError(
                "labeled pool " + std::to_string(p) + " group " +
                std::to_string(g) + " has a non-finite centroid");
          }
        }
        ++indexed;
      }
    }
    offsets_.push_back(indexed);
  }
  // On error no tree is built, so nothing is ever served from a partial
  // or NaN-ordered index.
  if (!status_.ok() || indexed == 0) return;
  StatusOr<index::KdTree> tree = index::KdTree::Build(rows, dim);
  if (!tree.ok()) {
    status_ = FailedPreconditionError(tree.status().message());
    return;
  }
  tree_.emplace(*std::move(tree));
}

bool ClassifyIndex::Indexes(std::size_t dim,
                            const std::vector<LabeledGroups>& pools) const {
  if (dim != dim_ || pools.size() != sources_.size()) return false;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    if (pools[p].packed_ != sources_[p]) return false;
  }
  return true;
}

std::vector<ClassifyIndex::Neighbor> ClassifyIndex::Nearest(
    const linalg::Vector& point, std::size_t k) const {
  std::vector<Neighbor> out;
  if (!tree_) return out;
  // Keys are the tree's build rows, which were laid out in key order.
  const std::vector<std::pair<double, std::size_t>> nearest =
      tree_->KNearestKeyed(point, k, [](std::size_t i) { return i; });
  out.reserve(nearest.size());
  for (const auto& [distance_squared, key] : nearest) {
    // The pool whose key range [offsets_[p], offsets_[p + 1]) holds key;
    // upper_bound steps past the empty ranges of unindexed pools.
    const std::size_t pool = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), key) -
        offsets_.begin() - 1);
    out.push_back({distance_squared, pool, key - offsets_[pool]});
  }
  return out;
}

ClassifyIndexHolder::ClassifyIndexHolder(const ClassifyIndexHolder& other)
    : index_(other.Load()) {}

ClassifyIndexHolder& ClassifyIndexHolder::operator=(
    const ClassifyIndexHolder& other) {
  if (this != &other) {
    std::shared_ptr<const ClassifyIndex> index = other.Load();
    std::lock_guard<std::mutex> lock(mu_);
    index_ = std::move(index);
  }
  return *this;
}

std::shared_ptr<const ClassifyIndex> ClassifyIndexHolder::Load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_;
}

std::shared_ptr<const ClassifyIndex> ClassifyIndexHolder::Get(
    std::size_t dim, const std::vector<LabeledGroups>& pools) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_ == nullptr || !index_->Indexes(dim, pools)) {
    index_ = std::make_shared<const ClassifyIndex>(dim, pools);
  }
  return index_;
}

std::shared_ptr<const ClassifyIndex> QuerySnapshot::GetClassifyIndex() const {
  return classify_index_holder.Get(dim, pools);
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
