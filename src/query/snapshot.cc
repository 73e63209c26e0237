#include "query/snapshot.h"

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
