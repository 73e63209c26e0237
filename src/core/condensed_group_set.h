// The set H of condensed-group aggregates produced by a condenser.
//
// This is all the server retains about the data (paper Section 2): one
// (Fs, Sc, n) aggregate per group plus the indistinguishability level k the
// set was built for. The privacy summary exposes the achieved group sizes,
// since static condensation can leave a few groups with more than k records
// and dynamic condensation keeps groups between k and 2k.

#ifndef CONDENSA_CORE_CONDENSED_GROUP_SET_H_
#define CONDENSA_CORE_CONDENSED_GROUP_SET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"

namespace condensa::core {

// Aggregate view of the privacy level a group set achieves.
struct PrivacySummary {
  std::size_t num_groups = 0;
  std::size_t total_records = 0;
  // Smallest group: the achieved indistinguishability level.
  std::size_t min_group_size = 0;
  std::size_t max_group_size = 0;
  double average_group_size = 0.0;
};

class CondensedGroupSet {
 public:
  // Backend id of the paper's condensation algorithm — the default stamp
  // of every group set, and the one the serialized formats omit (so
  // default-backend releases and checkpoints stay byte-identical to
  // documents written before the backend framework existed).
  static constexpr char kDefaultBackendId[] = "condensation";

  CondensedGroupSet(std::size_t dim, std::size_t indistinguishability_level)
      : dim_(dim), k_(indistinguishability_level) {}

  std::size_t dim() const { return dim_; }
  // The k this set was built for.
  std::size_t indistinguishability_level() const { return k_; }

  // Identity of the anonymization backend that built this set (see
  // docs/backends.md). The stamp travels through serialization and
  // checkpoints, so a structure built by one backend refuses to be
  // maintained under another.
  const std::string& backend_id() const { return backend_id_; }
  int backend_version() const { return backend_version_; }
  // `id` must be non-empty and `version` >= 1.
  void SetBackend(std::string id, int version);

  std::size_t num_groups() const { return groups_.size(); }
  bool empty() const { return groups_.empty(); }

  const GroupStatistics& group(std::size_t i) const {
    CONDENSA_DCHECK_LT(i, groups_.size());
    return groups_[i];
  }
  GroupStatistics& mutable_group(std::size_t i) {
    CONDENSA_DCHECK_LT(i, groups_.size());
    return groups_[i];
  }
  const std::vector<GroupStatistics>& groups() const { return groups_; }

  // Appends a group aggregate. Dim must match; the group must be non-empty.
  void AddGroup(GroupStatistics group);

  // Reserves capacity for `count` groups (bulk-gather fast path).
  void ReserveGroups(std::size_t count) { groups_.reserve(count); }

  // Appends every group of `other` in order, leaving `other` empty. Dim
  // must match; `other`'s k and backend stamp are ignored (this set's
  // stand — scatter/gather merges only sets built by one backend). This is the
  // scatter/gather concatenation step: because the aggregates are
  // additive, moving them between sets loses nothing.
  void Absorb(CondensedGroupSet&& other);

  // Removes group i (order not preserved; O(1)).
  void RemoveGroup(std::size_t i);

  // Index of the group whose centroid is nearest to `point` (Euclidean),
  // by a linear scan over the centroids; the lowest id wins a distance
  // tie. Every record-routing path (static leftovers, dynamic insert and
  // remove, shard gather folds) uses it. Requires a non-empty set.
  std::size_t NearestGroup(const linalg::Vector& point) const;

  // Total records across groups.
  std::size_t TotalRecords() const;

  PrivacySummary Summary() const;

 private:
  std::size_t dim_;
  std::size_t k_;
  std::string backend_id_ = kDefaultBackendId;
  int backend_version_ = 1;
  std::vector<GroupStatistics> groups_;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_CONDENSED_GROUP_SET_H_
