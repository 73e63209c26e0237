// Snapshot-consistent published views of condensed state.
//
// The write path (DynamicCondenser inside a StreamPipeline, or a shard
// gather) mutates its group set continuously; the query plane must never
// observe a half-applied mutation. The contract here is
// publish-by-value: the writer copies its current groups into an
// immutable QuerySnapshot and swaps it into the SnapshotStore; readers
// take a shared_ptr and answer every query of a request against that one
// object. A snapshot is never mutated after Publish, so a query sees one
// stable group-set version end to end while ingest keeps moving
// underneath — and the version stamps inside the copied groups keep the
// eigendecomposition cache exact across snapshots (copying preserves
// stamps; only real mutations mint new ones). Copies share the pools'
// groups, and the snapshot builds its search structures (SnapshotIndex)
// the first time it is queried, so no query rebuilds them.

#ifndef CONDENSA_QUERY_SNAPSHOT_H_
#define CONDENSA_QUERY_SNAPSHOT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"
#include "index/kdtree.h"
#include "linalg/vector.h"
#include "query/query.h"

namespace condensa::query {

// One labeled pool of condensed groups. label -1 means unlabeled (a bare
// group set, or a regression pool) — classify queries require at least
// one pool with a real label.
//
// The pool is read-only after construction, and copies share its groups
// (`groups` refers to one shared, immutable set), so copying or
// publishing a snapshot never copies a group. The shared set also
// identifies the pool to the SnapshotIndex built over it.
class LabeledGroups {
 public:
  LabeledGroups(int label, core::CondensedGroupSet groups);

  const int label;

 private:
  friend class SnapshotIndex;

  // Declared before `groups`, which is initialised from it. A copy's
  // `groups` binds to the source's set, which this pointer shares.
  std::shared_ptr<const core::CondensedGroupSet> shared_;

 public:
  const core::CondensedGroupSet& groups;
};

// Everything a snapshot's queries search, built once per snapshot from
// the groups of every pool, labeled or not. Groups are numbered by their
// global (pool, group) ordinal: the groups of all pools laid end to end
// in pool order. The index holds
//   - each group's centroid (Fs / n, divided element by element as
//     GroupStatistics::Centroid() divides, so every coordinate has the
//     same bits) in one row-major array, and each group's mass n(G);
//   - the classify kd-tree over the centroids of the labeled pools,
//     keyed by ordinal, so index::KdTree::KNearestKeyed ranks by
//     (distance, pool, group) exactly as a scan of every group would,
//     boundary ties included;
//   - per dimension, the groups sorted by (centroid coordinate,
//     ordinal), the sorted coordinates, and a segment tree whose leaves
//     fold kBlock consecutive sorted groups and whose inner nodes fold
//     their two children (left, then right) through
//     GroupStatistics::Merge. The paper's moments are additive
//     (Section 2), so a range on one dimension folds from at most
//     2·(kBlock − 1) edge groups and O(log blocks) nodes — the cached
//     sufficient statistics of a multiresolution kd-tree (Moore, NIPS
//     1998), kept per dimension.
//
// A single-bound range folds, in ascending sorted position, its left
// edge groups, its maximal covering nodes from left to right, then its
// right edge groups; a match-all range reads the root of dimension 0.
// Either regroups the sums, so its bits differ from a (pool, group)-order
// fold in the last places (about 1e-13 relative at 10k groups). A box of
// several bounds walks the sorted range of its most selective bound,
// tests the others per candidate and folds the matches in (pool, group)
// order, bit for bit as the per-group fold.
//
// Immutable once built. It shares the group sets of the pools it
// indexed, which also identify them: a LabeledGroups copy shares its
// set, a different pool never does, and no set can be freed and its
// address reused while the index lives. At d = 10 it holds about
// 1 KB per group (the segment-tree folds are most of it).
class SnapshotIndex {
 public:
  // Groups per segment-tree leaf.
  static constexpr std::size_t kBlock = 32;

  SnapshotIndex(std::size_t dim, const std::vector<LabeledGroups>& pools);
  SnapshotIndex(const SnapshotIndex&) = delete;
  SnapshotIndex& operator=(const SnapshotIndex&) = delete;

  // FailedPrecondition when a labeled, non-empty pool has a dimension
  // other than `dim` or a non-finite centroid coordinate: classify cannot
  // rank by distance. No kd-tree is built then.
  const Status& classify_status() const { return classify_status_; }
  // The same check over every pool (no NaN key can be sorted), plus a
  // zero-dimensional snapshot holding groups. Range queries (aggregate,
  // regenerate) need it OK; the per-dimension trees exist only then.
  const Status& range_status() const { return range_status_; }

  // Whether this index was built from exactly `pools` at `dim`.
  bool Indexes(std::size_t dim, const std::vector<LabeledGroups>& pools) const;
  // Heap bytes held, by size count (the kd-tree's coordinates and order
  // only).
  std::size_t bytes() const;

  // Groups indexed, and per global ordinal: a centroid coordinate, the
  // mass n(G) and the group itself.
  std::size_t size() const { return groups_.size(); }
  double coordinate(std::size_t ordinal, std::size_t d) const {
    return centroids_[ordinal * dim_ + d];
  }
  std::uint64_t mass(std::size_t ordinal) const { return mass_[ordinal]; }
  const core::GroupStatistics& group(std::size_t ordinal) const {
    return *groups_[ordinal];
  }
  // The index of the pool that holds group `ordinal`.
  std::size_t pool(std::size_t ordinal) const;

  struct Neighbor {
    double distance_squared = 0.0;
    std::size_t pool = 0;
    std::uint64_t mass = 0;
  };
  // The min(k, labeled groups) labeled centroids nearest to `point`,
  // ascending by (distance, pool, group). `point` has dim coordinates.
  std::vector<Neighbor> Nearest(const linalg::Vector& point,
                                std::size_t k) const;

  // The ordinals of the groups whose centroid lies inside `range`,
  // ascending. Requires range_status().ok() and a range validated
  // against dim.
  std::vector<std::size_t> Select(const RangePredicate& range) const;
  // Merges the groups whose centroid lies inside `range` into `folded`
  // in the order described above and returns how many there were. Same
  // requirements as Select.
  std::uint64_t Fold(const RangePredicate& range,
                     core::GroupStatistics* folded) const;

 private:
  // One dimension's sorted order and moment tree.
  struct Axis {
    // Ordinals sorted by (centroid coordinate, ordinal).
    std::vector<std::uint32_t> order;
    // keys[i] is the coordinate of group order[i].
    std::vector<double> keys;
    // The segment tree over the blocks, in preorder: the node over
    // blocks [lo, hi) has its left child (over [lo, mid), mid =
    // (lo + hi) / 2) next to it and its right child 2·(mid − lo) slots
    // on. 2·blocks − 1 nodes.
    std::vector<core::GroupStatistics> nodes;
  };

  void BuildNodes(Axis& axis, std::size_t node, std::size_t lo,
                  std::size_t hi);
  // Sorted positions [first, last) of the groups inside `bound`.
  std::pair<std::size_t, std::size_t> Positions(
      const RangePredicate::Bound& bound) const;
  // Folds sorted positions [first, last) of `axis`: edge groups, nodes
  // over the blocks [first_block, last_block) inside, edge groups.
  void FoldPositions(const Axis& axis, std::size_t first, std::size_t last,
                     core::GroupStatistics* folded) const;
  void FoldNodes(const Axis& axis, std::size_t node, std::size_t lo,
                 std::size_t hi, std::size_t first_block,
                 std::size_t last_block, core::GroupStatistics* folded) const;

  std::size_t dim_;
  // One entry per pool of the source snapshot.
  std::vector<std::shared_ptr<const core::CondensedGroupSet>> sources_;
  // offsets_[p] is the ordinal of pool p's group 0; offsets_.back() is
  // the number of groups.
  std::vector<std::size_t> offsets_;
  std::vector<const core::GroupStatistics*> groups_;
  std::vector<double> centroids_;
  std::vector<std::uint64_t> mass_;
  // The ordinal of each kd-tree row (the labeled groups, ascending).
  std::vector<std::size_t> labeled_;
  std::optional<index::KdTree> tree_;
  std::vector<Axis> axes_;
  Status classify_status_;
  Status range_status_;
};

// Holds a snapshot's SnapshotIndex, built on first use. Copies share the
// built index; a holder whose snapshot's pools have changed since builds
// a fresh one, so a stale index is never served.
class SnapshotIndexHolder {
 public:
  SnapshotIndexHolder() = default;
  SnapshotIndexHolder(const SnapshotIndexHolder& other);
  SnapshotIndexHolder& operator=(const SnapshotIndexHolder& other);

  // The index over `pools`: the held one if it still matches, else a new
  // one built under the lock (concurrent callers wait for it). A build
  // is observed in the condensa_query_snapshot_index_build_seconds
  // histogram and sets the condensa_query_snapshot_index_bytes gauge.
  std::shared_ptr<const SnapshotIndex> Get(
      std::size_t dim, const std::vector<LabeledGroups>& pools) const;

 private:
  std::shared_ptr<const SnapshotIndex> Load() const;

  mutable std::mutex mu_;
  mutable std::shared_ptr<const SnapshotIndex> index_;
};

struct QuerySnapshot {
  // Assigned by SnapshotStore::Publish; strictly increasing per store.
  std::uint64_t version = 0;
  std::size_t dim = 0;
  std::vector<LabeledGroups> pools;
  // Records the write path had seen when this snapshot was taken (0 for
  // snapshots built from files).
  std::size_t records_seen = 0;
  // When this snapshot became current (stamped by Publish). Snapshots
  // that were never published (file-built, used directly) keep the
  // default epoch and report age 0 — they are as fresh as their source.
  std::chrono::steady_clock::time_point published_at{};

  // Holds the index GetIndex builds; copies of the snapshot share it.
  SnapshotIndexHolder index_holder;

  std::size_t TotalGroups() const;
  std::size_t TotalRecords() const;
  // Milliseconds since publication as of `now`; 0 for never-published.
  double AgeMs(std::chrono::steady_clock::time_point now) const;
  // The search structure of every query kind over the current `pools`,
  // built on the first call and again only after `pools` or `dim`
  // change.
  std::shared_ptr<const SnapshotIndex> GetIndex() const;
};

// Builds an unversioned snapshot (version assigned at Publish) from
// retained state. Groups are copied; the source remains untouched.
QuerySnapshot SnapshotFromGroupSet(const core::CondensedGroupSet& groups);
QuerySnapshot SnapshotFromPools(const core::CondensedPools& pools);

// Thread-safe holder of the latest published snapshot.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Stamps `snapshot` with the next version and makes it current.
  // Returns the assigned version. Also exports the version as the
  // condensa_query_snapshot_version gauge.
  std::uint64_t Publish(QuerySnapshot snapshot);

  // The latest snapshot, or nullptr before the first Publish. The
  // returned object is immutable and outlives any later Publish.
  std::shared_ptr<const QuerySnapshot> Current() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const QuerySnapshot> current_;
  std::uint64_t next_version_ = 1;
};

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_SNAPSHOT_H_
