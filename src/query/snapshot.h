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
// stamps; only real mutations mint new ones). Each pool also carries its
// centroids packed once at construction (PackedCentroids), and the
// snapshot builds one kd-tree over the labeled centroids the first time
// it classifies (ClassifyIndex), so no query rebuilds either.

#ifndef CONDENSA_QUERY_SNAPSHOT_H_
#define CONDENSA_QUERY_SNAPSHOT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"
#include "index/kdtree.h"
#include "linalg/vector.h"
#include "simd/record_block.h"

namespace condensa::query {

// A pool's group centroids packed once, when the pool is built, into
// the blocked layout the batch-distance kernels scan. Row g is group g's
// Fs / n, divided element by element exactly as
// GroupStatistics::Centroid() divides, so every coordinate carries the
// same bits; mass[g] is n(G). 8·(d+1) bytes per group.
struct PackedCentroids {
  explicit PackedCentroids(const core::CondensedGroupSet& groups);

  simd::RecordBlock centroids;
  std::vector<std::uint64_t> mass;
};

// One labeled pool of condensed groups. label -1 means unlabeled (a bare
// group set, or a regression pool) — classify queries require at least
// one pool with a real label.
//
// The pool and its packed centroids are read-only after construction, so
// the view can never drift from the groups. Copies share the view: a
// snapshot copied (or published) once is never repacked.
class LabeledGroups {
 public:
  LabeledGroups(int label, core::CondensedGroupSet groups);

  const int label;
  const core::CondensedGroupSet groups;

  const PackedCentroids& packed() const { return *packed_; }

 private:
  friend class ClassifyIndex;

  std::shared_ptr<const PackedCentroids> packed_;
};

// One kd-tree over the centroids of every labeled, non-empty pool of a
// snapshot: the classify search structure. Each centroid's key is its
// global (pool, group) ordinal (the groups of the indexed pools laid end
// to end in pool order), so ranking by (distance, key) is ranking by
// (distance, pool, group), and index::KdTree::KNearestKeyed returns
// exactly the neighbours a scan of every group would, boundary ties
// included. Distances come from the tree's batch kernel over the packed
// centroid values, bit-identical to SquaredDistanceToCentroid.
//
// Immutable once built. It holds the packed views of the pools it
// indexed, which also identify them: a LabeledGroups copy shares its
// view, a different pool never does, and no view can be freed and its
// address reused while the index lives.
class ClassifyIndex {
 public:
  // Indexes the labeled, non-empty pools of `pools`. A labeled pool with
  // a non-finite centroid coordinate or a dimension other than `dim`
  // leaves the index empty with a FailedPrecondition status().
  ClassifyIndex(std::size_t dim, const std::vector<LabeledGroups>& pools);
  ClassifyIndex(const ClassifyIndex&) = delete;
  ClassifyIndex& operator=(const ClassifyIndex&) = delete;

  const Status& status() const { return status_; }
  // Whether this index was built from exactly `pools` at `dim`.
  bool Indexes(std::size_t dim, const std::vector<LabeledGroups>& pools) const;

  struct Neighbor {
    double distance_squared = 0.0;
    std::size_t pool = 0;
    std::size_t group = 0;
  };
  // The min(k, indexed groups) labeled centroids nearest to `point`,
  // ascending by (distance, pool, group). `point` has dim() coordinates.
  std::vector<Neighbor> Nearest(const linalg::Vector& point,
                                std::size_t k) const;

 private:
  std::size_t dim_;
  // One entry per pool of the source snapshot, labeled or not.
  std::vector<std::shared_ptr<const PackedCentroids>> sources_;
  // offsets_[p] is the key of pool p's group 0; offsets_.back() is the
  // number of indexed centroids. Unindexed pools span no keys.
  std::vector<std::size_t> offsets_;
  std::optional<index::KdTree> tree_;
  Status status_;
};

// Holds a snapshot's ClassifyIndex, built on first use. Copies share the
// built index; a holder whose snapshot's pools have changed since builds
// a fresh one, so a stale index is never served.
class ClassifyIndexHolder {
 public:
  ClassifyIndexHolder() = default;
  ClassifyIndexHolder(const ClassifyIndexHolder& other);
  ClassifyIndexHolder& operator=(const ClassifyIndexHolder& other);

  // The index over `pools`: the held one if it still matches, else a new
  // one built under the lock (concurrent callers wait for it).
  std::shared_ptr<const ClassifyIndex> Get(
      std::size_t dim, const std::vector<LabeledGroups>& pools) const;

 private:
  std::shared_ptr<const ClassifyIndex> Load() const;

  mutable std::mutex mu_;
  mutable std::shared_ptr<const ClassifyIndex> index_;
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

  // Holds the index GetClassifyIndex builds; copies of the snapshot
  // share it.
  ClassifyIndexHolder classify_index_holder;

  std::size_t TotalGroups() const;
  std::size_t TotalRecords() const;
  // Milliseconds since publication as of `now`; 0 for never-published.
  double AgeMs(std::chrono::steady_clock::time_point now) const;
  // Classify's search structure over the current `pools`, built on the
  // first call and again only after `pools` or `dim` change.
  std::shared_ptr<const ClassifyIndex> GetClassifyIndex() const;
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
