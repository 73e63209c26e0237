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
// centroids packed once at construction (PackedCentroids), so no query
// rebuilds them.

#ifndef CONDENSA_QUERY_SNAPSHOT_H_
#define CONDENSA_QUERY_SNAPSHOT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/condensed_group_set.h"
#include "core/engine.h"
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
  std::shared_ptr<const PackedCentroids> packed_;
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

  std::size_t TotalGroups() const;
  std::size_t TotalRecords() const;
  // Milliseconds since publication as of `now`; 0 for never-published.
  double AgeMs(std::chrono::steady_clock::time_point now) const;
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
