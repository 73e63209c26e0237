// Deletion-aware k-NN index for the static condenser's gather loop.
//
// Static condensation (paper Fig. 1) repeatedly removes a seed record and
// its k-1 nearest survivors from the database. A plain KdTree cannot
// delete, so this wrapper keeps one key per indexed point: Erase turns a
// point's key into a tombstone, queries filter tombstones out during
// the traversal itself (KdTree::KNearestKeyed), and once more than half
// of the indexed points are dead the tree is rebuilt over the survivors,
// read back from the tree's own storage in leaf order (amortized
// O(n log n) across a whole condensation run).
//
// Result parity with the brute-force scan is exact, not approximate:
// the filtered traversal ranks candidates by (squared distance, original
// index) and keeps equal-distance boundary candidates in play until the
// key decides. The brute-force path selects by the same key, so both
// pick identical neighbour sets even on duplicate-heavy data where
// distances tie.

#ifndef CONDENSA_INDEX_DELETION_AWARE_H_
#define CONDENSA_INDEX_DELETION_AWARE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/kdtree.h"
#include "linalg/vector.h"

namespace condensa::index {

class DeletionAwareKdTree {
 public:
  // Indexes `points`, copying them into the tree: the caller's vector
  // may change or go away once Build returns.
  static StatusOr<DeletionAwareKdTree> Build(
      const std::vector<linalg::Vector>& points);

  std::size_t alive_count() const { return alive_count_; }
  // A stale tree_pos_ entry (a point dropped by a rebuild) can point
  // past keys_ or at another point's slot, never at its own key.
  bool alive(std::size_t original_index) const {
    const std::size_t i = tree_pos_[original_index];
    return i < keys_.size() && keys_[i] == original_index;
  }

  // Tombstones one point (must currently be alive). Triggers a rebuild
  // over the survivors once more than half of the indexed points are
  // dead.
  void Erase(std::size_t original_index);

  // The k nearest alive points to `query`, as (squared distance,
  // original index) pairs in increasing (distance, index) order — ties
  // broken by original index, matching the brute-force scan exactly.
  // k is clamped to alive_count().
  std::vector<std::pair<double, std::size_t>> KNearestAlive(
      const linalg::Vector& query, std::size_t k) const;

 private:
  explicit DeletionAwareKdTree(KdTree tree) : tree_(std::move(tree)) {}

  void Rebuild();

  KdTree tree_;
  // keys_[i] is the query filter's answer for the tree's point i — its
  // original index while alive, KdTree::kSkipPoint once tombstoned — so
  // the hot filter is a single load. tree_pos_[original] locates an
  // alive original in the current tree so Erase can update keys_.
  std::vector<std::size_t> keys_;
  std::vector<std::size_t> tree_pos_;
  std::size_t alive_count_ = 0;
  std::size_t dead_in_tree_ = 0;  // tombstones among the tree's points
};

}  // namespace condensa::index

#endif  // CONDENSA_INDEX_DELETION_AWARE_H_
