#include "index/deletion_aware.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::index {
namespace {

struct DeletionAwareMetrics {
  obs::Counter& builds = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_builds_total");
  obs::Counter& rebuilds = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_rebuilds_total");
  obs::Counter& queries = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_queries_total");
  obs::Histogram& rebuild_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_static_index_rebuild_seconds");

  static DeletionAwareMetrics& Get() {
    static DeletionAwareMetrics metrics;
    return metrics;
  }
};

}  // namespace

StatusOr<DeletionAwareKdTree> DeletionAwareKdTree::Build(
    const std::vector<linalg::Vector>& points) {
  CONDENSA_ASSIGN_OR_RETURN(KdTree tree, KdTree::Build(points));
  DeletionAwareKdTree wrapper(std::move(tree));
  wrapper.keys_.resize(points.size());
  std::iota(wrapper.keys_.begin(), wrapper.keys_.end(), 0);
  wrapper.tree_pos_ = wrapper.keys_;
  wrapper.alive_count_ = points.size();
  DeletionAwareMetrics::Get().builds.Increment();
  return wrapper;
}

void DeletionAwareKdTree::Erase(std::size_t original_index) {
  CONDENSA_DCHECK(alive(original_index));
  keys_[tree_pos_[original_index]] = KdTree::kSkipPoint;
  --alive_count_;
  ++dead_in_tree_;
  // Rebuild once half of the indexed points are tombstones: dead points
  // dilute every leaf scan and widen the k-th-alive ball, but each
  // rebuild is a full build, and at a quarter the extra builds cost more
  // than the thinner leaves saved (docs/performance.md). Geometric
  // shrink keeps the total at O(n log n) over a full condensation run.
  if (alive_count_ > 0 && dead_in_tree_ * 2 > keys_.size()) {
    Rebuild();
  }
}

void DeletionAwareKdTree::Rebuild() {
  DeletionAwareMetrics& metrics = DeletionAwareMetrics::Get();
  obs::ScopedTimer rebuild_timer(metrics.rebuild_seconds);
  // Survivors come back in the old tree's leaf order, so the new build
  // starts from spatially coherent rows.
  std::vector<double> rows;
  rows.reserve(alive_count_ * tree_.dim());
  std::vector<std::size_t> keys;
  keys.reserve(alive_count_);
  for (std::size_t pos = 0; pos < tree_.size(); ++pos) {
    const std::size_t original = keys_[tree_.PointAt(pos)];
    if (original == KdTree::kSkipPoint) continue;
    tree_pos_[original] = keys.size();
    keys.push_back(original);
    tree_.AppendRow(pos, rows);
  }
  // The rows are the previous tree's own finite coordinates, so the
  // invariants Build checks still hold.
  StatusOr<KdTree> tree = KdTree::Build(rows, tree_.dim());
  CONDENSA_CHECK(tree.ok());
  tree_ = *std::move(tree);
  keys_ = std::move(keys);
  dead_in_tree_ = 0;
  metrics.rebuilds.Increment();
}

std::vector<std::pair<double, std::size_t>>
DeletionAwareKdTree::KNearestAlive(const linalg::Vector& query,
                                   std::size_t k) const {
  DeletionAwareMetrics::Get().queries.Increment();
  const std::size_t need = std::min(k, alive_count_);
  if (need == 0) return {};
  // One filtered traversal: the tree skips tombstones in place and ranks
  // candidates by (squared distance, original index) — the same key the
  // brute-force scan sorts by, so both paths pick identical neighbour
  // sets even on duplicate-heavy data where distances tie.
  const std::size_t* keys = keys_.data();
  return tree_.KNearestKeyed(query, need,
                              [keys](std::size_t i) { return keys[i]; });
}

}  // namespace condensa::index
