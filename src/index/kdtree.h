// k-d tree for exact nearest-neighbour queries.
//
// The condensation pipeline is dominated by nearest-neighbour work over
// records, and this tree backs it: the static condenser's neighbour
// gathering goes through index::DeletionAwareKdTree (a tombstone wrapper
// over this tree that rebuilds as tombstones accumulate and falls back to
// the brute-force scan below a size threshold — see deletion_aware.h),
// and the k-NN classifier queries it directly. Nearest-centroid group
// routing does not use it: CondensedGroupSet::NearestGroup scans the
// centroids linearly. A k-d tree brings the per-query cost from O(n) to
// roughly O(log n) in the low dimensions typical of the paper's
// workloads, and degrades gracefully (never worse than a full scan) in
// high dimensions.
//
// The tree owns its points: Build copies the input rows into one blocked
// store in leaf order, and the caller's array may change or go away once
// Build returns. Queries report a point by its row in the build input.
// Build is median-split on the widest-spread dimension.

#ifndef CONDENSA_INDEX_KDTREE_H_
#define CONDENSA_INDEX_KDTREE_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/vector.h"
#include "simd/distance.h"
#include "simd/record_block.h"

namespace condensa::index {

namespace internal {
// Reusable per-thread leaf-scan buffers, so queries never heap-allocate
// per leaf (or per query). Safe because a search never re-enters another
// search on the same thread while a leaf is mid-scan.
struct LeafScratch {
  std::vector<double> dist;        // kernel distance per leaf record
  std::vector<std::size_t> hits;   // leaf offsets that pass the bound
};
LeafScratch& KdLeafScratch();
}  // namespace internal

class KdTree {
 public:
  // Builds an index over `rows`: rows.size() / dim points of `dim`
  // doubles each, row-major. Fails unless dim > 0, rows is a non-empty
  // multiple of dim and every coordinate is finite (a NaN would break
  // the median split's ordering). Point i is row i.
  static StatusOr<KdTree> Build(std::span<const double> rows,
                                std::size_t dim);
  // Same over `points` (one dimension, non-empty): packs them into rows
  // and builds from those.
  static StatusOr<KdTree> Build(const std::vector<linalg::Vector>& points);

  std::size_t size() const { return coords_.size(); }
  std::size_t dim() const { return dim_; }

  // Tree positions 0..size() list the points in leaf order, so nearby
  // positions hold nearby points. PointAt(pos) is the build-input row of
  // the point at `pos`; AppendRow appends that point's coordinates to
  // `rows`. Together they rebuild a tree from this one's own storage.
  std::size_t PointAt(std::size_t pos) const { return order_[pos]; }
  void AppendRow(std::size_t pos, std::vector<double>& rows) const;

  // Index of the point nearest to `query` (Euclidean).
  std::size_t Nearest(const linalg::Vector& query) const;

  // Indices of the k nearest points in increasing distance order
  // (k clamped to size()).
  std::vector<std::size_t> KNearest(const linalg::Vector& query,
                                    std::size_t k) const;

  // Indices of all points within `radius` of `query`, unordered.
  std::vector<std::size_t> RadiusSearch(const linalg::Vector& query,
                                        double radius) const;

  // Same, but bounded by a squared distance directly — no sqrt round
  // trip, so a bound taken from a k-NN result captures boundary ties
  // exactly (points at squared distance == radius_sq are included).
  std::vector<std::size_t> RadiusSearchSquared(const linalg::Vector& query,
                                               double radius_sq) const;

  // Sentinel `key_of` return value meaning "exclude this point".
  static constexpr std::size_t kSkipPoint = static_cast<std::size_t>(-1);

  // Exact filtered k-NN under a caller-chosen total order, in a single
  // traversal. `key_of(i)` maps indexed point i to its tie-break key, or
  // kSkipPoint to exclude it. Returns the k smallest accepted candidates
  // as (squared distance, key) pairs, sorted ascending by (distance,
  // key) — exactly what a brute-force scan over the accepted points
  // would select with that key, including boundary ties. Returns fewer
  // than k pairs when the filter leaves fewer accepted points. This is
  // the static condenser's hot path (see index/deletion_aware.h).
  template <typename KeyOf>
  std::vector<std::pair<double, std::size_t>> KNearestKeyed(
      const linalg::Vector& query, std::size_t k, KeyOf&& key_of) const;

 private:
  struct Node {
    // Leaf when split_dim is kLeaf; then [begin, end) indexes order_.
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
    std::size_t split_dim = kLeaf;
    double split_value = 0.0;
    std::size_t left = 0;   // child node ids (internal nodes)
    std::size_t right = 0;
    std::size_t begin = 0;  // leaf payload range in order_
    std::size_t end = 0;
  };

  // Max-heap entry used during k-NN search.
  struct HeapEntry {
    double distance_sq;
    std::size_t index;
    bool operator<(const HeapEntry& other) const {
      return distance_sq < other.distance_sq;
    }
  };

  KdTree() = default;

  // Splits order_[begin, end) over the row-major build input `rows`.
  std::size_t BuildRecursive(const double* rows, std::size_t begin,
                             std::size_t end);
  // All searches prune with an incremental region bound (Arya & Mount):
  // `bound_sq` is a lower bound on the squared distance from the query
  // to the node's region, maintained as the sum over dimensions of the
  // squared "excess" (how far the query sits outside the region along
  // that axis, tracked in `excess`). Plane-distance-only pruning visits
  // a large fraction of the tree in higher dimensions; the region bound
  // accumulates excesses across every split dimension on the path and
  // prunes the same nodes a true bounding-box test would.
  //
  // `visited` accumulates the number of tree nodes touched by the query
  // (reported to the metrics registry once per query, not per node).
  void SearchKNearest(std::size_t node, const linalg::Vector& query,
                      std::size_t k, std::vector<HeapEntry>& heap,
                      double bound_sq, std::vector<double>& excess,
                      std::size_t& visited) const;
  void SearchRadius(std::size_t node, const linalg::Vector& query,
                    double radius_sq, std::vector<std::size_t>& out,
                    double bound_sq, std::vector<double>& excess,
                    std::size_t& visited) const;
  template <typename KeyOf>
  void SearchKNearestKeyed(std::size_t node,
                           const linalg::Vector& query, std::size_t k,
                           std::vector<std::pair<double, std::size_t>>& heap,
                           double bound_sq, std::vector<double>& excess,
                           KeyOf& key_of, std::size_t& visited) const;
  // Out-of-line metrics hook for the templated search.
  void RecordQueryMetrics(std::size_t visited) const;

  // Sized for the vectorized leaf scan: 32 records = four full kLane
  // blocks per leaf, so the batch kernel amortizes its call overhead and
  // the tree has half the nodes a 16-leaf build would. Search results are
  // exact either way (leaf size only moves work between traversal and
  // scan), so this is purely a speed knob.
  static constexpr std::size_t kLeafSize = 32;

  std::size_t dim_ = 0;
  std::vector<std::size_t> order_;  // build-input row at each position
  // The points, blocked SoA in order_ order and written once at build
  // time: the tree's only copy of them. Leaf scans run the vectorized
  // batch kernel over position ranges. The values are the input's bits
  // and the kernels accumulate per record in dimension order, so
  // distances match linalg::SquaredDistance on the input bit for bit
  // (src/simd/distance.h).
  simd::RecordBlock coords_{0};
  std::vector<Node> nodes_;
  std::size_t root_ = 0;
  // Build-time per-dimension min/max scratch (BuildRecursive), reused
  // across nodes so the spread scan never allocates per node.
  std::vector<double> build_lo_;
  std::vector<double> build_hi_;
};

template <typename KeyOf>
std::vector<std::pair<double, std::size_t>> KdTree::KNearestKeyed(
    const linalg::Vector& query, std::size_t k, KeyOf&& key_of) const {
  CONDENSA_CHECK_EQ(query.dim(), dim_);
  k = std::min(k, size());
  if (k == 0) return {};
  std::vector<std::pair<double, std::size_t>> heap;
  heap.reserve(k + 1);
  std::vector<double> excess(dim_, 0.0);
  std::size_t visited = 0;
  SearchKNearestKeyed(root_, query, k, heap, 0.0, excess, key_of, visited);
  RecordQueryMetrics(visited);
  std::sort(heap.begin(), heap.end());
  return heap;
}

template <typename KeyOf>
void KdTree::SearchKNearestKeyed(
    std::size_t node_id, const linalg::Vector& query, std::size_t k,
    std::vector<std::pair<double, std::size_t>>& heap, double bound_sq,
    std::vector<double>& excess, KeyOf& key_of, std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[node_id];

  if (node.split_dim == Node::kLeaf) {
    // Batch partial-distance kernel over the leaf's position range: every
    // record past the entry bound is abandoned to +inf, every finite
    // value is the exact sum in linalg::SquaredDistance order, bit for
    // bit (src/simd/distance.h). The bound is the k-th best at leaf
    // entry; candidates the heap tightens past mid-leaf still compare
    // exactly, so the selection matches the scalar per-point cutoff.
    const double bound = heap.size() == k
                             ? heap.front().first
                             : std::numeric_limits<double>::infinity();
    internal::LeafScratch& scratch = internal::KdLeafScratch();
    // Coincident-cell leaves can hold more than kLeafSize records, and
    // the other searches grow `dist` alone.
    const std::size_t count = node.end - node.begin;
    if (scratch.dist.size() < count) scratch.dist.resize(count);
    if (scratch.hits.size() < count) scratch.hits.resize(count);
    double* dist = scratch.dist.data();
    simd::SquaredDistanceBatchRange(coords_, query.data(), node.begin,
                                    node.end, bound, dist);
    // Pass 1, branch-free: keep the leaf offsets within the entry bound.
    // The heap front only tightens during the scan, so a record past it
    // here (the +inf abandoned lanes too) could never be accepted below.
    std::size_t* hits = scratch.hits.data();
    std::size_t num_hits = 0;
    for (std::size_t j = 0; j < count; ++j) {
      hits[num_hits] = j;
      num_hits += dist[j] <= bound ? 1 : 0;
    }
    // Pass 2: the heap filter over those few candidates only.
    for (std::size_t h = 0; h < num_hits; ++h) {
      const std::size_t j = hits[h];
      const double d2 = dist[j];
      // Distance-only pre-reject against the tightened front: once the
      // heap is full, a strictly-greater distance can never win — only
      // an equal one can, via the key tie-break — so it drops here
      // without paying for the order_/key loads.
      if (heap.size() == k && d2 > heap.front().first) continue;
      const std::size_t key = key_of(order_[node.begin + j]);
      if (key == kSkipPoint) continue;
      const std::pair<double, std::size_t> candidate{d2, key};
      if (heap.size() < k) {
        heap.push_back(candidate);
        std::push_heap(heap.begin(), heap.end());
      } else if (candidate < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = candidate;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return;
  }

  const double diff = query[node.split_dim] - node.split_value;
  const std::size_t near = diff < 0.0 ? node.left : node.right;
  const std::size_t far = diff < 0.0 ? node.right : node.left;
  SearchKNearestKeyed(near, query, k, heap, bound_sq, excess, key_of,
                      visited);
  const double old_excess = excess[node.split_dim];
  const double far_bound = bound_sq - old_excess * old_excess + diff * diff;
  // Equality stays live: a far-side point at exactly the k-th distance
  // can still win on its tie-break key.
  if (heap.size() < k || far_bound <= heap.front().first) {
    excess[node.split_dim] = diff < 0.0 ? -diff : diff;
    SearchKNearestKeyed(far, query, k, heap, far_bound, excess, key_of,
                        visited);
    excess[node.split_dim] = old_excess;
  }
}

}  // namespace condensa::index

#endif  // CONDENSA_INDEX_KDTREE_H_
