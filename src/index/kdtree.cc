#include "index/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::index {
namespace {

struct KdTreeMetrics {
  obs::Counter& builds =
      obs::DefaultRegistry().GetCounter("condensa_kdtree_builds_total");
  obs::Counter& indexed_points = obs::DefaultRegistry().GetCounter(
      "condensa_kdtree_indexed_points_total");
  obs::Counter& queries =
      obs::DefaultRegistry().GetCounter("condensa_kdtree_queries_total");
  obs::Counter& nodes_visited = obs::DefaultRegistry().GetCounter(
      "condensa_kdtree_nodes_visited_total");
  obs::Histogram& build_seconds =
      obs::DefaultRegistry().GetHistogram("condensa_kdtree_build_seconds");

  static KdTreeMetrics& Get() {
    static KdTreeMetrics metrics;
    return metrics;
  }
};

}  // namespace

namespace internal {

LeafScratch& KdLeafScratch() {
  thread_local LeafScratch scratch;
  return scratch;
}

}  // namespace internal

StatusOr<KdTree> KdTree::Build(std::span<const double> rows,
                               std::size_t dim) {
  if (dim == 0) {
    return InvalidArgumentError("cannot index zero-dimensional points");
  }
  if (rows.empty()) {
    return InvalidArgumentError("cannot index an empty point set");
  }
  if (rows.size() % dim != 0) {
    return InvalidArgumentError("points have inconsistent dimensions");
  }
  for (const double value : rows) {
    if (!std::isfinite(value)) {
      return InvalidArgumentError("cannot index a non-finite coordinate");
    }
  }

  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  obs::ScopedTimer build_timer(metrics.build_seconds);
  const std::size_t n = rows.size() / dim;
  KdTree tree;
  tree.dim_ = dim;
  tree.order_.resize(n);
  std::iota(tree.order_.begin(), tree.order_.end(), 0);
  tree.nodes_.reserve(2 * n / kLeafSize + 4);
  tree.root_ = tree.BuildRecursive(rows.data(), 0, n);
  // Copy the points into blocked SoA storage in final order_ order so
  // leaf scans are one vectorized batch-kernel call per leaf.
  tree.coords_ = simd::RecordBlock(dim);
  tree.coords_.Reserve(n);
  for (const std::size_t row : tree.order_) {
    tree.coords_.Append(rows.data() + row * dim);
  }
  metrics.builds.Increment();
  metrics.indexed_points.Increment(n);
  return tree;
}

StatusOr<KdTree> KdTree::Build(const std::vector<linalg::Vector>& points) {
  if (points.empty()) {
    return InvalidArgumentError("cannot index an empty point set");
  }
  const std::size_t dim = points.front().dim();
  std::vector<double> rows;
  rows.reserve(points.size() * dim);
  for (const linalg::Vector& p : points) {
    if (p.dim() != dim) {
      return InvalidArgumentError("points have inconsistent dimensions");
    }
    rows.insert(rows.end(), p.data(), p.data() + dim);
  }
  return Build(rows, dim);
}

void KdTree::AppendRow(std::size_t pos, std::vector<double>& rows) const {
  for (std::size_t d = 0; d < dim_; ++d) {
    rows.push_back(coords_.At(pos, d));
  }
}

std::size_t KdTree::BuildRecursive(const double* rows, std::size_t begin,
                                   std::size_t end) {
  CONDENSA_DCHECK_LT(begin, end);
  const std::size_t node_id = nodes_.size();
  nodes_.emplace_back();

  if (end - begin <= kLeafSize) {
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    return node_id;
  }

  // Split on the dimension with the widest value spread in this cell.
  // One pass over the points, tracking per-dimension min/max as we go:
  // each point's coordinates are one contiguous row, so this touches
  // every record once instead of once per dimension.
  const std::size_t dim = dim_;
  std::vector<double>& lo = build_lo_;
  std::vector<double>& hi = build_hi_;
  lo.assign(dim, std::numeric_limits<double>::infinity());
  hi.assign(dim, -std::numeric_limits<double>::infinity());
  for (std::size_t i = begin; i < end; ++i) {
    const double* p = rows + order_[i] * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  std::size_t best_dim = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim; ++d) {
    if (hi[d] - lo[d] > best_spread) {
      best_spread = hi[d] - lo[d];
      best_dim = d;
    }
  }
  if (best_spread <= 0.0) {
    // All points in the cell coincide: make it a leaf regardless of size.
    nodes_[node_id].begin = begin;
    nodes_[node_id].end = end;
    return node_id;
  }

  // Near-median split, rounded down so the partition point stays a
  // multiple of the SoA lane width. Every node's begin is then
  // lane-aligned (inductively: the root starts at 0 and both children
  // inherit alignment from an aligned mid), and every node's end is
  // aligned except on the rightmost spine — so almost every leaf scan is
  // whole blocks for the batch kernel, no edge-lane handling. Any
  // partition point strictly inside the range builds a correct tree;
  // end - begin > kLeafSize >= 2 * kLane keeps the rounded mid interior.
  std::size_t mid = begin + (end - begin) / 2;
  mid -= (mid - begin) % simd::RecordBlock::kLane;
  const double* column = rows + best_dim;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end,
                   [column, dim](std::size_t a, std::size_t b) {
                     return column[a * dim] < column[b * dim];
                   });
  const double split_value = column[order_[mid] * dim];

  // Fill fields after recursion: BuildRecursive may reallocate nodes_.
  std::size_t left = BuildRecursive(rows, begin, mid);
  std::size_t right = BuildRecursive(rows, mid, end);
  Node& node = nodes_[node_id];
  node.split_dim = best_dim;
  node.split_value = split_value;
  node.left = left;
  node.right = right;
  return node_id;
}

void KdTree::SearchKNearest(std::size_t node_id, const linalg::Vector& query,
                            std::size_t k, std::vector<HeapEntry>& heap,
                            double bound_sq, std::vector<double>& excess,
                            std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[node_id];

  if (node.split_dim == Node::kLeaf) {
    // One bounded batch-kernel call per leaf: abandoned records come
    // back +inf (they were already beyond the k-th best at leaf entry),
    // finite values are bit-identical to the scalar loop.
    const double bound = heap.size() == k
                             ? heap.front().distance_sq
                             : std::numeric_limits<double>::infinity();
    std::vector<double>& dist = internal::KdLeafScratch().dist;
    const std::size_t count = node.end - node.begin;
    if (dist.size() < count) dist.resize(count);
    simd::SquaredDistanceBatchRange(coords_, query.data(), node.begin,
                                    node.end, bound, dist.data());
    for (std::size_t i = node.begin; i < node.end; ++i) {
      const double distance_sq = dist[i - node.begin];
      if (heap.size() < k) {
        heap.push_back({distance_sq, order_[i]});
        std::push_heap(heap.begin(), heap.end());
      } else if (distance_sq < heap.front().distance_sq) {
        // (equal distances lose here, so the +inf abandoned lanes and
        // everything past the k-th best drop without touching order_)
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {distance_sq, order_[i]};
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return;
  }

  const double diff = query[node.split_dim] - node.split_value;
  const std::size_t near = diff < 0.0 ? node.left : node.right;
  const std::size_t far = diff < 0.0 ? node.right : node.left;
  SearchKNearest(near, query, k, heap, bound_sq, excess, visited);
  // Visit the far side only if its region bound stays under the current
  // k-th best (see the declaration for the incremental-bound scheme).
  const double old_excess = excess[node.split_dim];
  const double far_bound = bound_sq - old_excess * old_excess + diff * diff;
  if (heap.size() < k || far_bound < heap.front().distance_sq) {
    excess[node.split_dim] = diff < 0.0 ? -diff : diff;
    SearchKNearest(far, query, k, heap, far_bound, excess, visited);
    excess[node.split_dim] = old_excess;
  }
}

std::vector<std::size_t> KdTree::KNearest(const linalg::Vector& query,
                                          std::size_t k) const {
  CONDENSA_CHECK_EQ(query.dim(), dim_);
  CONDENSA_CHECK_GT(k, 0u);
  k = std::min(k, size());

  std::vector<HeapEntry> heap;
  heap.reserve(k + 1);
  std::vector<double> excess(dim_, 0.0);
  std::size_t visited = 0;
  SearchKNearest(root_, query, k, heap, 0.0, excess, visited);
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
  std::sort_heap(heap.begin(), heap.end());

  std::vector<std::size_t> out;
  out.reserve(heap.size());
  for (const HeapEntry& entry : heap) {
    out.push_back(entry.index);
  }
  return out;
}

std::size_t KdTree::Nearest(const linalg::Vector& query) const {
  return KNearest(query, 1).front();
}

void KdTree::SearchRadius(std::size_t node_id, const linalg::Vector& query,
                          double radius_sq, std::vector<std::size_t>& out,
                          double bound_sq, std::vector<double>& excess,
                          std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[node_id];

  if (node.split_dim == Node::kLeaf) {
    // Bounded batch kernel with the radius as the bound: abandoned
    // records are strictly outside the radius, finite values exact, so
    // the <= comparison matches the scalar loop on boundary ties.
    std::vector<double>& dist = internal::KdLeafScratch().dist;
    const std::size_t count = node.end - node.begin;
    if (dist.size() < count) dist.resize(count);
    simd::SquaredDistanceBatchRange(coords_, query.data(), node.begin,
                                    node.end, radius_sq, dist.data());
    for (std::size_t i = node.begin; i < node.end; ++i) {
      if (dist[i - node.begin] <= radius_sq) {
        out.push_back(order_[i]);
      }
    }
    return;
  }

  const double diff = query[node.split_dim] - node.split_value;
  const std::size_t near = diff < 0.0 ? node.left : node.right;
  const std::size_t far = diff < 0.0 ? node.right : node.left;
  SearchRadius(near, query, radius_sq, out, bound_sq, excess, visited);
  const double old_excess = excess[node.split_dim];
  const double far_bound = bound_sq - old_excess * old_excess + diff * diff;
  if (far_bound <= radius_sq) {
    excess[node.split_dim] = diff < 0.0 ? -diff : diff;
    SearchRadius(far, query, radius_sq, out, far_bound, excess, visited);
    excess[node.split_dim] = old_excess;
  }
}

std::vector<std::size_t> KdTree::RadiusSearch(const linalg::Vector& query,
                                              double radius) const {
  CONDENSA_CHECK_GE(radius, 0.0);
  return RadiusSearchSquared(query, radius * radius);
}

std::vector<std::size_t> KdTree::RadiusSearchSquared(
    const linalg::Vector& query, double radius_sq) const {
  CONDENSA_CHECK_EQ(query.dim(), dim_);
  CONDENSA_CHECK_GE(radius_sq, 0.0);
  std::vector<std::size_t> out;
  std::vector<double> excess(dim_, 0.0);
  std::size_t visited = 0;
  SearchRadius(root_, query, radius_sq, out, 0.0, excess, visited);
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
  return out;
}

void KdTree::RecordQueryMetrics(std::size_t visited) const {
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
}

}  // namespace condensa::index
