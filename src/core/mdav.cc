#include "core/mdav.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/group_statistics.h"
#include "linalg/vector.h"
#include "obs/metrics.h"

namespace condensa::core {
namespace {

struct MdavMetrics {
  obs::Counter& runs =
      obs::DefaultRegistry().GetCounter("condensa_mdav_runs_total");
  obs::Counter& groups_built =
      obs::DefaultRegistry().GetCounter("condensa_mdav_groups_built_total");

  static MdavMetrics& Get() {
    static MdavMetrics metrics;
    return metrics;
  }
};

// Mean of the records indexed by `alive`, summed in alive order.
linalg::Vector CentroidOf(const std::vector<linalg::Vector>& points,
                          const std::vector<std::size_t>& alive) {
  linalg::Vector centroid(points.front().dim());
  for (std::size_t orig : alive) {
    const linalg::Vector& p = points[orig];
    for (std::size_t j = 0; j < centroid.dim(); ++j) {
      centroid[j] += p[j];
    }
  }
  const double inv = 1.0 / static_cast<double>(alive.size());
  for (std::size_t j = 0; j < centroid.dim(); ++j) {
    centroid[j] *= inv;
  }
  return centroid;
}

// The survivor (by alive position) farthest from `from`. Equidistant
// records resolve to the smaller original index — swap-with-last removal
// scrambles alive order, so the tie-break must not depend on position.
std::size_t FarthestFrom(const std::vector<linalg::Vector>& points,
                         const std::vector<std::size_t>& alive,
                         const linalg::Vector& from) {
  std::size_t best_pos = 0;
  double best_d = -1.0;
  for (std::size_t pos = 0; pos < alive.size(); ++pos) {
    const double d = linalg::SquaredDistance(points[alive[pos]], from);
    if (d > best_d ||
        (d == best_d && alive[pos] < alive[best_pos])) {
      best_d = d;
      best_pos = pos;
    }
  }
  return best_pos;
}

// Builds one group of exactly `size` records: the seed at alive position
// `seed_pos` plus its size-1 nearest survivors in (d², original index)
// order, removing all of them from `alive` (swap-with-last). Appends the
// aggregate to `result` and, when `assignments` is non-null, the member
// indices in fold order.
void TakeGroup(const std::vector<linalg::Vector>& points,
               std::vector<std::size_t>& alive, std::size_t seed_pos,
               std::size_t size, CondensedGroupSet& result,
               std::vector<std::vector<std::size_t>>* assignments) {
  const std::size_t seed_orig = alive[seed_pos];
  const linalg::Vector& seed = points[seed_orig];

  // (d², original index): distance ties resolve by the stable original
  // index, never by survivor-array position.
  std::vector<std::pair<double, std::size_t>> selected;
  selected.reserve(alive.size() - 1);
  for (std::size_t pos = 0; pos < alive.size(); ++pos) {
    const std::size_t orig = alive[pos];
    if (orig == seed_orig) continue;
    selected.emplace_back(linalg::SquaredDistance(points[orig], seed), orig);
  }
  const std::size_t neighbours = size - 1;
  if (neighbours > 0 && neighbours < selected.size()) {
    std::nth_element(selected.begin(), selected.begin() + (neighbours - 1),
                     selected.end());
  }
  selected.resize(neighbours);
  std::sort(selected.begin(), selected.end());

  GroupStatistics group(points.front().dim());
  std::vector<std::size_t> members;
  members.reserve(size);
  group.Add(seed);
  members.push_back(seed_orig);
  for (const auto& [distance_sq, orig] : selected) {
    group.Add(points[orig]);
    members.push_back(orig);
  }

  // Remove the taken records, O(1) swap-with-last each. Positions shift,
  // so go through original indices via a fresh scan-free lookup: the
  // member list is tiny (<= 2k) next to the alive array, so rebuild the
  // positions by erasing one original index at a time.
  for (std::size_t orig : members) {
    for (std::size_t pos = 0; pos < alive.size(); ++pos) {
      if (alive[pos] == orig) {
        alive[pos] = alive.back();
        alive.pop_back();
        break;
      }
    }
  }

  result.AddGroup(std::move(group));
  if (assignments != nullptr) {
    assignments->push_back(std::move(members));
  }
}

}  // namespace

StatusOr<CondensedGroupSet> MdavBuildGroups(
    const std::vector<linalg::Vector>& points, std::size_t k,
    std::vector<std::vector<std::size_t>>* assignments) {
  if (k == 0) {
    return InvalidArgumentError("group size k must be at least 1");
  }
  if (points.empty()) {
    return InvalidArgumentError("cannot microaggregate an empty point set");
  }
  if (points.size() < k) {
    return InvalidArgumentError(
        "fewer records than the requested indistinguishability level");
  }
  const std::size_t dim = points.front().dim();
  for (const linalg::Vector& p : points) {
    if (p.dim() != dim) {
      return InvalidArgumentError("points have inconsistent dimensions");
    }
  }
  if (assignments != nullptr) {
    assignments->clear();
  }

  MdavMetrics& metrics = MdavMetrics::Get();
  metrics.runs.Increment();

  CondensedGroupSet result(dim, k);
  std::vector<std::size_t> alive(points.size());
  std::iota(alive.begin(), alive.end(), 0);

  // Main loop: two k-groups per iteration, seeded by the extreme pair.
  while (alive.size() >= 3 * k) {
    const linalg::Vector centroid = CentroidOf(points, alive);
    const std::size_t xr_pos = FarthestFrom(points, alive, centroid);
    const linalg::Vector xr = points[alive[xr_pos]];
    TakeGroup(points, alive, xr_pos, k, result, assignments);
    const std::size_t xs_pos = FarthestFrom(points, alive, xr);
    TakeGroup(points, alive, xs_pos, k, result, assignments);
  }

  // Endgame: 2k..3k-1 survivors yield one k-group around the farthest
  // record plus a final group of the rest; k..2k-1 survivors form the
  // final group directly. Either way every group size lands in
  // [k, 2k-1].
  if (alive.size() >= 2 * k) {
    const linalg::Vector centroid = CentroidOf(points, alive);
    const std::size_t xr_pos = FarthestFrom(points, alive, centroid);
    TakeGroup(points, alive, xr_pos, k, result, assignments);
  }
  if (!alive.empty()) {
    // Fold the remainder in original-index order for a deterministic,
    // reproducible aggregate.
    std::sort(alive.begin(), alive.end());
    GroupStatistics group(dim);
    for (std::size_t orig : alive) {
      group.Add(points[orig]);
    }
    result.AddGroup(std::move(group));
    if (assignments != nullptr) {
      assignments->push_back(std::move(alive));
    }
  }

  metrics.groups_built.Increment(result.num_groups());
  return result;
}

}  // namespace condensa::core
