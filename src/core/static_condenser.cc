#include "core/static_condenser.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "common/check.h"
#include "index/deletion_aware.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "simd/distance.h"
#include "simd/record_block.h"

namespace condensa::core {
namespace {

// The group-build / NN-search timers are sampled 1-in-this so the
// clock reads stay invisible next to the distance scan.
constexpr std::size_t kGroupTimerSampleEvery = 8;

// Handles into the default registry, resolved once per process so the
// per-group cost is relaxed atomic updates (plus the sampled timers).
struct StaticCondenserMetrics {
  obs::Counter& runs =
      obs::DefaultRegistry().GetCounter("condensa_static_runs_total");
  obs::Counter& groups_built =
      obs::DefaultRegistry().GetCounter("condensa_static_groups_built_total");
  obs::Counter& leftover_absorbed = obs::DefaultRegistry().GetCounter(
      "condensa_static_leftover_absorbed_total");
  obs::Counter& index_runs = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_runs_total");
  obs::Counter& index_fallbacks = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_fallbacks_total");
  obs::Histogram& nn_search_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_static_nn_search_seconds");
  obs::Histogram& group_build_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_static_group_build_seconds");

  static StaticCondenserMetrics& Get() {
    static StaticCondenserMetrics metrics;
    return metrics;
  }
};

}  // namespace

StatusOr<CondensedGroupSet> StaticCondenser::Condense(
    const std::vector<linalg::Vector>& points, Rng& rng) const {
  const std::size_t k = options_.group_size;
  if (k == 0) {
    return InvalidArgumentError("group size k must be at least 1");
  }
  if (points.empty()) {
    return InvalidArgumentError("cannot condense an empty point set");
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
    // A NaN has no place in the (distance, index) order both search
    // paths select by, so they would pick different groups.
    for (std::size_t d = 0; d < dim; ++d) {
      if (!std::isfinite(p[d])) {
        return InvalidArgumentError("cannot condense a non-finite coordinate");
      }
    }
  }

  StaticCondenserMetrics& metrics = StaticCondenserMetrics::Get();
  metrics.runs.Increment();

  // Neighbour-search strategy: the deletion-aware index pays for its
  // build above the threshold, the scan wins below it. Both return the
  // same neighbour sets, so this is purely a speed decision.
  const bool want_index =
      options_.neighbour_search == NeighbourSearch::kKdTree ||
      (options_.neighbour_search == NeighbourSearch::kAuto &&
       points.size() >= kAutoIndexThreshold);
  std::optional<index::DeletionAwareKdTree> nn_index;
  if (want_index) {
    StatusOr<index::DeletionAwareKdTree> built =
        index::DeletionAwareKdTree::Build(points);
    // Build only fails on inputs the validation above already rejected;
    // degrade to the scan rather than failing the run.
    if (built.ok()) {
      nn_index.emplace(std::move(*built));
      metrics.index_runs.Increment();
    } else {
      metrics.index_fallbacks.Increment();
    }
  }

  CondensedGroupSet result(dim, k);

  // `alive` holds indices of records still in the database D; removal is
  // O(1) swap-with-last so random sampling stays uniform over survivors.
  // `alive_pos[orig]` tracks each survivor's slot so both search paths
  // delete identically (the layout feeds the next seed draw).
  std::vector<std::size_t> alive(points.size());
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<std::size_t> alive_pos(points.size());
  std::iota(alive_pos.begin(), alive_pos.end(), 0);

  // The scan path keeps a blocked-SoA copy of the survivors, compacted
  // with the same swap-with-last moves as `alive` (slot s holds record
  // alive[s]), so each group's neighbour scan is one vectorized
  // batch-distance call instead of a per-record pointer chase. The
  // distances land in one buffer sized once for the first (largest)
  // scan — no per-group heap churn.
  simd::RecordBlock survivors(0);
  std::vector<double> dist;
  const bool use_soa = !nn_index.has_value();
  if (use_soa) {
    survivors = simd::RecordBlock::FromVectors(points);
    dist.resize(points.size());
  }

  auto remove_original = [&](std::size_t orig) {
    std::size_t pos = alive_pos[orig];
    if (use_soa) {
      survivors.CopyRecord(alive.size() - 1, pos);
      survivors.Truncate(alive.size() - 1);
    }
    alive[pos] = alive.back();
    alive_pos[alive[pos]] = pos;
    alive.pop_back();
  };

  // (d², original index): the selection key on both paths, so distance
  // ties resolve by the stable original index, never by survivor-array
  // position (which depends on removal history).
  std::vector<std::pair<double, std::size_t>> selected;
  std::size_t group_ordinal = 0;
  while (alive.size() >= k) {
    // Timing every group would cost four clock reads per group, which
    // shows up against the nearest-neighbour search; sample 1-in-8.
    const bool timed = (group_ordinal++ % kGroupTimerSampleEvery) == 0;
    obs::ScopedTimer group_timer(timed ? &metrics.group_build_seconds
                                       : nullptr);

    // Step 1: sample a random record X from D.
    const std::size_t seed_orig = alive[rng.UniformIndex(alive.size())];
    const linalg::Vector& seed = points[seed_orig];
    const std::size_t neighbours = k - 1;

    // Step 2: the (k-1) closest remaining records join X's group.
    {
      obs::ScopedTimer nn_timer(timed ? &metrics.nn_search_seconds : nullptr);
      if (nn_index.has_value()) {
        nn_index->Erase(seed_orig);  // the seed is not its own neighbour
        selected = nn_index->KNearestAlive(seed, neighbours);
      } else {
        selected.clear();
        selected.reserve(alive.size() - 1);
        // One batch-distance call over the compacted survivor store.
        // Slot s of `survivors` is record alive[s] and the kernel sums
        // each record in dimension order, so (distance, index) pairs are
        // bit-identical to the per-record linalg::SquaredDistance loop.
        simd::SquaredDistanceBatch(survivors, seed.data(), dist.data());
        for (std::size_t slot = 0; slot < alive.size(); ++slot) {
          const std::size_t orig = alive[slot];
          if (orig == seed_orig) continue;
          selected.emplace_back(dist[slot], orig);
        }
        if (neighbours > 0) {
          std::nth_element(selected.begin(),
                           selected.begin() + (neighbours - 1),
                           selected.end());
        }
        selected.resize(neighbours);
        // Full (d², index) order within the group: members are folded
        // into the aggregate in this order, so the sums are bit-identical
        // to the index path's.
        std::sort(selected.begin(), selected.end());
      }
    }

    GroupStatistics group(dim);
    group.Add(seed);
    remove_original(seed_orig);
    for (const auto& [distance_sq, orig] : selected) {
      group.Add(points[orig]);
      if (nn_index.has_value()) {
        nn_index->Erase(orig);
      }
      remove_original(orig);
    }
    result.AddGroup(std::move(group));
  }
  metrics.groups_built.Increment(result.num_groups());

  // Step 3: between 0 and k-1 leftovers join their nearest group, found
  // by a linear scan over the group centroids.
  metrics.leftover_absorbed.Increment(alive.size());
  for (std::size_t orig : alive) {
    const linalg::Vector& point = points[orig];
    result.mutable_group(result.NearestGroup(point)).Add(point);
  }

  return result;
}

}  // namespace condensa::core
