#include "shard/coordinator.h"

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/group_statistics.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace condensa::shard {
namespace {

struct CoordinatorMetrics {
  obs::Counter& gathers = obs::DefaultRegistry().GetCounter(
      "condensa_shard_gather_total");
  obs::Counter& merges = obs::DefaultRegistry().GetCounter(
      "condensa_shard_gather_merges_total");
  obs::Counter& splits = obs::DefaultRegistry().GetCounter(
      "condensa_shard_gather_splits_total");
  obs::Histogram& seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_shard_gather_seconds");

  static CoordinatorMetrics& Get() {
    static CoordinatorMetrics metrics;
    return metrics;
  }
};

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Lowest-id group below the k-floor, or kNone.
std::size_t FindUndersized(const core::CondensedGroupSet& groups,
                           std::size_t k) {
  for (std::size_t i = 0; i < groups.num_groups(); ++i) {
    if (groups.group(i).count() < k) return i;
  }
  return kNone;
}

}  // namespace

std::string GatherReport::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "shards=%zu groups_in=%zu (undersized=%zu) records=%zu "
                "merges=%zu splits=%zu groups_out=%zu min_size=%zu",
                shards_in, groups_in, undersized_in, records_in, merges,
                splits, groups_out, min_group_size_out);
  return buffer;
}

Coordinator::Coordinator(CoordinatorOptions options) : options_(options) {
  CONDENSA_CHECK_GE(options_.group_size, 1u);
}

StatusOr<core::CondensedGroupSet> Coordinator::Gather(
    std::vector<core::CondensedGroupSet> shard_sets,
    GatherReport* report) const {
  CoordinatorMetrics& metrics = CoordinatorMetrics::Get();
  metrics.gathers.Increment();
  obs::ScopedTimer timer(&metrics.seconds);
  obs::TraceSpan span("shard.gather");

  GatherReport local;
  local.shards_in = shard_sets.size();

  // Dimension comes from the first non-empty shard; all must agree.
  std::size_t dim = 0;
  bool have_dim = false;
  std::size_t total_groups = 0;
  for (const core::CondensedGroupSet& set : shard_sets) {
    if (set.empty()) continue;
    if (!have_dim) {
      dim = set.dim();
      have_dim = true;
    } else if (set.dim() != dim) {
      return InvalidArgumentError(
          "shard group sets disagree on record dimension");
    }
    total_groups += set.num_groups();
  }

  // All shards must have condensed under the same backend id and
  // version — folding groups built by different strategies into one
  // release would void both backends' guarantees.
  const std::size_t k = options_.group_size;
  core::CondensedGroupSet global(have_dim ? dim : 0, k);
  if (!shard_sets.empty()) {
    const core::CondensedGroupSet& first = shard_sets.front();
    for (const core::CondensedGroupSet& set : shard_sets) {
      if (set.backend_id() != first.backend_id() ||
          set.backend_version() != first.backend_version()) {
        return InvalidArgumentError(
            "shards disagree on anonymization backend: '" +
            first.backend_id() + "' version " +
            std::to_string(first.backend_version()) + " vs '" +
            set.backend_id() + "' version " +
            std::to_string(set.backend_version()));
      }
    }
    global.SetBackend(first.backend_id(), first.backend_version());
  }
  global.ReserveGroups(total_groups);
  for (core::CondensedGroupSet& set : shard_sets) {
    if (set.empty()) continue;
    for (const core::GroupStatistics& group : set.groups()) {
      local.records_in += group.count();
      if (group.count() < k) ++local.undersized_in;
    }
    global.Absorb(std::move(set));
  }
  local.groups_in = total_groups;

  // Fold loop: repair the k-floor with exact merges, splitting any fold
  // result that reaches 2k. Each iteration retires one undersized group
  // (split halves are always >= k), so the loop terminates.
  {
    obs::TraceSpan fold_span("shard.gather.fold");
    while (global.num_groups() > 1) {
      const std::size_t victim = FindUndersized(global, k);
      if (victim == kNone) break;
      core::GroupStatistics undersized =
          std::move(global.mutable_group(victim));
      global.RemoveGroup(victim);
      const std::size_t target = global.NearestGroup(undersized.Centroid());
      global.mutable_group(target).Merge(undersized);
      ++local.merges;
      metrics.merges.Increment();

      core::GroupStatistics& merged = global.mutable_group(target);
      if (merged.count() >= 2 * k) {
        CONDENSA_ASSIGN_OR_RETURN(
            core::SplitResult split,
            core::SplitGroupStatistics(merged, options_.split_rule));
        global.RemoveGroup(target);
        global.AddGroup(std::move(split.lower));
        global.AddGroup(std::move(split.upper));
        ++local.splits;
        metrics.splits.Increment();
      }
    }
  }

  const core::PrivacySummary summary = global.Summary();
  local.groups_out = summary.num_groups;
  local.min_group_size_out = summary.min_group_size;
  CONDENSA_DCHECK_EQ(global.TotalRecords(), local.records_in);
  if (report != nullptr) *report = local;
  return global;
}

}  // namespace condensa::shard
