#include "shard/sharded_condenser.h"

#include <functional>
#include <utility>

#include "common/thread_pool.h"
#include "core/group_statistics.h"
#include "obs/trace.h"
#include "shard/worker.h"

namespace condensa::shard {

namespace {

// Condenses one scattered partition with the backend's group
// construction. A partition below the k-floor becomes one sub-k group
// for the coordinator to fold globally — dropping it would break record
// conservation.
StatusOr<core::CondensedGroupSet> CondensePartition(
    const std::vector<linalg::Vector>& partition, std::size_t dim,
    std::size_t group_size, const core::Backend& backend, Rng& rng) {
  if (partition.size() >= group_size) {
    return backend.Build(partition, group_size, rng);
  }
  core::CondensedGroupSet groups(dim, group_size);
  groups.SetBackend(backend.id, backend.version);
  if (!partition.empty()) {
    core::GroupStatistics remainder(dim);
    for (const linalg::Vector& record : partition) {
      remainder.Add(record);
    }
    groups.AddGroup(std::move(remainder));
  }
  return groups;
}

}  // namespace

Status ShardedCondenserConfig::Validate() const {
  if (num_shards == 0) {
    return InvalidArgumentError("num_shards must be >= 1");
  }
  if (group_size == 0) {
    return InvalidArgumentError("group_size must be >= 1");
  }
  if (backend == nullptr) {
    return InvalidArgumentError("backend must be set");
  }
  return OkStatus();
}

ShardedCondenser::ShardedCondenser(ShardedCondenserConfig config)
    : config_(std::move(config)) {}

StatusOr<ShardedCondenseResult> ShardedCondenser::Condense(
    const std::vector<linalg::Vector>& points, Rng& rng) const {
  CONDENSA_RETURN_IF_ERROR(config_.Validate());
  if (points.empty()) {
    return InvalidArgumentError("cannot condense an empty point set");
  }
  const std::size_t dim = points.front().dim();
  for (const linalg::Vector& point : points) {
    if (point.dim() != dim) {
      return InvalidArgumentError("points disagree on record dimension");
    }
  }

  obs::TraceSpan span("shard.condense");
  const std::size_t n = config_.num_shards;

  Router router({.num_shards = n, .policy = config_.policy});
  std::vector<std::vector<linalg::Vector>> partitions;
  {
    obs::TraceSpan scatter_span("shard.scatter");
    partitions = router.Scatter(points);
  }

  // Substreams are derived in shard order on this thread, so the
  // per-shard randomness is fixed before any partition is condensed.
  std::vector<Rng> streams = Router::SplitStreams(rng, n);

  // One task per shard, each writing into its pre-allocated slot; the
  // fan-out is bit-identical at any thread count.
  std::vector<StatusOr<core::CondensedGroupSet>> shard_groups(
      n, StatusOr<core::CondensedGroupSet>(core::CondensedGroupSet(0, 0)));
  {
    obs::TraceSpan condense_span("shard.condense.workers");
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t shard = 0; shard < n; ++shard) {
      tasks.push_back([&, shard]() {
        // Each substream's first draw once seeded a per-shard pipeline;
        // skipping it keeps every static release what it has always been.
        (void)streams[shard].NextUint64();
        shard_groups[shard] =
            CondensePartition(partitions[shard], dim, config_.group_size,
                              *config_.backend, streams[shard]);
      });
    }
    ParallelRun(ThreadPool::ResolveThreadCount(config_.num_threads), tasks);
  }

  ShardedCondenseResult result;
  std::vector<core::CondensedGroupSet> shard_sets;
  shard_sets.reserve(n);
  for (std::size_t shard = 0; shard < n; ++shard) {
    CONDENSA_ASSIGN_OR_RETURN(core::CondensedGroupSet set,
                              std::move(shard_groups[shard]));
    const std::size_t records = partitions[shard].size();
    const core::PrivacySummary summary = set.Summary();
    // An empty partition never touched its records series.
    if (records > 0) {
      ShardRecordsCounter(shard, DefaultWorkerId(shard)).Increment(records);
    }
    ShardGroupsGauge(shard, DefaultWorkerId(shard))
        .Set(static_cast<double>(summary.num_groups));
    result.shards.push_back(ShardReport{
        .shard_id = shard,
        .records = records,
        .groups = summary.num_groups,
        .min_group_size = summary.min_group_size,
    });
    shard_sets.push_back(std::move(set));
  }

  Coordinator coordinator(
      {.group_size = config_.group_size, .split_rule = config_.split_rule});
  CONDENSA_ASSIGN_OR_RETURN(
      result.groups,
      coordinator.Gather(std::move(shard_sets), &result.gather));
  return result;
}

}  // namespace condensa::shard
