#include "shard/stream_service.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace condensa::shard {

Status ShardedStreamConfig::Validate() const {
  if (num_shards == 0) {
    return InvalidArgumentError("num_shards must be >= 1");
  }
  if (dim == 0) {
    return InvalidArgumentError("dim must be >= 1");
  }
  if (group_size < 2) {
    return InvalidArgumentError(
        "sharded streaming requires group_size >= 2 (streaming runtime "
        "floor)");
  }
  if (checkpoint_root.empty()) {
    return InvalidArgumentError("checkpoint_root is required");
  }
  if (backend == nullptr) {
    return InvalidArgumentError("backend must be set");
  }
  return OkStatus();
}

bool ShardedStreamResult::Balanced() const {
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    if (!stats.Balanced()) return false;
  }
  return true;
}

std::size_t ShardedStreamResult::TotalAccepted() const {
  std::size_t total = 0;
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    total += stats.accepted;
  }
  return total;
}

std::size_t ShardedStreamResult::TotalApplied() const {
  std::size_t total = 0;
  for (const runtime::StreamPipelineStats& stats : shard_stats) {
    total += stats.applied;
  }
  return total;
}

ShardedStreamService::ShardedStreamService(ShardedStreamConfig config)
    : config_(std::move(config)),
      router_({.num_shards = config_.num_shards, .policy = config_.policy}) {}

StatusOr<std::unique_ptr<ShardedStreamService>> ShardedStreamService::Start(
    ShardedStreamConfig config) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  std::unique_ptr<ShardedStreamService> service(
      new ShardedStreamService(std::move(config)));
  const ShardedStreamConfig& cfg = service->config_;

  const std::vector<std::uint64_t> seeds =
      Router::ShardSeeds(cfg.seed, cfg.num_shards);
  service->workers_.reserve(cfg.num_shards);
  for (std::size_t shard = 0; shard < cfg.num_shards; ++shard) {
    WorkerOptions options;
    options.backend = cfg.backend;
    options.group_size = cfg.group_size;
    options.split_rule = cfg.split_rule;
    options.checkpoint_root = cfg.checkpoint_root;
    options.snapshot_interval = cfg.snapshot_interval;
    options.sync_every_append = cfg.sync_every_append;
    options.queue_capacity = cfg.queue_capacity;
    options.batch_size = cfg.batch_size;
    options.seed = seeds[shard];
    CONDENSA_ASSIGN_OR_RETURN(std::unique_ptr<Worker> worker,
                              Worker::Start(shard, cfg.dim, options));
    service->workers_.push_back(std::move(worker));
  }
  return service;
}

const std::string& ShardedStreamService::checkpoint_dir(
    std::size_t shard) const {
  CONDENSA_CHECK_LT(shard, workers_.size());
  return workers_[shard]->checkpoint_dir();
}

Status ShardedStreamService::Submit(const linalg::Vector& record) {
  if (finished_) {
    return FailedPreconditionError("Submit after Finish");
  }
  const std::size_t shard = router_.Route(record);
  CONDENSA_RETURN_IF_ERROR(workers_[shard]->Submit(record));
  ++submitted_;
  return OkStatus();
}

std::vector<runtime::StreamPipelineStats> ShardedStreamService::stats() const {
  std::vector<runtime::StreamPipelineStats> all;
  all.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& worker : workers_) {
    all.push_back(worker->stats());
  }
  return all;
}

StatusOr<ShardedStreamResult> ShardedStreamService::Finish() {
  if (finished_) {
    return FailedPreconditionError("Finish was already called");
  }
  finished_ = true;
  obs::TraceSpan span("shard.stream.finish");

  ShardedStreamResult result;
  std::vector<core::CondensedGroupSet> shard_sets;
  shard_sets.reserve(workers_.size());
  for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
    CONDENSA_ASSIGN_OR_RETURN(core::CondensedGroupSet set,
                              workers_[shard]->Finish());
    result.shard_stats.push_back(workers_[shard]->stats());
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
