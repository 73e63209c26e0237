#include "shard/worker.h"

#include <string>
#include <utility>

namespace condensa::shard {
namespace {

// Per-shard series carry the stable worker identity alongside the shard
// index, so a restarted or rejoined worker resumes its series instead of
// minting a duplicate per-incarnation one.
obs::Labels ShardWorkerLabels(std::size_t shard_id,
                              const std::string& worker_id) {
  return {{"shard", std::to_string(shard_id)}, {"worker", worker_id}};
}

}  // namespace

std::string DefaultWorkerId(std::size_t shard_id) {
  // Prefixing in place: `"w" + std::to_string(...)` trips a GCC
  // -Wrestrict false positive.
  std::string id = std::to_string(shard_id);
  id.insert(id.begin(), 'w');
  return id;
}

obs::Counter& ShardRecordsCounter(std::size_t shard_id,
                                  const std::string& worker_id) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_shard_records_total", ShardWorkerLabels(shard_id, worker_id));
}

obs::Gauge& ShardGroupsGauge(std::size_t shard_id,
                             const std::string& worker_id) {
  return obs::DefaultRegistry().GetGauge(
      "condensa_shard_groups", ShardWorkerLabels(shard_id, worker_id));
}

std::string ShardCheckpointDir(const std::string& checkpoint_root,
                               std::size_t shard_id) {
  return checkpoint_root + "/shard-" + std::to_string(shard_id);
}

Worker::Worker(std::size_t shard_id, std::string worker_id)
    : shard_id_(shard_id),
      worker_id_(std::move(worker_id)),
      records_counter_(ShardRecordsCounter(shard_id_, worker_id_)) {}

StatusOr<std::unique_ptr<Worker>> Worker::Start(
    std::size_t shard_id, std::string worker_id,
    runtime::StreamPipelineConfig config) {
  std::unique_ptr<Worker> worker(new Worker(
      shard_id,
      worker_id.empty() ? DefaultWorkerId(shard_id) : std::move(worker_id)));
  CONDENSA_ASSIGN_OR_RETURN(worker->pipeline_,
                            runtime::StreamPipeline::Start(std::move(config)));
  return worker;
}

Status Worker::Submit(const linalg::Vector& record) {
  if (finished_) {
    return FailedPreconditionError("Submit after Finish");
  }
  CONDENSA_RETURN_IF_ERROR(pipeline_->Submit(record));
  records_counter_.Increment();
  return OkStatus();
}

Status Worker::Flush(double timeout_ms) {
  if (finished_) {
    return FailedPreconditionError("Flush after Finish");
  }
  return pipeline_->Flush(timeout_ms);
}

std::size_t Worker::durable_total() const {
  const runtime::StreamPipelineStats live = pipeline_->stats();
  return pipeline_->records_seen() + live.quarantined + live.spool_remaining;
}

StatusOr<core::CondensedGroupSet> Worker::Finish() {
  if (finished_) {
    return FailedPreconditionError("Finish was already called");
  }
  finished_ = true;
  CONDENSA_RETURN_IF_ERROR(pipeline_->Finish().status());
  CONDENSA_ASSIGN_OR_RETURN(core::CondensedGroupSet groups,
                            pipeline_->TakeGroups());
  ShardGroupsGauge(shard_id_, worker_id_).Set(
      static_cast<double>(groups.num_groups()));
  return groups;
}

}  // namespace condensa::shard
