// One durable streaming shard: the unit ShardedStreamService is built
// from, whether the shard runs in-process or behind shard/worker_server.h.
//
// A Worker condenses one shard's partition of the stream independently of
// every other shard — no cross-shard locks, no shared state — through the
// full supervised streaming runtime (runtime::StreamPipeline) over its own
// crash-safe checkpoint directory <checkpoint_root>/shard-<id>, so a
// crashed shard recovers alone. Pure streaming consumes no randomness:
// the sharded release is reproducible from the seed alone. A shard whose
// stream ends below the k-floor holds its remainder as one sub-k group
// for the coordinator to fold (see shard/coordinator.h).

#ifndef CONDENSA_SHARD_WORKER_H_
#define CONDENSA_SHARD_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "obs/metrics.h"
#include "runtime/pipeline.h"

namespace condensa::shard {

struct WorkerOptions {
  // The indistinguishability level k. Must be >= 2 (the streaming
  // runtime refuses k = 1).
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;

  // Parent directory; shard i checkpoints under
  // <checkpoint_root>/shard-<i>. Required.
  std::string checkpoint_root;
  std::size_t snapshot_interval = 1024;
  bool sync_every_append = true;
  // Queue bound and batch size forwarded to the shard's StreamPipeline.
  std::size_t queue_capacity = 1024;
  std::size_t batch_size = 32;
  // Seeds the shard pipeline's retry jitter. Take per-shard values from
  // Router::ShardSeeds so shards never share a stream.
  std::uint64_t seed = 42;

  // Stable identity for metric labels: condensa_shard_*{shard=i,
  // worker=<id>}. A restarted or rejoined worker that keeps its identity
  // keeps its series — no duplicate per-incarnation series. Empty picks
  // DefaultWorkerId(shard_id).
  std::string worker_id;

  // Anonymization backend (core/backend.h) stamped into this shard's
  // group set and checkpoints.
  const core::Backend* backend = &core::CondensationBackend();
};

// The metric identity of a shard served without an explicit worker id:
// "w<shard_id>".
std::string DefaultWorkerId(std::size_t shard_id);

// The per-shard series condensa_shard_records_total (records routed to
// the shard) and condensa_shard_groups (groups it released), labelled
// {shard, worker}; static sharding reports through them too.
obs::Counter& ShardRecordsCounter(std::size_t shard_id,
                                  const std::string& worker_id);
obs::Gauge& ShardGroupsGauge(std::size_t shard_id,
                             const std::string& worker_id);

class Worker {
 public:
  // Validates options and starts the shard's pipeline, creating or
  // recovering <checkpoint_root>/shard-<id>.
  static StatusOr<std::unique_ptr<Worker>> Start(std::size_t shard_id,
                                                 std::size_t dim,
                                                 const WorkerOptions& options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // The shard's checkpoint directory.
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

  // The resolved metric-label identity (WorkerOptions::worker_id or
  // DefaultWorkerId).
  const std::string& worker_id() const { return worker_id_; }

  // Enqueues one record. Tolerates many producers (the queue is MPSC).
  Status Submit(const linalg::Vector& record);

  // Blocks until every submitted record is durably in the shard's
  // custody (journaled, quarantined, or spooled) or `timeout_ms` elapses.
  // A remote worker acks a Submit batch only after Flush, which is what
  // makes a post-ack kill -9 lossless.
  Status Flush(double timeout_ms);

  // Records durably in this shard's custody right now: condensed records
  // recovered or applied (the checkpoint), plus live quarantine entries
  // and spooled backlog. Monotonic across restarts for clean data; the
  // coordinator uses it to trim already-delivered prefixes on reconnect.
  std::size_t durable_total() const;

  // Drains and checkpoints the pipeline and surrenders the shard-local
  // group set. Callable once.
  StatusOr<core::CondensedGroupSet> Finish();

  // The shard's ledger: live counters, and after Finish the final ledger
  // the caller asserts Balanced() on for zero-silent-loss runs.
  runtime::StreamPipelineStats stats() const { return pipeline_->stats(); }

 private:
  Worker(std::size_t shard_id, std::string checkpoint_dir,
         std::string worker_id);

  const std::size_t shard_id_;
  const std::string checkpoint_dir_;
  const std::string worker_id_;
  // Resolved once: a registry lookup takes a mutex, Submit must not.
  obs::Counter& records_counter_;

  std::unique_ptr<runtime::StreamPipeline> pipeline_;

  bool finished_ = false;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_WORKER_H_
