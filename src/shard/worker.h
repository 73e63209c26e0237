// One durable streaming shard: the unit ShardedStreamService is built
// from, whether the shard runs in-process or behind shard/worker_server.h.
//
// A Worker condenses one shard's partition of the stream independently of
// every other shard — no cross-shard locks, no shared state — through the
// full supervised streaming runtime (runtime::StreamPipeline) over its own
// crash-safe checkpoint directory (ShardCheckpointDir), so a crashed shard
// recovers alone. Pure streaming consumes no randomness:
// the sharded release is reproducible from the seed alone. A shard whose
// stream ends below the k-floor holds its remainder as one sub-k group
// for the coordinator to fold (see shard/coordinator.h).

#ifndef CONDENSA_SHARD_WORKER_H_
#define CONDENSA_SHARD_WORKER_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "linalg/vector.h"
#include "obs/metrics.h"
#include "runtime/pipeline.h"

namespace condensa::shard {

// Shard i's checkpoint directory under `checkpoint_root`:
// <checkpoint_root>/shard-<i>.
std::string ShardCheckpointDir(const std::string& checkpoint_root,
                               std::size_t shard_id);

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
  // Starts the shard's pipeline from `config` — the shard's own, with
  // checkpoint_dir and seed already set (take per-shard seeds from
  // Router::ShardSeeds so shards never share a stream) — creating or
  // recovering config.checkpoint_dir. `worker_id` is the stable identity
  // for metric labels, condensa_shard_*{shard=i, worker=<id>}: a
  // restarted or rejoined worker that keeps its identity keeps its
  // series. Empty picks DefaultWorkerId(shard_id).
  static StatusOr<std::unique_ptr<Worker>> Start(
      std::size_t shard_id, std::string worker_id,
      runtime::StreamPipelineConfig config);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // The resolved metric-label identity (the worker_id given to Start, or
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
  Worker(std::size_t shard_id, std::string worker_id);

  const std::size_t shard_id_;
  const std::string worker_id_;
  // Resolved once: a registry lookup takes a mutex, Submit must not.
  obs::Counter& records_counter_;

  std::unique_ptr<runtime::StreamPipeline> pipeline_;

  bool finished_ = false;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_WORKER_H_
