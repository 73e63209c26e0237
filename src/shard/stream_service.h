// Sharded durable streaming ingest: N independent StreamPipelines behind
// one Submit surface — the paper's dynamic condensation, sharded.
//
// A Router assigns every arriving record to one of N shard Workers, each
// of which runs the full supervised runtime (bounded queue, quarantine,
// retry, circuit breaker) over its own crash-safe checkpoint directory
// <checkpoint_root>/shard-<i>. A crashed shard recovers alone on the next
// Start — the other shards' snapshots, journals, and spools are never
// touched. Finish drains every shard and gathers the shard-local
// aggregates into one global release structure through the
// Coordinator's exact-merge fold; the per-shard ledgers ride along so the
// caller can assert zero silent loss shard by shard. Static sharding
// (paper Fig. 1) is ShardedCondenser; the same shards spread over worker
// processes are FabricService.
//
// Throughput note (docs/scaling.md): dynamic condensation's per-record
// cost grows with the number of live groups G, so splitting one stream
// across N shards cuts each shard's G by ~N and speeds up ingest even on
// a single core. The gather step costs O(total groups) once at Finish.

#ifndef CONDENSA_SHARD_STREAM_SERVICE_H_
#define CONDENSA_SHARD_STREAM_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "runtime/pipeline.h"
#include "shard/coordinator.h"
#include "shard/router.h"
#include "shard/worker.h"

namespace condensa::shard {

struct ShardedStreamConfig {
  // Shard count N (>= 1) and how records map to shards.
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;

  // Record dimension (>= 1) and indistinguishability level k (>= 2, the
  // streaming runtime's floor).
  std::size_t dim = 0;
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;

  // Required. Shard i checkpoints under <checkpoint_root>/shard-<i>.
  std::string checkpoint_root;
  std::size_t snapshot_interval = 1024;
  bool sync_every_append = true;
  std::size_t queue_capacity = 1024;
  std::size_t batch_size = 32;

  // Root seed; per-shard pipeline seeds come from Router::ShardSeeds, so
  // a fixed (seed, num_shards) replays exactly.
  std::uint64_t seed = 42;

  // Anonymization backend (core/backend.h), stamped into every shard's
  // checkpoints and the gathered set.
  const core::Backend* backend = &core::CondensationBackend();

  Status Validate() const;
};

struct ShardedStreamResult {
  core::CondensedGroupSet groups{0, 0};
  GatherReport gather;
  // One final ledger per shard, in shard order.
  std::vector<runtime::StreamPipelineStats> shard_stats;

  // True iff every shard's zero-silent-loss ledger balances.
  bool Balanced() const;
  // Sum of records accepted / applied across shards.
  std::size_t TotalAccepted() const;
  std::size_t TotalApplied() const;
};

class ShardedStreamService {
 public:
  // Validates the config and starts (or crash-recovers) all N shard
  // pipelines. Any shard failing to start fails the whole service.
  static StatusOr<std::unique_ptr<ShardedStreamService>> Start(
      ShardedStreamConfig config);

  ShardedStreamService(const ShardedStreamService&) = delete;
  ShardedStreamService& operator=(const ShardedStreamService&) = delete;

  // Shard i's checkpoint directory.
  const std::string& checkpoint_dir(std::size_t shard) const;

  // Routes one record to its shard pipeline. Single-producer under
  // kRoundRobin (see Router::Route); kHash tolerates any producer count.
  Status Submit(const linalg::Vector& record);

  std::size_t records_submitted() const { return submitted_; }

  // Live per-shard ledgers, in shard order.
  std::vector<runtime::StreamPipelineStats> stats() const;

  // Drains and checkpoints every shard, then gathers the shard-local
  // aggregates into one global k-floor-satisfying set. Callable once.
  StatusOr<ShardedStreamResult> Finish();

 private:
  explicit ShardedStreamService(ShardedStreamConfig config);

  ShardedStreamConfig config_;
  Router router_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t submitted_ = 0;
  bool finished_ = false;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_STREAM_SERVICE_H_
