// Static scatter/gather condensation: Router + per-partition static
// condensation + Coordinator.
//
// Condenses a point set by deterministically partitioning it across N
// shards, condensing each partition independently with the backend's
// group construction (paper Fig. 1; optionally in parallel), and
// exact-merging the shard-local aggregates into one global release
// structure. Durable sharded streaming is ShardedStreamService
// (shard/stream_service.h).
//
// Determinism contract (tested; see docs/scaling.md): for a fixed
// (rng seed, num_shards, policy) the output group set is bit-identical
// across runs and across num_threads values — the router is a pure
// function of (record, index), the per-shard Rng substreams are split in
// shard order on the calling thread, each partition writes into a
// pre-allocated slot, and the gather is a deterministic fold.
// Changing num_shards changes the partition and therefore the grouping;
// the *moment statistics* each group carries remain exact either way.

#ifndef CONDENSA_SHARD_SHARDED_CONDENSER_H_
#define CONDENSA_SHARD_SHARDED_CONDENSER_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "shard/coordinator.h"
#include "shard/router.h"

namespace condensa::shard {

struct ShardedCondenserConfig {
  // Shard count N. Must be >= 1.
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  // The indistinguishability level k. Must be >= 1.
  std::size_t group_size = 10;
  // Split rule of the gather's fold.
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;
  // Threads for the per-shard condense fan-out; 0 = one per hardware
  // thread. Output is identical at any thread count.
  std::size_t num_threads = 0;

  // Anonymization backend (core/backend.h): every shard condenses under
  // it and the gathered release carries its stamp.
  const core::Backend* backend = &core::CondensationBackend();

  Status Validate() const;
};

// Per-shard accounting from one Condense call.
struct ShardReport {
  std::size_t shard_id = 0;
  std::size_t records = 0;
  std::size_t groups = 0;
  std::size_t min_group_size = 0;
};

struct ShardedCondenseResult {
  core::CondensedGroupSet groups{0, 0};
  GatherReport gather;
  std::vector<ShardReport> shards;
};

class ShardedCondenser {
 public:
  // Stores the config as-is; validation happens on Condense so a bad
  // config yields a Status, never an abort.
  explicit ShardedCondenser(ShardedCondenserConfig config);

  // Scatter -> condense-per-shard -> gather. Fails on invalid config,
  // empty input, or mixed record dimensions; propagates worker and
  // coordinator failures. The result satisfies the global k-floor
  // whenever at least k records were supplied.
  StatusOr<ShardedCondenseResult> Condense(
      const std::vector<linalg::Vector>& points, Rng& rng) const;

 private:
  ShardedCondenserConfig config_;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_SHARDED_CONDENSER_H_
