// Deterministic record-to-shard routing for scatter/gather condensation.
//
// The condensed representation is additive (Observations 1-2): a group is
// fully described by (Fs, Sc, n), and GroupStatistics::Merge combines two
// groups' moments exactly. That makes condensation shardable with zero
// statistical approximation in the gather step — each shard condenses its
// partition independently and the coordinator merges the shard-local
// aggregates (see shard/coordinator.h). The router is the scatter half:
// a pure function from (record, arrival index) to a shard id, so a fixed
// (policy, shard count) replays the exact same partition on every run —
// the first link in the determinism contract documented in
// docs/scaling.md.
//
// Policies:
//   kHash        shard = mix(record bytes) mod N. Content-addressed:
//                replays identically under reordering-free restarts and
//                keeps duplicate records on one shard. The hash mixes the
//                IEEE-754 bit patterns, so -0.0 and 0.0 route differently
//                (bitwise determinism is the contract, not numeric
//                equivalence).
//   kRoundRobin  shard = arrival index mod N. Perfectly balanced and
//                locality-free; the right choice for adversarially
//                clustered streams where a hash would still be balanced
//                but each shard sees only one region of space.

#ifndef CONDENSA_SHARD_ROUTER_H_
#define CONDENSA_SHARD_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "linalg/vector.h"

namespace condensa::shard {

enum class ShardPolicy {
  kHash = 0,
  kRoundRobin = 1,
};

struct RouterOptions {
  // Number of shards N. Must be >= 1.
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
};

class Router {
 public:
  explicit Router(RouterOptions options);

  std::size_t num_shards() const { return options_.num_shards; }
  ShardPolicy policy() const { return options_.policy; }

  // Shard id for the record that arrived `index`-th (0-based). Pure:
  // depends only on (record, index, options).
  std::size_t ShardOf(const linalg::Vector& record, std::size_t index) const;

  // Streaming form: routes `record` as the next arrival and advances the
  // internal arrival counter. Thread-safe; under kRoundRobin the shard
  // assignment of concurrent callers depends on their interleaving, so
  // the bit-identical-replay contract requires a single producer (kHash
  // is order-free and keeps the contract for any producer count).
  std::size_t Route(const linalg::Vector& record);

  // Membership-aware form: routes among an explicit set of live shard
  // ids instead of the full 0..N-1 range. Pure in (record, index,
  // members) — removing a member and later re-adding it reproduces the
  // original assignment for the surviving set exactly, which is what
  // lets ShardedStreamService re-route in-flight records during an
  // outage of remote peers without perturbing the shards that stayed up. `members` must be non-empty;
  // with the full membership {0..N-1} in order this is ShardOf.
  std::size_t ShardAmong(const linalg::Vector& record, std::size_t index,
                         const std::vector<std::size_t>& members) const;

  // Partitions a batch, preserving arrival order within each shard.
  // Every record lands in exactly one partition.
  std::vector<std::vector<linalg::Vector>> Scatter(
      const std::vector<linalg::Vector>& records) const;

  // One statistically independent Rng substream per shard, derived from
  // `rng` in shard order — the per-shard seeds depend only on the parent
  // seed and the shard count, never on thread scheduling.
  static std::vector<Rng> SplitStreams(Rng& rng, std::size_t num_shards);

  // The per-shard pipeline seeds of sharded streaming: the first draw of
  // each SplitStreams substream of Rng(seed). ShardedStreamService
  // derives its seeds here for in-process and remote shards alike, which
  // is half of their bit-identity contract.
  static std::vector<std::uint64_t> ShardSeeds(std::uint64_t seed,
                                               std::size_t num_shards);

  // Stable 64-bit content hash of a record's IEEE-754 bit patterns
  // (exposed for tests and for deduplication tooling).
  static std::uint64_t HashRecord(const linalg::Vector& record);

 private:
  RouterOptions options_;
  std::atomic<std::size_t> next_index_{0};
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_ROUTER_H_
