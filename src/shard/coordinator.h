// Gather half of scatter/gather condensation: exact merge of shard-local
// group sets into one global release structure.
//
// Because a condensed group is fully described by its additive moments
// (Fs, Sc, n) — the paper's Observations 1-2 — concatenating shard-local
// group sets IS the exact global condensation of the union of the shard
// inputs under each shard's own grouping. The gather step therefore
// introduces zero statistical approximation for groups that already
// satisfy the k-floor; the only approximate operation is
// SplitGroupStatistics (the paper's own Figure 3 machinery), applied when
// folding pushes a group past 2k.
//
// Invariants Gather establishes, in order:
//   1. record conservation — the output represents exactly the sum of the
//      input sets' records (merges are exact, splits conserve n and Fs);
//   2. global k-floor — every sub-k group (shard warm-up remainders,
//      shards that saw fewer than k records) is folded into the group
//      with the nearest centroid, located by the same linear centroid
//      scan the dynamic condenser uses;
//   3. size ceiling — any fold result at or past 2k is split, keeping
//      groups inside the dynamic regime's [k, 2k) band.
// The whole pass is deterministic: shards are concatenated in shard
// order, the lowest-id undersized group is folded first, and the
// centroid scan breaks distance ties by lowest group id — so a fixed
// (seed, shard count) reproduces a bit-identical global structure.

#ifndef CONDENSA_SHARD_COORDINATOR_H_
#define CONDENSA_SHARD_COORDINATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/split.h"

namespace condensa::shard {

struct CoordinatorOptions {
  // The global indistinguishability level k. Must be >= 1.
  std::size_t group_size = 10;
  // Split formula for oversize fold results (see core/split.h).
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;
};

// Accounting for one Gather call.
struct GatherReport {
  std::size_t shards_in = 0;
  std::size_t groups_in = 0;
  // Input groups below the k-floor (what the fold loop had to repair).
  std::size_t undersized_in = 0;
  std::size_t records_in = 0;
  // Fold merges performed and oversize splits of fold results.
  std::size_t merges = 0;
  std::size_t splits = 0;
  std::size_t groups_out = 0;
  std::size_t min_group_size_out = 0;

  std::string ToString() const;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);

  const CoordinatorOptions& options() const { return options_; }

  // Merges the shard-local sets (consumed) into one global set built for
  // options().group_size. Empty shard sets are skipped; if every set is
  // empty the result is an empty set of dimension 0. Fails on dimension
  // mismatch between non-empty sets or on sets stamped with different
  // backend ids or versions, and propagates eigensolver failures
  // from oversize splits. On success the output satisfies the global
  // k-floor except in the one unavoidable case: fewer than k records
  // exist in total, which leaves a single undersized group rather than
  // dropping records.
  StatusOr<core::CondensedGroupSet> Gather(
      std::vector<core::CondensedGroupSet> shard_sets,
      GatherReport* report = nullptr) const;

 private:
  CoordinatorOptions options_;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_COORDINATOR_H_
