// Dynamic condensation: DynamicGroupMaintenance (paper Figure 2).
//
// Records arrive one at a time. Each joins the group whose centroid is
// nearest; when a group reaches 2k records its aggregate is split into two
// k-sized aggregates with SplitGroupStatistics. Group sizes therefore stay
// in [k, 2k] in the steady state (groups created before the structure
// warms up can be smaller until they fill).
//
// The paper's procedure starts from a static database D condensed with
// CreateCondensedGroups and then consumes the stream S; `Bootstrap`
// provides that. Pure streaming from nothing is also supported: the first
// k records accumulate in a forming group that becomes a real group once
// it reaches size k.

#ifndef CONDENSA_CORE_DYNAMIC_CONDENSER_H_
#define CONDENSA_CORE_DYNAMIC_CONDENSER_H_

#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "core/split.h"
#include "linalg/vector.h"

namespace condensa::core {

struct DynamicCondenserOptions {
  // The indistinguishability level k. Groups split on reaching 2k. Must be
  // >= 1.
  std::size_t group_size = 10;
  // Split formula (see core/split.h). kPaperVerbatim exists only for
  // ablation A10.
  SplitRule split_rule = SplitRule::kMomentConsistent;
  // Anonymization backend this structure is built and maintained under
  // (core/backend.h): Bootstrap builds the initial groups with it, and
  // its identity is stamped into the group set — and therefore into
  // every checkpoint snapshot — so FromState (and
  // DurableCondenser::Recover) refuses state written by a different
  // backend instead of silently maintaining it. Must not be null.
  const Backend* backend = &CondensationBackend();
};

class DynamicCondenser {
 public:
  // The complete mutable state of a condenser — everything a durability
  // layer must persist to reconstruct it exactly: what the snapshot
  // reader returns for FromState (see core/checkpointing.h).
  struct State {
    CondensedGroupSet groups{0, 0};
    // Pure-stream warm-up buffer, when one is open.
    std::optional<GroupStatistics> forming;
    std::size_t split_count = 0;
    std::size_t merge_count = 0;
    std::size_t records_seen = 0;
    bool bootstrapped = false;
  };

  // Creates a condenser for d-dimensional records.
  DynamicCondenser(std::size_t dim, DynamicCondenserOptions options);

  // Rebuilds a condenser from a previously saved state. Fails when the
  // forming buffer's dimension disagrees with the group set's.
  static StatusOr<DynamicCondenser> FromState(State state,
                                              DynamicCondenserOptions options);

  std::size_t dim() const { return groups_.dim(); }
  const DynamicCondenserOptions& options() const { return options_; }

  // Initializes the group structure by statically condensing `initial`
  // (the paper's `H = CreateCondensedGroups(k, D)`). Must be called before
  // any Insert, at most once, with at least k records.
  Status Bootstrap(const std::vector<linalg::Vector>& initial, Rng& rng);

  // Streams one record in: nearest-centroid assignment, split at 2k.
  // Fails (propagating eigensolver errors) only on pathological input.
  Status Insert(const linalg::Vector& record);

  // Removes a previously inserted record from the structure. Because the
  // server keeps only aggregates, the record is removed from the group
  // whose centroid is nearest (which is where Insert put it for data that
  // has not drifted). If that group falls below k, its remaining
  // aggregate is merged into the nearest other group so the
  // k-indistinguishability floor is restored. Fails when the structure is
  // empty or the record dimension mismatches. This extends the paper's
  // stream setting to deletions (turnover / right-to-erasure workloads).
  Status Remove(const linalg::Vector& record);

  // Number of splits performed so far.
  std::size_t split_count() const { return split_count_; }

  // Number of group merges triggered by Remove so far.
  std::size_t merge_count() const { return merge_count_; }

  // Records consumed so far (bootstrap + stream).
  std::size_t records_seen() const { return records_seen_; }

  // Pure-stream warm-up buffer, when one is open: fewer than k records,
  // not yet a group.
  const std::optional<GroupStatistics>& forming() const { return forming_; }

  // True once Bootstrap has seeded the structure.
  bool bootstrapped() const { return bootstrapped_; }

  // Read-only view of the current group aggregates. The forming group (if
  // a pure-stream condenser has seen fewer than k records) is excluded.
  const CondensedGroupSet& groups() const { return groups_; }

  // Finalizes and returns the group set. If a forming group is still open
  // its records are merged into the nearest full group (or emitted as an
  // undersized group when no full group exists). The condenser is left
  // empty.
  CondensedGroupSet TakeGroups();

 private:
  DynamicCondenserOptions options_;
  CondensedGroupSet groups_;
  // Pure-stream warm-up buffer: fewer than k records, not yet a group.
  std::optional<GroupStatistics> forming_;
  std::size_t split_count_ = 0;
  std::size_t merge_count_ = 0;
  std::size_t records_seen_ = 0;
  bool bootstrapped_ = false;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_DYNAMIC_CONDENSER_H_
