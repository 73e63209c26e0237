// Static condensation: CreateCondensedGroups (paper Figure 1).
//
// Given the full database, repeatedly:
//   1. sample a random remaining record X,
//   2. absorb the (k-1) remaining records closest to X into a group with X,
//   3. store the group's (Fs, Sc, n) aggregate and delete its members.
// When fewer than k records remain, each joins the group with the nearest
// centroid, so a few groups may exceed k — never fall below it.
//
// The neighbour gathering in step 2 is the hot path and runs either as a
// brute-force scan over the survivors or through a deletion-aware k-d
// tree (index::DeletionAwareKdTree); kAuto picks the index for inputs of
// at least kAutoIndexThreshold records and the scan below it, where tree
// upkeep costs more than it saves. Both paths select neighbours by
// (squared distance, original record index) — ties broken by the stable
// original index, not by survivor-array position — so for a fixed seed
// they produce bit-identical group sets.

#ifndef CONDENSA_CORE_STATIC_CONDENSER_H_
#define CONDENSA_CORE_STATIC_CONDENSER_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "linalg/vector.h"

namespace condensa::core {

// kAuto's cutover: inputs of at least this many records use the index.
inline constexpr std::size_t kAutoIndexThreshold = 2048;

// How step 2 finds the (k-1) records nearest the sampled seed.
enum class NeighbourSearch {
  // Index for inputs of at least kAutoIndexThreshold points, scan below.
  kAuto = 0,
  // Always the O(n) scan (the reference implementation).
  kBruteForce = 1,
  // Always the deletion-aware k-d tree.
  kKdTree = 2,
};

struct StaticCondenserOptions {
  // The indistinguishability level k (minimum group size). Must be >= 1.
  std::size_t group_size = 10;
  // Neighbour-gathering strategy (results are identical either way).
  NeighbourSearch neighbour_search = NeighbourSearch::kAuto;
};

class StaticCondenser {
 public:
  explicit StaticCondenser(StaticCondenserOptions options)
      : options_(options) {}

  const StaticCondenserOptions& options() const { return options_; }

  // Condenses `points` into groups of at least k records. All points must
  // share one dimension and be finite. Fails with InvalidArgument when
  // points is empty, contains fewer than k records or a non-finite
  // coordinate, or k == 0.
  StatusOr<CondensedGroupSet> Condense(
      const std::vector<linalg::Vector>& points, Rng& rng) const;

 private:
  StaticCondenserOptions options_;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_STATIC_CONDENSER_H_
