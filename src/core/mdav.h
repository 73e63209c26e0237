// MDAV-style microaggregation (Maximum Distance to Average Vector;
// Domingo-Ferrer & Torra's fixed-size heuristic, the workhorse group
// builder of the microaggregation literature — see arXiv:1812.01790 and
// arXiv:1512.02909 for descendants).
//
// Construction (deterministic — the Rng is never drawn from):
//   while >= 3k records remain:
//     take xr, the record farthest from the centroid of the remainder,
//     and group it with its k-1 nearest neighbours; then take xs, the
//     remaining record farthest from xr, and group it likewise.
//   if between 2k and 3k-1 remain: one group of k around the farthest
//     record, the rest (k..2k-1 records) form the final group.
//   else (k..2k-1 remain): they form the final group.
//
// Every group therefore has between k and 2k-1 members (pinned by
// tests/backend/mdav_test.cc). Ties — equidistant records — resolve by
// the smaller original index, matching the repo-wide (distance, index)
// convention, so the partition is a pure function of the input order.
//
// Two built-in backend records (core/backend.h) share this construction:
//   "mdav"        centroid-replacement regeneration (each group emits
//                 copies of its centroid — classical microaggregation);
//   "mdav-eigen"  variance-preserving regeneration through the built-in
//                 eigendecomposition sampler of core/anonymizer.h.

#ifndef CONDENSA_CORE_MDAV_H_
#define CONDENSA_CORE_MDAV_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "linalg/vector.h"

namespace condensa::core {

// The construction step as a free function. When `assignments` is
// non-null it receives, per group, the member indices into `points` in
// the exact order they were folded into the aggregate — so a test can
// re-fold them and compare moments bit-for-bit. Fails on empty input,
// k == 0, fewer than k records, or inconsistent dimensions.
StatusOr<CondensedGroupSet> MdavBuildGroups(
    const std::vector<linalg::Vector>& points, std::size_t k,
    std::vector<std::vector<std::size_t>>* assignments = nullptr);

}  // namespace condensa::core

#endif  // CONDENSA_CORE_MDAV_H_
