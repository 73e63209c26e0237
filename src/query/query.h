// The query model: what a mining query against condensed statistics is.
//
// Three kinds (docs/query.md has the full language):
//
//   classify    k-NN against group centroids, votes weighted by group
//               mass n(G) — the paper's point that centroids + counts
//               are sufficient for nearest-neighbour classification.
//   aggregate   count / mean / variance / covariance over the groups
//               selected by a range predicate, computed from the additive
//               (n, Fs, Sc) moments with GroupStatistics::Merge. A range
//               of one bound (or none) folds a few precomputed node
//               folds of the snapshot's per-dimension moment trees plus
//               at most 62 edge groups, in the order SnapshotIndex
//               defines (query/snapshot.h): counts are exact, moments
//               agree with a (pool, group)-order fold to round-off. A box
//               of several bounds folds its groups in (pool, group) order.
//   regenerate  anonymized records for the selected groups, sampled by
//               the backend each pool is stamped with
//               (core::RegenerateGroup, eigendecompositions from the
//               cache) — deterministic in the request seed.
//
// Selection is group-granular: a range predicate matches a group when
// the group's CENTROID falls inside the axis-aligned box. Groups are the
// privacy atom of the condensation model — record-granular selection
// would require the raw records the server deliberately does not have.

#ifndef CONDENSA_QUERY_QUERY_H_
#define CONDENSA_QUERY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace condensa::query {

enum class QueryKind : std::uint8_t {
  kClassify = 0,
  kAggregate = 1,
  kRegenerate = 2,
};

const char* QueryKindName(QueryKind kind);

// Axis-aligned box over group centroids. No bounds = every group.
struct RangePredicate {
  struct Bound {
    std::size_t dim = 0;
    double lo = 0.0;
    double hi = 0.0;  // inclusive on both ends
  };
  std::vector<Bound> bounds;

  // Bounds must name dims < `dim` and satisfy lo <= hi.
  Status Validate(std::size_t dim) const;
};

// Parses the CLI range syntax "dim:lo:hi[,dim:lo:hi...]" ("" = match
// all). The numbers follow the grammar of every other numeric text
// field (ParseSize for dim, ParseDouble for the endpoints): decimal
// only, so a sign on dim, hex and out-of-range values are rejected.
// kInvalidArgument on malformed specs.
StatusOr<RangePredicate> ParseRangeSpec(std::string_view spec);

struct ClassifyQuery {
  // Points to classify; every point must have the snapshot's dim.
  std::vector<linalg::Vector> points;
  // Number of nearest group centroids consulted per point (>= 1).
  std::size_t neighbors = 1;
};

struct AggregateQuery {
  RangePredicate range;
};

struct RegenerateQuery {
  RangePredicate range;
  // Seeds the sampling; the same (snapshot, query) pair always yields
  // the same records.
  std::uint64_t seed = 0;
  // Records per selected group; 0 means each group's own n(G).
  std::size_t records_per_group = 0;
};

struct Query {
  QueryKind kind = QueryKind::kAggregate;
  // Client's remaining time budget in milliseconds; 0 = no deadline.
  // Carried as a RELATIVE budget (not a wall-clock instant) so client
  // and server clocks never need to agree; the server anchors it to its
  // own clock the moment the frame arrives. A request whose budget is
  // already spent is shed with kUnavailable instead of doing work the
  // client will no longer read.
  double deadline_ms = 0.0;
  ClassifyQuery classify;
  AggregateQuery aggregate;
  RegenerateQuery regenerate;
};

struct ClassifyResult {
  // One predicted label per query point, in order.
  std::vector<int> labels;
};

struct AggregateResult {
  std::uint64_t groups_matched = 0;
  // Exact record count over the selection (Σ n(G)).
  std::uint64_t records = 0;
  // False when the selection is empty (mean/covariance undefined).
  bool has_moments = false;
  // Mean and covariance of the selected records, read from the fold of
  // the selection's moments (see aggregate above for the fold order).
  // Variance is the covariance diagonal; any covariance projection
  // vᵀCv is computable from the matrix.
  linalg::Vector mean;
  linalg::Matrix covariance;
};

struct RegenerateResult {
  std::uint64_t groups_matched = 0;
  std::vector<linalg::Vector> records;
};

struct QueryResult {
  // The snapshot the answer was computed against.
  std::uint64_t snapshot_version = 0;
  // Age of that snapshot (ms since it was published) as observed by the
  // server when it answered. Degraded serving makes staleness explicit:
  // when ingest stalls, the server keeps answering from the last
  // snapshot and the client decides whether the age is acceptable.
  double staleness_ms = 0.0;
  QueryKind kind = QueryKind::kAggregate;
  ClassifyResult classify;
  AggregateResult aggregate;
  RegenerateResult regenerate;
};

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_QUERY_H_
