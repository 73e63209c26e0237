// The query engine: mining answers straight from condensed statistics.
//
// Executes one Query against one immutable QuerySnapshot (see
// snapshot.h for the consistency model). Nothing here touches raw
// records — classification uses centroids + group masses, aggregates
// come exactly from the additive (n, Fs, Sc) moments, and regeneration
// runs core::RegenerateGroup under the backend each pool is stamped with,
// taking factorizations from the version-keyed eigendecomposition cache
// shared across queries (eigen_cache.h).
//
// Thread safety: Execute is safe from multiple threads against the same
// engine (the cache synchronizes internally; everything else is local or
// read-only).
//
// Deadlines: Execute takes an optional ExecutionContext carrying an
// absolute local deadline. The engine checks it between units of work —
// per classify point, once an aggregate's index is at hand, per
// regenerate group (before paying for an eigendecomposition) — and
// abandons the request with kUnavailable the moment it expires, so a
// pile of slow regenerations cannot hold a session slot past the time
// the client stopped waiting.
//
// Every kind searches the snapshot's SnapshotIndex (snapshot.h), built
// on the snapshot's first query: classify its kd-tree, aggregate its
// per-dimension moment trees, regenerate its sorted orders. Regenerate
// builds a centroid Vector only for the groups it selected.

#ifndef CONDENSA_QUERY_ENGINE_H_
#define CONDENSA_QUERY_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/status.h"
#include "query/eigen_cache.h"
#include "query/query.h"
#include "query/snapshot.h"

namespace condensa::query {

struct QueryEngineOptions {
  // Bound on cached eigendecompositions (LRU beyond it). Must be >= 1.
  std::size_t eigen_cache_capacity = 1024;
};

// Per-request execution limits. Default-constructed = unbounded.
struct ExecutionContext {
  // Absolute deadline on the engine's own steady clock; nullopt = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Caps on a regenerate answer: its record count, and its encoded size
  // (RegenerateResultBytes). Checked once the groups are selected, before
  // any record is sampled; an answer above either is refused with
  // kResourceExhausted. 0 = uncapped, as for in-process callers; the
  // query server sets the wire's limits, so it never builds an answer it
  // could not frame.
  std::uint64_t max_regenerate_records = 0;
  std::uint64_t max_regenerate_bytes = 0;

  bool Expired() const {
    return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
  }
  // Builds a context whose deadline is `budget_ms` after `start`. A
  // budget of 0 (the wire encoding of "none"), NaN, or one past the
  // steady clock's range (about 292 years of nanoseconds, +inf included)
  // means no deadline.
  static ExecutionContext WithBudgetMs(
      double budget_ms,
      std::chrono::steady_clock::time_point start =
          std::chrono::steady_clock::now());
};

class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Answers `query` against `snapshot`. kInvalidArgument for malformed
  // queries (dim mismatches, bad ranges, neighbors == 0);
  // kFailedPrecondition for queries the snapshot cannot answer (empty,
  // or classify without labeled pools); for regenerate, NotFound or
  // kFailedPrecondition when a pool's backend stamp is unknown or of
  // another version (core::StampedBackend); kResourceExhausted for a
  // regenerate answer above the context's caps; kUnavailable when the
  // context deadline expires mid-execution (the partial answer is
  // discarded).
  StatusOr<QueryResult> Execute(const QuerySnapshot& snapshot,
                                const Query& query,
                                const ExecutionContext& context = {});

  const EigenCache& eigen_cache() const { return cache_; }

 private:
  StatusOr<ClassifyResult> ExecuteClassify(const QuerySnapshot& snapshot,
                                           const ClassifyQuery& query,
                                           const ExecutionContext& context)
      const;
  StatusOr<AggregateResult> ExecuteAggregate(
      const QuerySnapshot& snapshot, const AggregateQuery& query,
      const ExecutionContext& context) const;
  StatusOr<RegenerateResult> ExecuteRegenerate(
      const QuerySnapshot& snapshot, const RegenerateQuery& query,
      const ExecutionContext& context);

  QueryEngineOptions options_;
  EigenCache cache_;
};

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_ENGINE_H_
