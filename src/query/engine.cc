#include "query/engine.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "simd/distance.h"
#include "simd/record_block.h"

namespace condensa::query {
namespace {

// One candidate neighbour for the classify vote. Ordering is (distance,
// pool, group) lexicographic so ties are deterministic across runs and
// platforms.
struct Neighbor {
  double distance_squared = 0.0;
  std::size_t pool = 0;
  std::size_t group = 0;
  int label = -1;
  std::uint64_t mass = 0;

  bool operator<(const Neighbor& other) const {
    if (distance_squared != other.distance_squared) {
      return distance_squared < other.distance_squared;
    }
    if (pool != other.pool) return pool < other.pool;
    return group < other.group;
  }
};

Status DeadlineExpired(const char* where) {
  return UnavailableError(std::string("deadline expired during ") + where);
}

// Request series for one query kind, looked up once.
struct QueryKindMetrics {
  obs::Counter& requests;
  obs::Counter& failures;
  obs::Histogram& seconds;

  explicit QueryKindMetrics(QueryKind kind)
      : requests(obs::DefaultRegistry().GetCounter(
            "condensa_query_requests_total", KindLabels(kind))),
        failures(obs::DefaultRegistry().GetCounter(
            "condensa_query_request_failures_total", KindLabels(kind))),
        seconds(obs::DefaultRegistry().GetHistogram(
            "condensa_query_request_seconds", KindLabels(kind))) {}

  static obs::Labels KindLabels(QueryKind kind) {
    return {{"kind", QueryKindName(kind)}};
  }

  static QueryKindMetrics& Get(QueryKind kind) {
    static QueryKindMetrics metrics[] = {
        QueryKindMetrics(QueryKind::kClassify),
        QueryKindMetrics(QueryKind::kAggregate),
        QueryKindMetrics(QueryKind::kRegenerate)};
    return metrics[static_cast<std::size_t>(kind)];
  }
};

}  // namespace

ExecutionContext ExecutionContext::WithBudgetMs(double budget_ms) {
  ExecutionContext context;
  if (budget_ms > 0.0) {
    context.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               budget_ms));
  }
  return context;
}

QueryEngine::QueryEngine(QueryEngineOptions options)
    : options_(options), cache_(options.eigen_cache_capacity) {}

StatusOr<QueryResult> QueryEngine::Execute(const QuerySnapshot& snapshot,
                                           const Query& query,
                                           const ExecutionContext& context) {
  QueryKindMetrics& metrics = QueryKindMetrics::Get(query.kind);
  metrics.requests.Increment();
  obs::Timer timer;

  QueryResult result;
  result.snapshot_version = snapshot.version;
  result.kind = query.kind;
  // Chaos probe: injects errors or latency into the execution path as if
  // the engine itself were slow or failing (kLatency mode stalls here,
  // which is how the soak simulates expensive factorizations).
  Status status = FailPoint::Maybe("query.execute");
  if (status.ok() && context.Expired()) {
    status = DeadlineExpired("admission to execute");
  }
  if (status.ok()) {
    switch (query.kind) {
      case QueryKind::kClassify: {
        StatusOr<ClassifyResult> classify =
            ExecuteClassify(snapshot, query.classify, context);
        if (classify.ok()) {
          result.classify = *std::move(classify);
        } else {
          status = classify.status();
        }
        break;
      }
      case QueryKind::kAggregate: {
        StatusOr<AggregateResult> aggregate =
            ExecuteAggregate(snapshot, query.aggregate, context);
        if (aggregate.ok()) {
          result.aggregate = *std::move(aggregate);
        } else {
          status = aggregate.status();
        }
        break;
      }
      case QueryKind::kRegenerate: {
        StatusOr<RegenerateResult> regenerate =
            ExecuteRegenerate(snapshot, query.regenerate, context);
        if (regenerate.ok()) {
          result.regenerate = *std::move(regenerate);
        } else {
          status = regenerate.status();
        }
        break;
      }
    }
  }

  metrics.seconds.Observe(timer.ElapsedSeconds());
  if (!status.ok()) {
    metrics.failures.Increment();
    return status;
  }
  return result;
}

StatusOr<ClassifyResult> QueryEngine::ExecuteClassify(
    const QuerySnapshot& snapshot, const ClassifyQuery& query,
    const ExecutionContext& context) const {
  if (query.neighbors < 1) {
    return InvalidArgumentError("classify needs neighbors >= 1");
  }
  if (snapshot.TotalGroups() == 0) {
    return FailedPreconditionError("snapshot holds no groups");
  }
  bool labeled = false;
  for (const LabeledGroups& pool : snapshot.pools) {
    if (pool.label >= 0 && !pool.groups.empty()) {
      labeled = true;
      break;
    }
  }
  if (!labeled) {
    return FailedPreconditionError(
        "snapshot holds no labeled pools to classify against");
  }

  // Pack each labeled pool's centroids into blocked-SoA storage once per
  // call: every query point then scans a pool with one batch-distance
  // kernel call instead of a per-group virtual stride. The kernel's
  // per-record sum runs in dimension order over (centroid - point)
  // differences; GroupStatistics::SquaredDistanceToCentroid sums
  // (point - centroid) in the same order, and IEEE negation is exact, so
  // the distances — and hence the votes — are bit-identical to the
  // scalar path.
  struct PoolBlock {
    std::size_t pool = 0;
    int label = -1;
    simd::RecordBlock centroids{0};
    std::vector<std::uint64_t> mass;
  };
  std::vector<PoolBlock> pool_blocks;
  std::size_t max_groups = 0;
  for (std::size_t p = 0; p < snapshot.pools.size(); ++p) {
    const LabeledGroups& pool = snapshot.pools[p];
    if (pool.label < 0 || pool.groups.num_groups() == 0) continue;
    PoolBlock block;
    block.pool = p;
    block.label = pool.label;
    block.centroids = simd::RecordBlock(snapshot.dim);
    block.centroids.Reserve(pool.groups.num_groups());
    block.mass.reserve(pool.groups.num_groups());
    for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
      const core::GroupStatistics& group = pool.groups.group(g);
      block.centroids.Append(group.Centroid());
      block.mass.push_back(group.count());
    }
    max_groups = std::max(max_groups, pool.groups.num_groups());
    pool_blocks.push_back(std::move(block));
  }

  ClassifyResult result;
  result.labels.reserve(query.points.size());
  std::vector<double> dist(max_groups);
  std::vector<Neighbor> nearest;  // max-heap of size <= neighbors
  for (const linalg::Vector& point : query.points) {
    if (context.Expired()) {
      return DeadlineExpired("classify");
    }
    if (point.dim() != snapshot.dim) {
      return InvalidArgumentError(
          "classify point has dimension " + std::to_string(point.dim()) +
          " but the snapshot has " + std::to_string(snapshot.dim));
    }
    nearest.clear();
    for (const PoolBlock& block : pool_blocks) {
      simd::SquaredDistanceBatch(block.centroids, point.data(), dist.data());
      for (std::size_t g = 0; g < block.centroids.size(); ++g) {
        const double d2 = dist[g];
        // Once the heap is full a strictly-greater distance can never
        // win — only an equal one can, via the (pool, group) tie-break —
        // so most groups drop here before the Neighbor is even built.
        if (nearest.size() == query.neighbors &&
            d2 > nearest.front().distance_squared) {
          continue;
        }
        Neighbor candidate{d2, block.pool, g, block.label, block.mass[g]};
        if (nearest.size() < query.neighbors) {
          nearest.push_back(candidate);
          std::push_heap(nearest.begin(), nearest.end());
        } else if (candidate < nearest.front()) {
          std::pop_heap(nearest.begin(), nearest.end());
          nearest.back() = candidate;
          std::push_heap(nearest.begin(), nearest.end());
        }
      }
    }
    // Mass-weighted vote: each neighbouring group speaks for all n(G)
    // records it condenses. std::map iterates labels ascending, so a
    // strict > comparison breaks weight ties toward the smaller label.
    std::map<int, std::uint64_t> votes;
    for (const Neighbor& neighbor : nearest) {
      votes[neighbor.label] += neighbor.mass;
    }
    int best_label = -1;
    std::uint64_t best_weight = 0;
    for (const auto& [label, weight] : votes) {
      if (weight > best_weight) {
        best_weight = weight;
        best_label = label;
      }
    }
    result.labels.push_back(best_label);
  }
  return result;
}

StatusOr<AggregateResult> QueryEngine::ExecuteAggregate(
    const QuerySnapshot& snapshot, const AggregateQuery& query,
    const ExecutionContext& context) const {
  CONDENSA_RETURN_IF_ERROR(query.range.Validate(snapshot.dim));

  // The whole answer is one fold of the additive moments — the result is
  // bit-identical to GroupStatistics::Merge over the selection because
  // it IS GroupStatistics::Merge over the selection, in (pool, group)
  // order.
  core::GroupStatistics folded(snapshot.dim);
  AggregateResult result;
  for (const LabeledGroups& pool : snapshot.pools) {
    if (context.Expired()) {
      return DeadlineExpired("aggregate");
    }
    for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
      const core::GroupStatistics& group = pool.groups.group(g);
      if (!query.range.Matches(group.Centroid())) continue;
      folded.Merge(group);
      ++result.groups_matched;
    }
  }
  result.records = folded.count();
  if (!folded.empty()) {
    result.has_moments = true;
    result.mean = folded.Centroid();
    result.covariance = folded.Covariance();
  }
  return result;
}

StatusOr<RegenerateResult> QueryEngine::ExecuteRegenerate(
    const QuerySnapshot& snapshot, const RegenerateQuery& query,
    const ExecutionContext& context) {
  CONDENSA_RETURN_IF_ERROR(query.range.Validate(snapshot.dim));

  RegenerateResult result;
  // One substream per selected group, split in selection order — the
  // same discipline as Anonymizer::Generate, so the output is a pure
  // function of (snapshot, query).
  Rng rng(query.seed);
  for (const LabeledGroups& pool : snapshot.pools) {
    for (std::size_t g = 0; g < pool.groups.num_groups(); ++g) {
      const core::GroupStatistics& group = pool.groups.group(g);
      linalg::Vector centroid = group.Centroid();
      if (!query.range.Matches(centroid)) continue;
      // Checked per selected group, BEFORE paying for a factorization:
      // the eigendecomposition is the expensive unit of regenerate work.
      if (context.Expired()) {
        return DeadlineExpired("regenerate");
      }
      ++result.groups_matched;
      Rng stream = rng.Split();
      const std::size_t count = query.records_per_group > 0
                                    ? query.records_per_group
                                    : group.count();
      if (group.count() == 1) {
        // Zero covariance: the centroid is the exact record; no
        // factorization exists to cache.
        for (std::size_t i = 0; i < count; ++i) {
          result.records.push_back(centroid);
        }
        continue;
      }
      CONDENSA_ASSIGN_OR_RETURN(
          std::shared_ptr<const linalg::EigenDecomposition> eigen,
          cache_.Get(group));
      std::vector<linalg::Vector> sampled = core::SampleFromEigen(
          centroid, *eigen, count, core::SamplingDistribution::kUniform,
          stream);
      for (linalg::Vector& record : sampled) {
        result.records.push_back(std::move(record));
      }
    }
  }
  return result;
}

}  // namespace condensa::query
