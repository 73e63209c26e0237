#include "query/engine.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "query/wire.h"

namespace condensa::query {
namespace {

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

ExecutionContext ExecutionContext::WithBudgetMs(
    double budget_ms, std::chrono::steady_clock::time_point start) {
  using Clock = std::chrono::steady_clock;
  ExecutionContext context;
  if (!(budget_ms > 0.0)) return context;
  // Convert in floating point and saturate before the integer cast: a
  // budget whose tick count overflows the clock's rep, or that would put
  // the deadline past time_point::max(), has no deadline.
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(budget_ms))
          .count();
  if (!(ticks < static_cast<double>(Clock::duration::max().count()))) {
    return context;
  }
  const Clock::duration budget(static_cast<Clock::rep>(ticks));
  if (budget >= Clock::time_point::max() - start) return context;
  context.deadline = start + budget;
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

  // One kd-tree over every labeled centroid, built once per snapshot;
  // it ranks neighbours by (distance, pool, group) exactly as a scan of
  // every group would (query/snapshot.h).
  const std::shared_ptr<const SnapshotIndex> index = snapshot.GetIndex();
  CONDENSA_RETURN_IF_ERROR(index->classify_status());

  ClassifyResult result;
  result.labels.reserve(query.points.size());
  for (const linalg::Vector& point : query.points) {
    if (context.Expired()) {
      return DeadlineExpired("classify");
    }
    if (point.dim() != snapshot.dim) {
      return InvalidArgumentError(
          "classify point has dimension " + std::to_string(point.dim()) +
          " but the snapshot has " + std::to_string(snapshot.dim));
    }
    for (std::size_t d = 0; d < point.dim(); ++d) {
      if (!std::isfinite(point[d])) {
        return InvalidArgumentError(
            "classify point has a non-finite coordinate " +
            std::to_string(d));
      }
    }
    // Mass-weighted vote: each neighbouring group speaks for all n(G)
    // records it condenses. std::map iterates labels ascending, so a
    // strict > comparison breaks weight ties toward the smaller label.
    std::map<int, std::uint64_t> votes;
    for (const SnapshotIndex::Neighbor& neighbor :
         index->Nearest(point, query.neighbors)) {
      votes[snapshot.pools[neighbor.pool].label] += neighbor.mass;
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

  const std::shared_ptr<const SnapshotIndex> index = snapshot.GetIndex();
  CONDENSA_RETURN_IF_ERROR(index->range_status());
  // Checked after the index, whose first build is the costly part.
  if (context.Expired()) {
    return DeadlineExpired("aggregate");
  }

  // The whole answer is one fold of the additive moments, read mostly
  // from the index's precomputed node folds (query/snapshot.h).
  core::GroupStatistics folded(snapshot.dim);
  AggregateResult result;
  result.groups_matched = index->Fold(query.range, &folded);
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

  const std::shared_ptr<const SnapshotIndex> index = snapshot.GetIndex();
  CONDENSA_RETURN_IF_ERROR(index->range_status());

  // Each pool's stamp names the record that regenerates its groups;
  // resolved once per pool, before anything is selected or sampled.
  std::vector<const core::Backend*> backends;
  backends.reserve(snapshot.pools.size());
  for (const LabeledGroups& pool : snapshot.pools) {
    CONDENSA_ASSIGN_OR_RETURN(const core::Backend* backend,
                              core::StampedBackend(pool.groups));
    backends.push_back(backend);
  }

  // Select first, in (pool, group) order: the answer's size is known
  // before any record is sampled, so the caps refuse it up front.
  const std::vector<std::size_t> selected = index->Select(query.range);
  auto records_for = [&query](const core::GroupStatistics& group) {
    return query.records_per_group > 0 ? query.records_per_group
                                       : group.count();
  };
  std::uint64_t total = 0;
  for (std::size_t ordinal : selected) {
    const std::uint64_t count = records_for(index->group(ordinal));
    total = count > UINT64_MAX - total ? UINT64_MAX : total + count;
  }
  if (context.max_regenerate_records > 0 &&
      total > context.max_regenerate_records) {
    return ResourceExhaustedError(
        "regenerate answer of " + std::to_string(total) +
        " records exceeds the cap of " +
        std::to_string(context.max_regenerate_records));
  }
  if (context.max_regenerate_bytes > 0) {
    const std::uint64_t bytes = RegenerateResultBytes(total, snapshot.dim);
    if (bytes > context.max_regenerate_bytes) {
      return ResourceExhaustedError(
          "regenerate answer of " + std::to_string(bytes) +
          " bytes exceeds the cap of " +
          std::to_string(context.max_regenerate_bytes));
    }
  }

  RegenerateResult result;
  // One substream per selected group, split in selection order — the
  // same discipline as Anonymizer::Generate, so the output is a pure
  // function of (snapshot, query). Factorizations come from the cache.
  const core::EigenSource cached =
      [this](const core::GroupStatistics& group) { return cache_.Get(group); };
  Rng rng(query.seed);
  for (std::size_t ordinal : selected) {
    // Checked per selected group, BEFORE paying for a factorization:
    // the eigendecomposition is the expensive unit of regenerate work.
    if (context.Expired()) {
      return DeadlineExpired("regenerate");
    }
    ++result.groups_matched;
    Rng stream = rng.Split();
    const core::GroupStatistics& group = index->group(ordinal);
    CONDENSA_ASSIGN_OR_RETURN(
        std::vector<linalg::Vector> sampled,
        core::RegenerateGroup(*backends[index->pool(ordinal)], group,
                              records_for(group),
                              core::SamplingDistribution::kUniform, cached,
                              stream));
    for (linalg::Vector& record : sampled) {
      result.records.push_back(std::move(record));
    }
  }
  return result;
}

}  // namespace condensa::query
