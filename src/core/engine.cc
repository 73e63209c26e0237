#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include <functional>

#include "common/thread_pool.h"
#include "core/dynamic_condenser.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace condensa::core {
namespace {

const char* ModeName(CondensationMode mode) {
  return mode == CondensationMode::kStatic ? "static" : "dynamic";
}

// NaN/Inf would silently poison every aggregate they touch (sums,
// covariances, eigenvalues), so the engine rejects them up front.
Status ValidateFinite(const data::Dataset& input) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    for (std::size_t j = 0; j < input.dim(); ++j) {
      if (!std::isfinite(input.record(i)[j])) {
        return InvalidArgumentError(
            "record " + std::to_string(i) + " attribute " +
            std::to_string(j) + " is not finite");
      }
    }
    if (input.task() == data::TaskType::kRegression &&
        !std::isfinite(input.target(i))) {
      return InvalidArgumentError("record " + std::to_string(i) +
                                  " target is not finite");
    }
  }
  return OkStatus();
}

// Condenses one point pool with an explicit k, honouring the mode.
StatusOr<CondensedGroupSet> CondensePool(
    const std::vector<linalg::Vector>& points, std::size_t k,
    const CondensationConfig& config, Rng& rng, std::size_t* splits_out) {
  obs::TraceSpan span("engine.condense_pool");
  if (splits_out != nullptr) *splits_out = 0;
  if (config.mode == CondensationMode::kStatic) {
    return config.backend->Build(points, k, rng);
  }

  // Dynamic mode: static bootstrap prefix, then stream the remainder.
  CONDENSA_CHECK(!points.empty());
  std::vector<linalg::Vector> ordered = points;
  if (config.shuffle_stream) {
    rng.Shuffle(ordered);
  }
  std::size_t bootstrap_count = static_cast<std::size_t>(
      config.bootstrap_fraction * static_cast<double>(ordered.size()));
  if (bootstrap_count > 0) {
    bootstrap_count = std::max(bootstrap_count, k);
  }
  bootstrap_count = std::min(bootstrap_count, ordered.size());
  if (bootstrap_count < k) {
    bootstrap_count = 0;  // pool too small to bootstrap; stream everything
  }

  const DynamicCondenserOptions condenser_options{
      .group_size = k,
      .split_rule = config.split_rule,
      .backend = config.backend};

  DynamicCondenser condenser(ordered.front().dim(), condenser_options);
  if (bootstrap_count > 0) {
    std::vector<linalg::Vector> prefix(ordered.begin(),
                                       ordered.begin() + bootstrap_count);
    CONDENSA_RETURN_IF_ERROR(condenser.Bootstrap(prefix, rng));
  }
  for (std::size_t i = bootstrap_count; i < ordered.size(); ++i) {
    CONDENSA_RETURN_IF_ERROR(condenser.Insert(ordered[i]));
  }
  if (splits_out != nullptr) *splits_out = condenser.split_count();
  return condenser.TakeGroups();
}

// Condenses one record pool into a CondensedPools::Pool, clamping k to
// the pool size (a class smaller than k cannot split below one group).
StatusOr<CondensedPools::Pool> MakePool(
    const std::vector<linalg::Vector>& points, int label,
    const CondensationConfig& config, Rng& rng) {
  std::size_t effective_k =
      std::min<std::size_t>(config.group_size, points.size());
  std::size_t splits = 0;
  CONDENSA_ASSIGN_OR_RETURN(
      CondensedGroupSet groups,
      CondensePool(points, effective_k, config, rng, &splits));
  return CondensedPools::Pool{label, splits, std::move(groups)};
}

}  // namespace

std::size_t AnonymizationResult::AchievedIndistinguishability() const {
  std::size_t level = std::numeric_limits<std::size_t>::max();
  bool any = false;
  for (const PoolReport& report : reports) {
    if (report.privacy.num_groups == 0) continue;
    level = std::min(level, report.privacy.min_group_size);
    any = true;
  }
  return any ? level : 0;
}

double AnonymizationResult::AverageGroupSize() const {
  std::size_t records = 0;
  std::size_t groups = 0;
  for (const PoolReport& report : reports) {
    records += report.privacy.total_records;
    groups += report.privacy.num_groups;
  }
  if (groups == 0) return 0.0;
  return static_cast<double>(records) / static_cast<double>(groups);
}

std::vector<PoolReport> CondensedPools::Reports() const {
  std::vector<PoolReport> reports;
  reports.reserve(pools.size());
  for (const Pool& pool : pools) {
    PoolReport report;
    report.label = pool.label;
    report.pool_size = pool.groups.TotalRecords();
    report.effective_group_size = pool.groups.indistinguishability_level();
    report.privacy = pool.groups.Summary();
    report.splits = pool.splits;
    reports.push_back(report);
  }
  return reports;
}

Status CondensationConfig::Validate() const {
  if (group_size < 1) {
    return InvalidArgumentError("group_size (k) must be >= 1");
  }
  if (!(bootstrap_fraction >= 0.0) || !(bootstrap_fraction <= 1.0)) {
    return InvalidArgumentError("bootstrap_fraction must be in [0, 1]");
  }
  if (backend == nullptr) {
    return InvalidArgumentError("backend must be set");
  }
  return OkStatus();
}

CondensationEngine::CondensationEngine(CondensationConfig config)
    : config_(config) {}

StatusOr<CondensedGroupSet> CondensationEngine::CondensePoints(
    const std::vector<linalg::Vector>& points, Rng& rng) const {
  CONDENSA_RETURN_IF_ERROR(config_.Validate());
  return CondensePool(points, config_.group_size, config_, rng, nullptr);
}

StatusOr<CondensedPools> CondensationEngine::Condense(
    const data::Dataset& input, Rng& rng) const {
  CONDENSA_RETURN_IF_ERROR(config_.Validate());
  if (input.empty()) {
    return InvalidArgumentError("cannot condense an empty dataset");
  }
  CONDENSA_RETURN_IF_ERROR(ValidateFinite(input));

  // Engine-level accounting: wall time per run (labeled by mode), input
  // totals, and last-run gauges — the engine's final stats report.
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  const obs::Labels mode_labels = {{"mode", ModeName(config_.mode)}};
  obs::TraceSpan span("engine.condense");
  obs::ScopedTimer run_timer(
      registry.GetHistogram("condensa_engine_condense_seconds", mode_labels));
  registry.GetCounter("condensa_engine_runs_total", mode_labels).Increment();
  registry.GetCounter("condensa_engine_records_total")
      .Increment(input.size());

  CondensedPools pools;
  pools.task = input.task();
  pools.feature_dim = input.dim();

  switch (input.task()) {
    case data::TaskType::kClassification: {
      // One pool per class label, condensed in parallel. Jobs are built
      // in deterministic (std::map) label order and each gets its own
      // Rng::Split() substream before any worker runs, so the result is
      // bit-identical for a fixed seed at any thread count.
      struct PoolJob {
        int label = -1;
        std::vector<linalg::Vector> points;
        Rng rng;
        StatusOr<CondensedPools::Pool> result{
            CondensedPools::Pool{-1, 0, CondensedGroupSet(0, 0)}};
      };
      std::vector<PoolJob> jobs;
      for (const auto& [label, indices] : input.IndicesByLabel()) {
        PoolJob job;
        job.label = label;
        job.points.reserve(indices.size());
        for (std::size_t i : indices) {
          job.points.push_back(input.record(i));
        }
        job.rng = rng.Split();
        jobs.push_back(std::move(job));
      }

      obs::Histogram& pool_seconds =
          registry.GetHistogram("condensa_pool_condense_seconds");
      registry.GetCounter("condensa_pool_tasks_total")
          .Increment(jobs.size());
      const std::size_t threads =
          ThreadPool::ResolveThreadCount(config_.num_threads);
      registry.GetGauge("condensa_pool_threads")
          .Set(static_cast<double>(threads));

      std::vector<std::function<void()>> tasks;
      tasks.reserve(jobs.size());
      for (PoolJob& job : jobs) {
        tasks.push_back([&job, &config = config_, &pool_seconds] {
          obs::ScopedTimer pool_timer(pool_seconds);
          job.result = MakePool(job.points, job.label, config, job.rng);
        });
      }
      ParallelRun(threads, tasks);

      for (PoolJob& job : jobs) {
        CONDENSA_ASSIGN_OR_RETURN(CondensedPools::Pool pool,
                                  std::move(job.result));
        pools.pools.push_back(std::move(pool));
      }
      break;
    }
    case data::TaskType::kRegression: {
      // Condense in (features ⊕ target) space so the attribute-target
      // correlations survive condensation.
      const std::size_t d = input.dim();
      std::vector<linalg::Vector> points;
      points.reserve(input.size());
      for (std::size_t i = 0; i < input.size(); ++i) {
        linalg::Vector extended(d + 1);
        for (std::size_t j = 0; j < d; ++j) {
          extended[j] = input.record(i)[j];
        }
        extended[d] = input.target(i);
        points.push_back(std::move(extended));
      }
      CONDENSA_ASSIGN_OR_RETURN(CondensedPools::Pool pool,
                                MakePool(points, -1, config_, rng));
      pools.pools.push_back(std::move(pool));
      break;
    }
    case data::TaskType::kUnlabeled: {
      CONDENSA_ASSIGN_OR_RETURN(
          CondensedPools::Pool pool,
          MakePool(input.records(), -1, config_, rng));
      pools.pools.push_back(std::move(pool));
      break;
    }
  }

  // Final stats: what this run produced, as counters plus last-run gauges
  // so `condensa stats` (and any scraper) sees the shape of the release.
  std::size_t groups = 0, splits = 0, min_group = 0;
  bool first = true;
  for (const CondensedPools::Pool& pool : pools.pools) {
    PrivacySummary summary = pool.groups.Summary();
    groups += summary.num_groups;
    splits += pool.splits;
    min_group = first ? summary.min_group_size
                      : std::min(min_group, summary.min_group_size);
    first = false;
  }
  registry.GetCounter("condensa_engine_pools_total")
      .Increment(pools.pools.size());
  registry.GetCounter("condensa_engine_groups_total").Increment(groups);
  registry.GetCounter("condensa_engine_splits_total").Increment(splits);
  registry.GetGauge("condensa_engine_last_pools").Set(pools.pools.size());
  registry.GetGauge("condensa_engine_last_groups").Set(groups);
  registry.GetGauge("condensa_engine_last_min_group_size").Set(min_group);
  registry.GetGauge("condensa_engine_last_records").Set(input.size());
  return pools;
}

StatusOr<AnonymizationResult> GenerateRelease(
    const CondensedPools& pools, Rng& rng,
    const AnonymizerOptions& anonymizer_options) {
  obs::TraceSpan span("engine.generate_release");
  if (pools.pools.empty()) {
    return InvalidArgumentError("no pools to generate from");
  }
  const std::size_t condensed_dim = pools.CondensedDim();
  for (const CondensedPools::Pool& pool : pools.pools) {
    if (pool.groups.dim() != condensed_dim) {
      return InvalidArgumentError("pool dimension mismatch");
    }
  }

  Anonymizer anonymizer(anonymizer_options);
  AnonymizationResult result;
  result.reports = pools.Reports();
  result.anonymized = data::Dataset(pools.feature_dim, pools.task);

  for (const CondensedPools::Pool& pool : pools.pools) {
    CONDENSA_ASSIGN_OR_RETURN(std::vector<linalg::Vector> generated,
                              anonymizer.Generate(pool.groups, rng));
    for (linalg::Vector& point : generated) {
      switch (pools.task) {
        case data::TaskType::kClassification:
          result.anonymized.Add(std::move(point), pool.label);
          break;
        case data::TaskType::kRegression: {
          linalg::Vector features(pools.feature_dim);
          for (std::size_t j = 0; j < pools.feature_dim; ++j) {
            features[j] = point[j];
          }
          result.anonymized.Add(std::move(features),
                                point[pools.feature_dim]);
          break;
        }
        case data::TaskType::kUnlabeled:
          result.anonymized.Add(std::move(point));
          break;
      }
    }
  }
  return result;
}

StatusOr<AnonymizationResult> CondensationEngine::Anonymize(
    const data::Dataset& input, Rng& rng) const {
  CONDENSA_ASSIGN_OR_RETURN(CondensedPools pools, Condense(input, rng));
  CONDENSA_ASSIGN_OR_RETURN(
      AnonymizationResult result,
      GenerateRelease(pools, rng, {.num_threads = config_.num_threads}));
  if (!input.feature_names().empty()) {
    CONDENSA_RETURN_IF_ERROR(
        result.anonymized.SetFeatureNames(input.feature_names()));
  }
  return result;
}

}  // namespace condensa::core
