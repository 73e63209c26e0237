// Satellite guarantee: the query plane's metrics land in the default
// obs registry and show up in the Prometheus exposition — request
// counters and latency histograms per query kind, the eigen-cache
// hit/miss/size/ratio series, the published snapshot version, and the
// snapshot index's build time and size.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/random.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/snapshot.h"

namespace condensa::query {
namespace {

using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Vector;

QuerySnapshot MakeSnapshot() {
  Rng rng(31);
  CondensedGroupSet groups(2, 4);
  for (std::size_t g = 0; g < 3; ++g) {
    GroupStatistics stats(2);
    for (std::size_t r = 0; r < 4; ++r) {
      Vector record(2);
      record[0] = rng.Gaussian();
      record[1] = rng.Gaussian();
      stats.Add(record);
    }
    groups.AddGroup(std::move(stats));
  }
  return SnapshotFromGroupSet(groups);
}

TEST(QueryMetricsTest, ExpositionCarriesQuerySeries) {
  obs::DefaultRegistry().Reset();

  QuerySnapshot snapshot = MakeSnapshot();
  QueryEngine engine;
  Query aggregate;
  aggregate.kind = QueryKind::kAggregate;
  ASSERT_TRUE(engine.Execute(snapshot, aggregate).ok());
  Query regenerate;
  regenerate.kind = QueryKind::kRegenerate;
  ASSERT_TRUE(engine.Execute(snapshot, regenerate).ok());
  ASSERT_TRUE(engine.Execute(snapshot, regenerate).ok());

  // A failing request must increment the failure counter.
  Query classify;
  classify.kind = QueryKind::kClassify;
  Vector point(2);
  classify.classify.points.push_back(point);
  ASSERT_FALSE(engine.Execute(snapshot, classify).ok());

  SnapshotStore store;
  store.Publish(MakeSnapshot());

  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  // Request counters, labeled by kind.
  EXPECT_NE(
      text.find("condensa_query_requests_total{kind=\"aggregate\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("condensa_query_requests_total{kind=\"regenerate\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("condensa_query_requests_total{kind=\"classify\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "condensa_query_request_failures_total{kind=\"classify\"} 1"),
      std::string::npos);
  // Latency histograms.
  EXPECT_NE(text.find("condensa_query_request_seconds"),
            std::string::npos);
  // Eigen cache series: 3 groups faulted in once, then 3 hits.
  EXPECT_NE(text.find("condensa_query_eigen_cache_misses_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("condensa_query_eigen_cache_hits_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("condensa_query_eigen_cache_size 3"),
            std::string::npos);
  EXPECT_NE(text.find("condensa_query_eigen_cache_hit_ratio 0.5"),
            std::string::npos);
  // Published snapshot version gauge.
  EXPECT_NE(text.find("condensa_query_snapshot_version 1"),
            std::string::npos);
  // The snapshot index: built once, by the first aggregate (the failed
  // classify stopped before it), and its size.
  EXPECT_NE(
      text.find("condensa_query_snapshot_index_build_seconds_count 1\n"),
      std::string::npos);
  const double index_bytes =
      obs::DefaultRegistry()
          .GetGauge("condensa_query_snapshot_index_bytes")
          .value();
  EXPECT_GT(index_bytes, 0.0);
  EXPECT_EQ(index_bytes, static_cast<double>(snapshot.GetIndex()->bytes()));
  EXPECT_NE(text.find("condensa_query_snapshot_index_bytes "),
            std::string::npos);

  obs::DefaultRegistry().Reset();
}

// The read-plane hardening series: rejected-by-reason counters, the
// in-flight gauge, and the stale-answer counter, pinned by exposition
// name so dashboards can rely on them.
TEST(QueryMetricsTest, ExpositionCarriesHardeningSeries) {
  obs::DefaultRegistry().Reset();

  obs::DefaultRegistry()
      .GetCounter("condensa_query_rejected_total", {{"reason", "overload"}})
      .Increment();
  obs::DefaultRegistry()
      .GetCounter("condensa_query_rejected_total", {{"reason", "deadline"}})
      .Increment(2);
  obs::DefaultRegistry()
      .GetCounter("condensa_query_rejected_total",
                  {{"reason", "shutting-down"}})
      .Increment();
  obs::DefaultRegistry().GetGauge("condensa_query_inflight").Set(5);
  obs::DefaultRegistry()
      .GetCounter("condensa_query_stale_served_total")
      .Increment();

  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(
      text.find("condensa_query_rejected_total{reason=\"overload\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("condensa_query_rejected_total{reason=\"deadline\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("condensa_query_rejected_total{reason=\"shutting-down\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("condensa_query_inflight 5"), std::string::npos);
  EXPECT_NE(text.find("condensa_query_stale_served_total 1"),
            std::string::npos);

  obs::DefaultRegistry().Reset();
}

}  // namespace
}  // namespace condensa::query
