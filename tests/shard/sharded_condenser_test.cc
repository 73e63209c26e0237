#include "shard/sharded_condenser.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/backend.h"
#include "core/serialization.h"
#include "linalg/vector.h"
#include "obs/metrics.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

std::vector<Vector> GaussianRecords(std::size_t count, std::size_t dim,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(static_cast<double>(j % 3), 1.0);
    }
    records.push_back(std::move(record));
  }
  return records;
}

TEST(ShardedCondenserTest, ConservesRecordsAndKFloorAcrossShardCounts) {
  const std::size_t n = 600;
  const std::size_t k = 10;
  std::vector<Vector> records = GaussianRecords(n, 4, 11);
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    ShardedCondenserConfig config;
    config.num_shards = shards;
    config.group_size = k;
    config.num_threads = 1;
    Rng rng(99);
    auto result = ShardedCondenser(config).Condense(records, rng);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->groups.TotalRecords(), n) << "shards=" << shards;
    EXPECT_GE(result->groups.Summary().min_group_size, k)
        << "shards=" << shards;
    EXPECT_EQ(result->gather.records_in, n);
    EXPECT_EQ(result->shards.size(), shards);
    std::size_t routed = 0;
    for (const ShardReport& report : result->shards) {
      routed += report.records;
    }
    EXPECT_EQ(routed, n);
  }
}

TEST(ShardedCondenserTest, PreservesGlobalMeanExactly) {
  // Scatter/gather must not move the global first moment: the sum of the
  // released groups' first-order sums equals the raw data sum to float
  // tolerance, whatever the shard count.
  const std::size_t n = 400;
  const std::size_t dim = 3;
  std::vector<Vector> records = GaussianRecords(n, dim, 12);
  Vector raw_sum(dim);
  for (const Vector& record : records) raw_sum += record;

  ShardedCondenserConfig config;
  config.num_shards = 4;
  config.group_size = 8;
  config.num_threads = 1;
  Rng rng(5);
  auto result = ShardedCondenser(config).Condense(records, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  Vector condensed_sum(dim);
  for (const core::GroupStatistics& group : result->groups.groups()) {
    condensed_sum += group.first_order();
  }
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(condensed_sum[j], raw_sum[j], 1e-9);
  }
}

TEST(ShardedCondenserTest, FixedSeedAndShardCountIsBitIdentical) {
  std::vector<Vector> records = GaussianRecords(300, 3, 13);
  ShardedCondenserConfig config;
  config.num_shards = 4;
  config.group_size = 8;
  config.num_threads = 1;
  ShardedCondenser condenser(config);

  Rng rng_a(7);
  Rng rng_b(7);
  auto first = condenser.Condense(records, rng_a);
  auto second = condenser.Condense(records, rng_b);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(core::SerializeGroupSet(first->groups),
            core::SerializeGroupSet(second->groups));
}

TEST(ShardedCondenserTest, ThreadCountDoesNotChangeOutput) {
  std::vector<Vector> records = GaussianRecords(300, 3, 14);
  ShardedCondenserConfig config;
  config.num_shards = 4;
  config.group_size = 8;

  config.num_threads = 1;
  Rng rng_serial(21);
  auto serial = ShardedCondenser(config).Condense(records, rng_serial);
  config.num_threads = 4;
  Rng rng_parallel(21);
  auto parallel = ShardedCondenser(config).Condense(records, rng_parallel);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(core::SerializeGroupSet(serial->groups),
            core::SerializeGroupSet(parallel->groups));
}

TEST(ShardedCondenserTest, ShardSmallerThanKIsFoldedNotDropped) {
  // 4 shards, 25 records, k = 10: some partitions end below the k-floor;
  // their remainders must be folded into the global structure.
  std::vector<Vector> records = GaussianRecords(25, 2, 15);
  ShardedCondenserConfig config;
  config.num_shards = 4;
  config.group_size = 10;
  config.num_threads = 1;
  Rng rng(3);
  auto result = ShardedCondenser(config).Condense(records, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->groups.TotalRecords(), 25u);
  EXPECT_GE(result->groups.Summary().min_group_size, 10u);
}

TEST(ShardedCondenserTest, EmitsPerShardSeriesUnderDefaultWorkerLabels) {
  // Static sharding reports the same {shard, worker="w<i>"} series the
  // streaming workers do: records routed to each shard, and the groups
  // each shard released before the gather.
  std::vector<Vector> records = GaussianRecords(35, 2, 18);
  ShardedCondenserConfig config;
  config.num_shards = 3;
  config.policy = ShardPolicy::kRoundRobin;
  config.group_size = 10;
  config.num_threads = 1;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  // std::string("w") because GCC 12 at -O3 reports a false -Wrestrict on
  // `"w" + std::to_string(shard)` here.
  auto records_series = [&](std::size_t shard) -> obs::Counter& {
    return registry.GetCounter(
        "condensa_shard_records_total",
        {{"shard", std::to_string(shard)},
         {"worker", std::string("w") + std::to_string(shard)}});
  };
  std::vector<std::uint64_t> before;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    before.push_back(records_series(shard).value());
  }
  Rng rng(4);
  auto result = ShardedCondenser(config).Condense(records, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->shards.size(), 3u);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    // Round-robin over 35 records: 12, 12, 11 — each above k = 10.
    EXPECT_EQ(result->shards[shard].records, shard < 2 ? 12u : 11u);
    EXPECT_EQ(records_series(shard).value() - before[shard],
              result->shards[shard].records);
    EXPECT_EQ(registry
                  .GetGauge("condensa_shard_groups",
                            {{"shard", std::to_string(shard)},
                             {"worker", std::string("w") + std::to_string(shard)}})
                  .value(),
              static_cast<double>(result->shards[shard].groups));
  }
}

TEST(ShardedCondenserTest, MdavBackendStampsAndBoundsGroups) {
  const std::size_t n = 300;
  const std::size_t k = 8;
  std::vector<Vector> records = GaussianRecords(n, 3, 23);
  ShardedCondenserConfig config;
  config.num_shards = 4;
  config.group_size = k;
  config.num_threads = 2;
  config.backend = *core::FindBackend("mdav");
  Rng rng(7);
  auto result = ShardedCondenser(config).Condense(records, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->groups.backend_id(), "mdav");
  EXPECT_EQ(result->groups.backend_version(), 1);
  EXPECT_EQ(result->groups.TotalRecords(), n);
  // MDAV pins every group into [k, 2k-1] per shard; the sub-k remainder
  // fold can only grow a group, never shrink one below k.
  for (const auto& group : result->groups.groups()) {
    EXPECT_GE(group.count(), k);
  }
}

TEST(ShardedCondenserTest, RejectsBadConfigsAndInputs) {
  std::vector<Vector> records = GaussianRecords(50, 2, 17);
  Rng rng(1);

  ShardedCondenserConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_TRUE(IsInvalidArgument(
      ShardedCondenser(zero_shards).Condense(records, rng).status()));

  ShardedCondenserConfig ok;
  EXPECT_TRUE(IsInvalidArgument(
      ShardedCondenser(ok).Condense({}, rng).status()));

  std::vector<Vector> ragged = records;
  ragged.push_back(Vector{1.0, 2.0, 3.0});
  EXPECT_TRUE(IsInvalidArgument(
      ShardedCondenser(ok).Condense(ragged, rng).status()));
}

}  // namespace
}  // namespace condensa::shard
