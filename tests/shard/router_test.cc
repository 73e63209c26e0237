#include "shard/router.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "linalg/vector.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

std::vector<Vector> RandomRecords(std::size_t count, std::size_t dim,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) record[j] = rng.Gaussian();
    records.push_back(std::move(record));
  }
  return records;
}

TEST(RouterTest, SingleShardRoutesEverythingToZero) {
  Router router({.num_shards = 1, .policy = ShardPolicy::kHash});
  for (const Vector& record : RandomRecords(50, 3, 1)) {
    EXPECT_EQ(router.Route(record), 0u);
  }
}

TEST(RouterTest, HashPolicyIsPureAndIndexFree) {
  Router a({.num_shards = 8, .policy = ShardPolicy::kHash});
  Router b({.num_shards = 8, .policy = ShardPolicy::kHash});
  for (const Vector& record : RandomRecords(200, 4, 2)) {
    const std::size_t shard = a.ShardOf(record, 0);
    EXPECT_LT(shard, 8u);
    // Same record, any arrival index, any router instance: same shard.
    EXPECT_EQ(a.ShardOf(record, 123), shard);
    EXPECT_EQ(b.ShardOf(record, 7), shard);
    EXPECT_EQ(b.Route(record), shard);
  }
}

TEST(RouterTest, HashPolicyBalancesGaussianStreams) {
  const std::size_t n = 8;
  Router router({.num_shards = n, .policy = ShardPolicy::kHash});
  std::vector<std::size_t> counts(n, 0);
  const std::size_t total = 8000;
  for (const Vector& record : RandomRecords(total, 5, 3)) {
    ++counts[router.Route(record)];
  }
  for (std::size_t shard = 0; shard < n; ++shard) {
    // Expected 1000 per shard; 4-sigma-ish slack keeps this stable.
    EXPECT_GT(counts[shard], total / n / 2) << "shard " << shard;
    EXPECT_LT(counts[shard], total / n * 2) << "shard " << shard;
  }
}

TEST(RouterTest, RoundRobinCyclesByArrivalIndex) {
  Router router({.num_shards = 3, .policy = ShardPolicy::kRoundRobin});
  std::vector<Vector> records = RandomRecords(9, 2, 4);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(router.ShardOf(records[i], i), i % 3);
    EXPECT_EQ(router.Route(records[i]), i % 3);
  }
}

TEST(RouterTest, ScatterPartitionsEveryRecordOnce) {
  for (ShardPolicy policy : {ShardPolicy::kHash, ShardPolicy::kRoundRobin}) {
    Router router({.num_shards = 4, .policy = policy});
    std::vector<Vector> records = RandomRecords(100, 3, 5);
    std::vector<std::vector<Vector>> parts = router.Scatter(records);
    ASSERT_EQ(parts.size(), 4u);
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    EXPECT_EQ(total, records.size());

    // Each partition holds exactly the records ShardOf assigns to it, in
    // arrival order.
    std::vector<std::size_t> cursor(4, 0);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::size_t shard = router.ShardOf(records[i], i);
      ASSERT_LT(cursor[shard], parts[shard].size());
      const Vector& placed = parts[shard][cursor[shard]++];
      for (std::size_t j = 0; j < records[i].dim(); ++j) {
        EXPECT_EQ(placed[j], records[i][j]);
      }
    }
  }
}

TEST(RouterTest, HashDistinguishesIeeeBitPatterns) {
  // The contract is bitwise determinism: -0.0 == 0.0 numerically, but
  // they are different bit patterns and may route differently. What must
  // hold is stability — each routes the same way every time.
  EXPECT_EQ(Router::HashRecord(Vector{0.0}), Router::HashRecord(Vector{0.0}));
  EXPECT_EQ(Router::HashRecord(Vector{-0.0}),
            Router::HashRecord(Vector{-0.0}));
  EXPECT_NE(Router::HashRecord(Vector{0.0}), Router::HashRecord(Vector{1.0}));
  // Dimension participates: a 1-d zero and a 2-d zero differ.
  EXPECT_NE(Router::HashRecord(Vector{0.0}),
            Router::HashRecord(Vector{0.0, 0.0}));
}

TEST(RouterTest, ShardAmongFullMembershipMatchesShardOf) {
  // ShardAmong with the complete membership {0..N-1} in order must be
  // exactly ShardOf, for both policies.
  for (ShardPolicy policy :
       {ShardPolicy::kHash, ShardPolicy::kRoundRobin}) {
    Router router({.num_shards = 4, .policy = policy});
    const std::vector<std::size_t> everyone = {0, 1, 2, 3};
    Rng rng(11);
    for (std::size_t i = 0; i < 500; ++i) {
      Vector record{rng.Gaussian(0.0, 2.0), rng.Gaussian(0.0, 2.0)};
      EXPECT_EQ(router.ShardAmong(record, i, everyone),
                router.ShardOf(record, i));
    }
  }
}

TEST(RouterTest, ShardAmongIsDeterministicUnderMembershipChurn) {
  // Satellite contract: removing a member and later re-adding it must
  // reproduce the original record->shard assignment for each membership
  // set exactly. Pin the assignments at serialization level (a byte
  // string), so any drift in hashing or modulo order breaks the test
  // loudly rather than statistically.
  Router router({.num_shards = 5, .policy = ShardPolicy::kHash});
  const std::vector<std::size_t> full = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> without_two = {0, 1, 3, 4};

  Rng rng(23);
  std::vector<Vector> records;
  for (std::size_t i = 0; i < 400; ++i) {
    records.push_back(Vector{rng.Gaussian(-1.0, 3.0), rng.Gaussian(1.0, 3.0),
                             rng.Gaussian(0.0, 0.5)});
  }

  auto assignment = [&](const std::vector<std::size_t>& members) {
    std::string serialized;
    for (std::size_t i = 0; i < records.size(); ++i) {
      serialized += std::to_string(router.ShardAmong(records[i], i, members));
      serialized += ',';
    }
    return serialized;
  };

  const std::string before_churn = assignment(full);
  const std::string degraded = assignment(without_two);
  // Shard 2 never appears while it is out of the membership.
  EXPECT_EQ(degraded.find('2'), std::string::npos);
  // Re-adding the member restores the original assignment byte-for-byte,
  // and the degraded assignment itself is reproducible.
  EXPECT_EQ(assignment(full), before_churn);
  EXPECT_EQ(assignment(without_two), degraded);

  // A fresh Router with the same options reproduces both assignments:
  // churn determinism is a property of (record, index, members), not of
  // instance state.
  Router replay({.num_shards = 5, .policy = ShardPolicy::kHash});
  std::string replayed_full;
  std::string replayed_degraded;
  for (std::size_t i = 0; i < records.size(); ++i) {
    replayed_full += std::to_string(replay.ShardAmong(records[i], i, full));
    replayed_full += ',';
    replayed_degraded +=
        std::to_string(replay.ShardAmong(records[i], i, without_two));
    replayed_degraded += ',';
  }
  EXPECT_EQ(replayed_full, before_churn);
  EXPECT_EQ(replayed_degraded, degraded);
}

TEST(RouterTest, RoundRobinShardAmongCyclesTheMemberList) {
  Router router({.num_shards = 3, .policy = ShardPolicy::kRoundRobin});
  const std::vector<std::size_t> members = {0, 2};
  Vector record{1.0};
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(router.ShardAmong(record, i, members), members[i % 2]);
  }
}

TEST(RouterTest, SplitStreamsAreDeterministicAndDistinct) {
  Rng parent_a(42);
  Rng parent_b(42);
  std::vector<Rng> streams_a = Router::SplitStreams(parent_a, 4);
  std::vector<Rng> streams_b = Router::SplitStreams(parent_b, 4);
  ASSERT_EQ(streams_a.size(), 4u);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    // Same parent seed -> same substream per shard.
    EXPECT_EQ(streams_a[shard].NextUint64(), streams_b[shard].NextUint64());
  }
  // Distinct shards draw from distinct streams.
  Rng parent_c(42);
  std::vector<Rng> streams_c = Router::SplitStreams(parent_c, 4);
  EXPECT_NE(streams_c[0].NextUint64(), streams_c[1].NextUint64());
}

TEST(RouterTest, ShardSeedsAreTheFirstDrawOfEachSplitStream) {
  // The seed derivation every durable sharded service shares; it must
  // stay exactly this for fixed-seed releases to replay.
  Rng parent(91);
  std::vector<Rng> streams = Router::SplitStreams(parent, 3);
  const std::vector<std::uint64_t> seeds = Router::ShardSeeds(91, 3);
  ASSERT_EQ(seeds.size(), 3u);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(seeds[shard], streams[shard].NextUint64());
  }
  EXPECT_TRUE(Router::ShardSeeds(91, 0).empty());
}

}  // namespace
}  // namespace condensa::shard
