#include "shard/stream_service.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "core/anonymizer.h"
#include "core/serialization.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "metrics/compatibility.h"
#include "mining/knn.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

void WipeTree(const std::string& root) {
  if (auto entries = ListDirectory(root); entries.ok()) {
    for (const std::string& name : *entries) {
      const std::string child = root + "/" + name;
      if (auto nested = ListDirectory(child); nested.ok()) {
        for (const std::string& inner : *nested) RemoveFile(child + "/" + inner);
      }
      RemoveFile(child);
    }
  }
}

class StreamServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/condensa_stream_service_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    WipeTree(root_);
    CreateDirectories(root_);
  }

  ShardedStreamConfig Config(std::size_t shards) const {
    ShardedStreamConfig config;
    config.num_shards = shards;
    config.dim = 3;
    config.group_size = 4;
    config.checkpoint_root = root_;
    config.sync_every_append = false;
    config.snapshot_interval = 64;
    config.seed = 77;
    return config;
  }

  std::vector<Vector> Records(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vector> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      records.push_back(
          Vector{rng.Gaussian(), rng.Gaussian(2.0, 1.5), rng.Uniform(-1, 1)});
    }
    return records;
  }

  std::string root_;
};

TEST_F(StreamServiceTest, IngestsAcrossShardsWithBalancedLedgers) {
  const std::size_t n = 300;
  auto service = ShardedStreamService::Start(Config(3));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(n, 1)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  EXPECT_EQ((*service)->records_submitted(), n);

  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->shard_stats.size(), 3u);
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), n);
  EXPECT_EQ(result->TotalApplied(), n);
  EXPECT_EQ(result->groups.TotalRecords(), n);
  EXPECT_GE(result->groups.Summary().min_group_size, 4u);
  EXPECT_EQ(result->gather.shards_in, 3u);
}

TEST_F(StreamServiceTest, EveryShardCheckpointsInItsOwnDirectory) {
  auto service = ShardedStreamService::Start(Config(4));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(120, 2)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ((*service)->shard_config(shard).checkpoint_dir,
              root_ + "/shard-" + std::to_string(shard));
    auto entries = ListDirectory(root_ + "/shard-" + std::to_string(shard));
    ASSERT_TRUE(entries.ok()) << entries.status();
    EXPECT_FALSE(entries->empty()) << "shard " << shard;
  }
}

TEST_F(StreamServiceTest, FixedSeedAndShardCountReplaysBitIdentically) {
  std::vector<Vector> records = Records(250, 3);
  std::string first_serialized;
  for (int run = 0; run < 2; ++run) {
    WipeTree(root_);
    for (std::size_t shard = 0; shard < 2; ++shard) {
      WipeTree(root_ + "/shard-" + std::to_string(shard));
    }
    auto service = ShardedStreamService::Start(Config(2));
    ASSERT_TRUE(service.ok()) << service.status();
    for (const Vector& record : records) {
      ASSERT_TRUE((*service)->Submit(record).ok());
    }
    auto result = (*service)->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string serialized = core::SerializeGroupSet(result->groups);
    if (run == 0) {
      first_serialized = serialized;
    } else {
      EXPECT_EQ(serialized, first_serialized);
    }
  }
}

TEST_F(StreamServiceTest, SubmitAfterFinishFailsCleanly) {
  auto service = ShardedStreamService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(40, 4)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  ASSERT_TRUE((*service)->Finish().ok());
  EXPECT_TRUE(
      IsFailedPrecondition((*service)->Submit(Vector{0.0, 0.0, 0.0})));
  auto again = (*service)->Finish();
  EXPECT_TRUE(IsFailedPrecondition(again.status()));
}

TEST_F(StreamServiceTest, ValidatesConfig) {
  ShardedStreamConfig config = Config(0);
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
  config = Config(2);
  config.dim = 0;
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
  config = Config(2);
  config.group_size = 1;
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
  config = Config(2);
  config.checkpoint_root.clear();
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
  // Shard i is workers[i]: a list of the wrong length is refused before
  // any endpoint is dialled.
  config = Config(2);
  config.workers = {{"127.0.0.1", 1}};
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
  config.workers = {{"127.0.0.1", 1}, {"127.0.0.1", 1}, {"127.0.0.1", 1}};
  EXPECT_TRUE(
      IsInvalidArgument(ShardedStreamService::Start(config).status()));
}

TEST_F(StreamServiceTest, InProcessShardsRefuseAWrongDimensionRecord) {
  auto service = ShardedStreamService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_TRUE(IsInvalidArgument((*service)->Submit(Vector{1.0, 2.0})));
  EXPECT_EQ((*service)->records_submitted(), 0u);
  for (const runtime::StreamPipelineStats& stats : (*service)->stats()) {
    EXPECT_EQ(stats.submitted, 0u);
  }

  // Nothing was quarantined or half-applied: a clean run still balances.
  for (const Vector& record : Records(40, 6)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), 40u);
  EXPECT_EQ(result->TotalApplied(), 40u);
  EXPECT_EQ(result->report.connects, 0u);
}

TEST_F(StreamServiceTest, LiveStatsCoverEveryShard) {
  auto service = ShardedStreamService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(60, 5)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  std::vector<runtime::StreamPipelineStats> live = (*service)->stats();
  ASSERT_EQ(live.size(), 2u);
  std::size_t submitted = 0;
  for (const runtime::StreamPipelineStats& stats : live) {
    submitted += stats.submitted;
  }
  EXPECT_EQ(submitted, 60u);
  ASSERT_TRUE((*service)->Finish().ok());
}

// The gather merges moments exactly, so sharding a stream must not cost
// release quality: covariance compatibility (mu) and 1-NN accuracy at 4
// shards stay within 0.02 of the 1-shard run. The workload is the
// paper's two-class setting: 10k records from two Gaussian blobs at
// d = 10, one stream per class so the release keeps its labels, every
// fifth record held out for testing.
TEST_F(StreamServiceTest, ShardingKeepsReleaseQualityOfOneShard) {
  const std::size_t dim = 10;
  Rng rng(2026);
  std::vector<Vector> train[2];
  data::Dataset train_raw(dim, data::TaskType::kClassification);
  data::Dataset test(dim, data::TaskType::kClassification);
  for (std::size_t i = 0; i < 10'000; ++i) {
    const int label = static_cast<int>(i % 2);
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(label == 0 ? -3.0 : 3.0, 1.0);
    }
    if (i % 5 == 4) {
      test.Add(std::move(record), label);
    } else {
      train_raw.Add(record, label);
      train[label].push_back(std::move(record));
    }
  }

  struct Quality {
    double mu = 0.0;
    double accuracy = 0.0;
  };
  auto release_quality = [&](std::size_t shards) {
    data::Dataset release(dim, data::TaskType::kClassification);
    for (int label = 0; label < 2; ++label) {
      const std::string class_root = root_ + "/shards-" +
                                     std::to_string(shards) + "-class-" +
                                     std::to_string(label);
      std::filesystem::remove_all(class_root);
      ShardedStreamConfig config;
      config.num_shards = shards;
      config.dim = dim;
      config.group_size = 10;
      config.checkpoint_root = class_root;
      config.sync_every_append = false;
      config.snapshot_interval = 1u << 30;
      config.queue_capacity = 4096;
      config.batch_size = 64;
      config.seed = 42 + static_cast<std::uint64_t>(label);
      auto service = ShardedStreamService::Start(config);
      EXPECT_TRUE(service.ok()) << service.status();
      if (!service.ok()) return Quality{};
      for (const Vector& record : train[label]) {
        EXPECT_TRUE((*service)->Submit(record).ok());
      }
      auto result = (*service)->Finish();
      EXPECT_TRUE(result.ok()) << result.status();
      if (!result.ok()) return Quality{};
      EXPECT_TRUE(result->Balanced());
      EXPECT_EQ(result->groups.TotalRecords(), train[label].size());
      std::filesystem::remove_all(class_root);

      Rng release_rng(1000 + static_cast<std::uint64_t>(label));
      auto points = core::Anonymizer().Generate(result->groups, release_rng);
      EXPECT_TRUE(points.ok()) << points.status();
      if (!points.ok()) return Quality{};
      for (Vector& point : *points) release.Add(std::move(point), label);
    }

    Quality quality;
    auto mu = metrics::CovarianceCompatibility(train_raw, release);
    EXPECT_TRUE(mu.ok()) << mu.status();
    if (mu.ok()) quality.mu = *mu;
    mining::KnnClassifier knn({.k = 1});
    EXPECT_TRUE(knn.Fit(release).ok());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      if (knn.Predict(test.record(i)) == test.label(i)) ++correct;
    }
    quality.accuracy =
        static_cast<double>(correct) / static_cast<double>(test.size());
    return quality;
  };

  const Quality one = release_quality(1);
  const Quality four = release_quality(4);
  EXPECT_GE(four.mu, one.mu - 0.02) << "1-shard mu " << one.mu;
  EXPECT_GE(four.accuracy, one.accuracy - 0.02)
      << "1-shard accuracy " << one.accuracy;
}

}  // namespace
}  // namespace condensa::shard
