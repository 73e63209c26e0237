#include "runtime/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "core/checkpointing.h"
#include "linalg/vector.h"

namespace condensa::runtime {
namespace {

using linalg::Vector;

void WipeDir(const std::string& dir) {
  if (auto entries = ListDirectory(dir); entries.ok()) {
    for (const std::string& name : *entries) {
      RemoveFile(dir + "/" + name);
    }
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    dir_ = ::testing::TempDir() + "/condensa_pipeline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    WipeDir(dir_);
    CreateDirectories(dir_);
    WipeDir(dir_);
  }
  void TearDown() override { FailPoint::Reset(); }

  StreamPipelineConfig Config() const {
    StreamPipelineConfig config;
    config.dim = 3;
    config.group_size = 4;
    config.checkpoint_dir = dir_;
    config.snapshot_interval = 16;
    config.queue_capacity = 32;
    config.batch_size = 8;
    config.seed = 99;
    return config;
  }

  std::vector<Vector> Stream(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vector> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Vector record(3);
      for (std::size_t j = 0; j < 3; ++j) {
        record[j] = rng.Gaussian(static_cast<double>(j), 1.5);
      }
      records.push_back(std::move(record));
    }
    return records;
  }

  std::string dir_;
};

TEST_F(PipelineTest, ConfigValidationRefusesBadValues) {
  {
    StreamPipelineConfig config = Config();
    config.dim = 0;
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
  }
  {
    StreamPipelineConfig config = Config();
    config.group_size = 1;  // k = 1 gives no indistinguishability
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
    EXPECT_FALSE(StreamPipeline::Start(config).ok());
  }
  {
    StreamPipelineConfig config = Config();
    config.checkpoint_dir.clear();
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
  }
  {
    StreamPipelineConfig config = Config();
    config.snapshot_interval = 0;
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
  }
  {
    StreamPipelineConfig config = Config();
    config.queue_capacity = 0;
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
  }
  {
    StreamPipelineConfig config = Config();
    config.retry.jitter_fraction = 1.5;
    EXPECT_TRUE(IsInvalidArgument(config.Validate()));
  }
  EXPECT_TRUE(Config().Validate().ok());
}

TEST_F(PipelineTest, StreamsRecordsThroughToDurableCondenser) {
  auto pipeline = StreamPipeline::Start(Config());
  ASSERT_TRUE(pipeline.ok());
  const std::vector<Vector> records = Stream(200, 1);
  for (const Vector& record : records) {
    ASSERT_TRUE((*pipeline)->Submit(record).ok());
  }
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->submitted, 200u);
  EXPECT_EQ(stats->accepted, 200u);
  EXPECT_EQ(stats->applied, 200u);
  EXPECT_EQ(stats->quarantined, 0u);
  EXPECT_EQ(stats->spool_remaining, 0u);
  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ((*pipeline)->records_seen(), 200u);
  // Group invariant: every group within [k, 2k - 1] once past warm-up.
  const auto& groups = (*pipeline)->groups();
  EXPECT_GT(groups.num_groups(), 0u);
  EXPECT_EQ(groups.TotalRecords(), 200u);

  // Submitting after Finish is refused.
  EXPECT_TRUE(IsFailedPrecondition((*pipeline)->Submit(records[0])));
}

TEST_F(PipelineTest, FinishedStateIsRecoverable) {
  std::size_t applied = 0;
  {
    auto pipeline = StreamPipeline::Start(Config());
    ASSERT_TRUE(pipeline.ok());
    for (const Vector& record : Stream(120, 2)) {
      ASSERT_TRUE((*pipeline)->Submit(record).ok());
    }
    auto stats = (*pipeline)->Finish();
    ASSERT_TRUE(stats.ok());
    applied = stats->applied;
  }
  core::DynamicCondenserOptions options;
  options.group_size = 4;
  auto recovered =
      core::DurableCondenser::Recover(dir_, options, {.snapshot_interval = 16});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), applied);
}

TEST_F(PipelineTest, PoisonRecordsAreQuarantinedNotFatal) {
  StreamPipelineConfig config = Config();
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());
  const std::vector<Vector> good = Stream(60, 3);
  for (std::size_t i = 0; i < good.size(); ++i) {
    ASSERT_TRUE((*pipeline)->Submit(good[i]).ok());
    if (i == 10) {
      // Wrong dimension.
      ASSERT_TRUE((*pipeline)->Submit(Vector{1.0, 2.0}).ok());
    }
    if (i == 20) {
      // NaN attribute.
      ASSERT_TRUE(
          (*pipeline)
              ->Submit(Vector{0.0, std::nan(""), 1.0})
              .ok());
    }
    if (i == 30) {
      // Infinite attribute.
      ASSERT_TRUE(
          (*pipeline)
              ->Submit(Vector{std::numeric_limits<double>::infinity(), 0.0,
                              1.0})
              .ok());
    }
  }
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->submitted, 63u);
  EXPECT_EQ(stats->applied, 60u);
  EXPECT_EQ(stats->quarantined, 3u);
  EXPECT_EQ(stats->quarantined_dimension, 1u);
  EXPECT_EQ(stats->quarantined_non_finite, 2u);
  EXPECT_TRUE(stats->Balanced());

  auto entries = QuarantineWriter::ReadAll(config.checkpoint_dir +
                                           "/quarantine.log");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

TEST_F(PipelineTest, TransientFailuresAreRetriedWithoutLoss) {
  StreamPipelineConfig config = Config();
  config.retry.initial_backoff_ms = 0.1;
  config.retry.max_backoff_ms = 1.0;
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());
  // ~15% of journal appends fail transiently; retries must absorb it.
  FailPoint::Arm("checkpoint.journal_append",
                 {.fail_at = 5,
                  .code = StatusCode::kUnavailable,
                  .probability = 0.15,
                  .seed = 11});
  for (const Vector& record : Stream(150, 4)) {
    ASSERT_TRUE((*pipeline)->Submit(record).ok());
  }
  FailPoint::Disarm("checkpoint.journal_append");
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->applied + stats->spool_remaining +
                stats->quarantined_failure,
            150u);
  EXPECT_TRUE(stats->Balanced());
  EXPECT_GT(stats->retries, 0u);
  EXPECT_EQ((*pipeline)->records_seen(), stats->applied);
}

TEST_F(PipelineTest, BreakerDegradesToSpoolAndRecovers) {
  StreamPipelineConfig config = Config();
  config.retry.max_attempts = 2;
  config.retry.initial_backoff_ms = 0.1;
  config.retry.max_backoff_ms = 0.5;
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration_ms = 50.0;
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());

  const std::vector<Vector> records = Stream(80, 5);
  // Hard outage: every journal append fails for a while.
  FailPoint::Arm("checkpoint.journal_append",
                 {.fail_at = 1,
                  .repeat = static_cast<std::size_t>(-1),
                  .code = StatusCode::kUnavailable});
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(records[i]).ok());
  }
  // Let the worker hit the outage and trip the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  FailPoint::Disarm("checkpoint.journal_append");
  for (std::size_t i = 40; i < records.size(); ++i) {
    ASSERT_TRUE((*pipeline)->Submit(records[i]).ok());
  }
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->spooled, 0u);
  EXPECT_GT(stats->breaker_trips, 0u);
  // Once the outage clears, the spool drains back through the condenser.
  EXPECT_EQ(stats->applied, 80u);
  EXPECT_EQ(stats->spool_remaining, 0u);
  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ((*pipeline)->records_seen(), 80u);
}

TEST_F(PipelineTest, SpoolBacklogIsRecoveredByNextRun) {
  StreamPipelineConfig config = Config();
  // First run: write a spool backlog by hand (as if a run crashed while
  // degraded).
  {
    auto pipeline = StreamPipeline::Start(config);
    ASSERT_TRUE(pipeline.ok());
    for (const Vector& record : Stream(30, 6)) {
      ASSERT_TRUE((*pipeline)->Submit(record).ok());
    }
    ASSERT_TRUE((*pipeline)->Finish().ok());
  }
  {
    auto spool = AppendFile::Open(config.checkpoint_dir + "/spool.log");
    ASSERT_TRUE(spool.ok());
    ASSERT_TRUE(spool->Append("s 1.5 -2.5 3.5 .\n").ok());
    ASSERT_TRUE(spool->Append("s 0.25 0.5 0.75 .\n").ok());
    ASSERT_TRUE(spool->Append("s 9 9 9").ok());  // torn tail
    ASSERT_TRUE(spool->Sync().ok());
  }
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->spool_recovered, 2u);
  EXPECT_EQ(stats->spool_replayed, 2u);
  EXPECT_EQ(stats->applied, 2u);
  EXPECT_EQ(stats->spool_remaining, 0u);
  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ((*pipeline)->records_seen(), 32u);
}

// A spooled subnormal (written by earlier builds in 17-digit form) used
// to stop spool replay, dropping it and every record after it.
TEST_F(PipelineTest, SpoolReplayKeepsSubnormalRecords) {
  StreamPipelineConfig config = Config();
  ASSERT_TRUE(CreateDirectories(config.checkpoint_dir).ok());
  {
    auto spool = AppendFile::Open(config.checkpoint_dir + "/spool.log");
    ASSERT_TRUE(spool.ok());
    ASSERT_TRUE(spool->Append("s 4.9406564584124654e-324 1 2 .\n").ok());
    ASSERT_TRUE(spool->Append("s 5e-324 -2.2250738585072009e-308 3 .\n").ok());
    ASSERT_TRUE(spool->Append("s 0.25 0.5 0.75 .\n").ok());
    ASSERT_TRUE(spool->Sync().ok());
  }
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->spool_recovered, 3u);
  EXPECT_EQ(stats->spool_replayed, 3u);
  EXPECT_EQ(stats->applied, 3u);
  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ((*pipeline)->records_seen(), 3u);
}

TEST_F(PipelineTest, WatchdogTripsBreakerOnStalledBatch) {
  StreamPipelineConfig config = Config();
  config.batch_deadline_ms = 30.0;
  config.breaker.open_duration_ms = 20.0;
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());
  // Stall the condenser: every journal fsync takes 25ms for a while.
  FailPoint::Arm("io.sync", {.fail_at = 1,
                             .repeat = static_cast<std::size_t>(-1),
                             .mode = FailPointMode::kLatency,
                             .latency_ms = 25.0});
  for (const Vector& record : Stream(24, 7)) {
    ASSERT_TRUE((*pipeline)->Submit(record).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  FailPoint::Disarm("io.sync");
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->watchdog_stalls, 0u);
  EXPECT_GT(stats->breaker_trips, 0u);
  EXPECT_EQ(stats->applied, 24u);  // stalled records spool, then drain
  EXPECT_TRUE(stats->Balanced());
}

// The deadline is checked after every record, the batch's last one
// included: a batch whose final record alone runs it past the deadline
// still books the stall and trips the breaker, so the next batch spools
// and then drains once the breaker's probes pass.
TEST_F(PipelineTest, OverrunOnABatchsLastRecordStillTripsTheBreaker) {
  StreamPipelineConfig config = Config();
  config.batch_size = 4;
  config.batch_deadline_ms = 100.0;
  config.breaker.open_duration_ms = 300.0;
  // The observer runs on the worker after each batch; holding the first
  // call lets the test queue two full batches before the worker pops.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> observed{0};
  config.group_observer = [&](const core::CondensedGroupSet&, std::size_t) {
    if (observed.fetch_add(1) == 0) {
      entered.set_value();
      released.wait();
    }
  };
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const std::vector<Vector> stream = Stream(9, 21);
  ASSERT_TRUE((*pipeline)->Submit(stream[0]).ok());
  entered.get_future().wait();

  // The next four journal fsyncs belong to the held-back batch; only the
  // fourth, its last record's, stalls past the deadline.
  FailPoint::Arm("io.sync", {.fail_at = 4,
                             .mode = FailPointMode::kLatency,
                             .latency_ms = 250.0});
  for (std::size_t i = 1; i < stream.size(); ++i) {
    ASSERT_TRUE((*pipeline)->Submit(stream[i]).ok());
  }
  release.set_value();
  ASSERT_TRUE((*pipeline)->Flush(10000.0).ok());
  const StreamPipelineStats live = (*pipeline)->stats();
  EXPECT_EQ(live.watchdog_stalls, 1u);
  EXPECT_EQ(live.breaker_trips, 1u);
  // The overrunning record was applied before the check; the batch after
  // it met an open breaker and spooled.
  EXPECT_EQ(live.spooled, 4u);

  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->watchdog_stalls, 1u);
  EXPECT_EQ(stats->spool_replayed, 4u);
  EXPECT_EQ(stats->spool_remaining, 0u);
  EXPECT_EQ(stats->applied, stream.size());
  EXPECT_TRUE(stats->Balanced());
}

TEST_F(PipelineTest, RejectPolicySurfacesBackpressureToProducer) {
  StreamPipelineConfig config = Config();
  config.queue_capacity = 2;
  config.backpressure = BackpressurePolicy::kReject;
  // Slow the worker so the queue actually fills.
  FailPoint::Arm("io.sync", {.fail_at = 1,
                             .repeat = static_cast<std::size_t>(-1),
                             .mode = FailPointMode::kLatency,
                             .latency_ms = 10.0});
  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok());
  std::size_t rejected = 0;
  for (const Vector& record : Stream(60, 8)) {
    Status status = (*pipeline)->Submit(record);
    if (IsResourceExhausted(status)) {
      ++rejected;
    } else {
      ASSERT_TRUE(status.ok());
    }
  }
  FailPoint::Disarm("io.sync");
  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(stats->rejected, rejected);
  EXPECT_EQ(stats->accepted, 60u - rejected);
  EXPECT_LE(stats->queue_high_water, 2u);
  EXPECT_TRUE(stats->Balanced());
}

}  // namespace
}  // namespace condensa::runtime
