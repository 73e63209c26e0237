// Chaos soak for the streaming pipeline runtime.
//
// Runs the full StreamPipeline against a disk that lies: probabilistic
// journal/append failures, slow fsyncs, failed snapshot rolls, and a
// condenser that occasionally reports an internal error — while several
// producer threads interleave poison records (wrong dimension, NaN)
// into an otherwise healthy stream. The pipeline's contract under all
// of that is zero silent loss: by Finish() every accepted record is
// applied, quarantined with a reason, or durably spooled, and the
// on-disk artifacts (checkpoint dir, quarantine file) agree with the
// in-memory ledger.
//
// Duration scales with CONDENSA_CHAOS_SOAK_SECONDS (default ~2s for
// developer runs; CI runs it around 60s). The test must stay clean
// under ThreadSanitizer (CONDENSA_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "core/checkpointing.h"
#include "linalg/vector.h"
#include "runtime/pipeline.h"
#include "runtime/quarantine.h"

namespace condensa::runtime {
namespace {

using linalg::Vector;

double SoakSeconds() {
  if (const char* env = std::getenv("CONDENSA_CHAOS_SOAK_SECONDS")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0) return parsed;
  }
  return 2.0;
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/condensa_chaos_" + tag;
  if (auto entries = ListDirectory(dir); entries.ok()) {
    for (const std::string& name : *entries) {
      RemoveFile(dir + "/" + name);
    }
  }
  CreateDirectories(dir);
  return dir;
}

TEST(ChaosSoakTest, NoAcknowledgedRecordIsEverLost) {
  FailPoint::Reset();
  const std::string dir = FreshDir("soak");
  constexpr std::size_t kDim = 4;
  constexpr std::size_t kGroupSize = 8;
  constexpr std::size_t kQueueCapacity = 64;

  StreamPipelineConfig config;
  config.dim = kDim;
  config.group_size = kGroupSize;
  config.checkpoint_dir = dir;
  config.snapshot_interval = 64;
  config.queue_capacity = kQueueCapacity;
  config.backpressure = BackpressurePolicy::kBlock;
  config.batch_size = 16;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ms = 0.1;
  config.retry.max_backoff_ms = 2.0;
  config.breaker.failure_threshold = 4;
  config.breaker.open_duration_ms = 25.0;
  config.finish_drain_deadline_ms = 30000.0;
  config.seed = 20260805;

  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // The disk starts lying only after the pipeline is up, so startup
  // (initial snapshot, quarantine header) is deterministic.
  FailPoint::Arm("io.append", {.code = StatusCode::kUnavailable,
                               .probability = 0.05,
                               .seed = 1});
  FailPoint::Arm("io.sync", {.mode = FailPointMode::kLatency,
                             .probability = 0.10,
                             .seed = 2,
                             .latency_ms = 2.0});
  FailPoint::Arm("checkpoint.snapshot", {.code = StatusCode::kUnavailable,
                                         .probability = 0.05,
                                         .seed = 3});
  FailPoint::Arm("dynamic.insert", {.code = StatusCode::kInternal,
                                    .probability = 0.01,
                                    .seed = 4});

  constexpr int kProducers = 3;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(SoakSeconds()));
  std::atomic<std::size_t> good_submitted{0};
  std::atomic<std::size_t> poison_submitted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + static_cast<std::uint64_t>(p));
      std::size_t sent = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        Status status;
        if (sent % 47 == 13) {
          // Wrong dimension.
          status = (*pipeline)->Submit(Vector{1.0, 2.0});
          poison_submitted.fetch_add(1, std::memory_order_relaxed);
        } else if (sent % 47 == 29) {
          Vector bad(kDim);
          bad[sent % kDim] = sent % 2 == 0
                                 ? std::nan("")
                                 : std::numeric_limits<double>::infinity();
          status = (*pipeline)->Submit(bad);
          poison_submitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          Vector record(kDim);
          for (std::size_t j = 0; j < kDim; ++j) {
            record[j] = rng.Gaussian(p % 2 == 0 ? -3.0 : 3.0, 1.0);
          }
          status = (*pipeline)->Submit(record);
          good_submitted.fetch_add(1, std::memory_order_relaxed);
        }
        ASSERT_TRUE(status.ok()) << status.ToString();
        ++sent;
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }

  // Confirm the chaos actually fired before calling the run a success.
  EXPECT_GT(FailPoint::TriggerCount("io.append"), 0u);
  EXPECT_GT(FailPoint::TriggerCount("io.sync"), 0u);

  // Heal the disk so Finish can drain the backlog and checkpoint.
  FailPoint::Reset();

  auto stats = (*pipeline)->Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  SCOPED_TRACE(stats->ToString());

  const std::size_t total_submitted =
      good_submitted.load() + poison_submitted.load();
  EXPECT_EQ(stats->submitted, total_submitted);
  EXPECT_GT(good_submitted.load(), 0u);
  EXPECT_GT(poison_submitted.load(), 0u);

  // Zero silent loss: the ledger balances, nothing was dropped (kBlock
  // never sheds), and the healed disk let the spool drain completely.
  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ(stats->dropped, 0u);
  EXPECT_EQ(stats->rejected, 0u);
  EXPECT_EQ(stats->spool_remaining, 0u);
  EXPECT_EQ(stats->applied + stats->quarantined, total_submitted);

  // Every intake poison is quarantined with the right reason; worker
  // quarantines only come from the injected internal errors.
  EXPECT_EQ(stats->quarantined_dimension + stats->quarantined_non_finite,
            poison_submitted.load());
  EXPECT_EQ(stats->quarantined, stats->quarantined_dimension +
                                    stats->quarantined_non_finite +
                                    stats->quarantined_failure);

  // Queue memory stayed bounded.
  EXPECT_LE(stats->queue_high_water, kQueueCapacity);

  // The quarantine file accounts for every quarantined record (minus
  // writes the dying disk refused even after retries — normally zero).
  auto entries = QuarantineWriter::ReadAll(dir + "/quarantine.log");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(),
            stats->quarantined - stats->quarantine_write_failures);
  EXPECT_EQ(stats->quarantine_write_failures, 0u);

  // The checkpoint directory is a faithful, recoverable record of
  // exactly the applied stream.
  const std::size_t applied = stats->applied;
  pipeline->reset();  // release the dir
  auto recovered = core::DurableCondenser::Recover(
      dir, {.group_size = kGroupSize}, {.snapshot_interval = 64});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->records_seen(), applied);
  EXPECT_EQ(recovered->condenser().groups().TotalRecords() +
                (recovered->condenser().forming().has_value()
                     ? recovered->condenser().forming()->count()
                     : 0),
            applied);
}

// A shorter variant that keeps the chaos armed straight through Finish:
// even when the disk never heals, the ledger still balances — whatever
// could not be applied is quarantined or left durably spooled, and the
// counts say so.
TEST(ChaosSoakTest, LedgerBalancesEvenWhenDiskNeverHeals) {
  FailPoint::Reset();
  const std::string dir = FreshDir("unhealed");

  StreamPipelineConfig config;
  config.dim = 3;
  config.group_size = 5;
  config.checkpoint_dir = dir;
  config.snapshot_interval = 32;
  config.queue_capacity = 32;
  config.batch_size = 8;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_ms = 0.1;
  config.retry.max_backoff_ms = 1.0;
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration_ms = 20.0;
  // Keep Finish bounded: with a still-broken disk the spool cannot fully
  // drain, and that must be reported, not hung on.
  config.finish_drain_deadline_ms = 300.0;
  config.seed = 7;

  auto pipeline = StreamPipeline::Start(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  FailPoint::Arm("checkpoint.journal_append",
                 {.code = StatusCode::kUnavailable,
                  .probability = 0.6,
                  .seed = 21});

  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    Vector record(3);
    for (std::size_t j = 0; j < 3; ++j) {
      record[j] = rng.Gaussian(0.0, 2.0);
    }
    ASSERT_TRUE((*pipeline)->Submit(record).ok());
  }

  auto stats = (*pipeline)->Finish();
  FailPoint::Reset();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  SCOPED_TRACE(stats->ToString());

  EXPECT_TRUE(stats->Balanced());
  EXPECT_EQ(stats->applied + stats->spool_remaining +
                stats->quarantined_failure,
            300u);
  // The un-drained remainder survived on disk, not just in memory.
  if (stats->spool_remaining > 0 && stats->spool_write_failures == 0) {
    auto spool = ReadFileToString(dir + "/spool.log");
    ASSERT_TRUE(spool.ok());
    EXPECT_FALSE(spool->empty());
  }
}

}  // namespace
}  // namespace condensa::runtime
