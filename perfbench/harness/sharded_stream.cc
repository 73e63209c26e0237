// sharded_stream: the only workload through the shard router/gather and
// the runtime queue. One producer submits a fixed count of records to a
// ShardedStreamService (hash policy, durable shards with fsync on every
// append, default 1024-record queue per shard, which blocks the producer
// when full), then Finish gathers the shard-local groups under the
// global k-floor.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "shard/stream_service.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kDim = 10;
constexpr std::size_t kGroupSize = 10;
constexpr std::size_t kComponents = 4;
// Records per round, after the one warm-up record. Hashed over two
// shards, each shard gets about 1500: one snapshot roll (every 1024
// appends) whatever the seed, and more than the default queue capacity
// of 1024, so the producer fills a queue and then waits on the shard's
// fsyncs (backpressure).
constexpr std::size_t kRecords = 3000;

// One round; submit costs are CPU microseconds of the producer thread
// and wall-clock microseconds (the wait for queue space included); the
// loop and Finish costs count the CPU of every thread.
struct Round {
  double ops = static_cast<double>(kRecords);
  double setup_cpu_s = 0.0;
  Cost loop;
  double finish_cpu_s = 0.0;
  double accounted_wall_s = 0.0;  // submits + Finish, wall clock
  std::vector<double> submit_us;
  std::vector<double> submit_wall_us;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshots = 0;
  double snapshot_s = 0.0;
  std::uint64_t journal_fsyncs = 0;
  std::uint64_t fsyncs = 0;  // every fsync call of every shard
  std::uint64_t gather_merges = 0;
  std::uint64_t gather_splits = 0;
  std::uint64_t dynamic_splits = 0;
  std::uint64_t index_rebuilds = 0;
  std::size_t queue_high_water = 0;
  double skew = 0.0;
};

const condensa::obs::Histogram& SnapshotSeconds() {
  return condensa::obs::DefaultRegistry().GetHistogram(
      "condensa_checkpoint_snapshot_seconds");
}

}  // namespace

Outcome RunShardedStream(const RunOptions& options) {
  Outcome outcome;
  // Fewer shards than hardware threads, so the producer keeps a core.
  const std::size_t shards = std::clamp<std::size_t>(
      options.hardware_threads > 1 ? options.hardware_threads - 1 : 1, 1, 2);
  const condensa::data::Dataset data = MakeRecords(
      kRecords + 1, kDim, kComponents, /*labeled=*/false, options.seed);
  const std::vector<condensa::linalg::Vector>& records = data.records();

  double mu = 0.0;
  auto run_round = [&](std::size_t index) -> std::optional<Round> {
    condensa::shard::ShardedStreamConfig config;
    config.num_shards = shards;
    config.policy = condensa::shard::ShardPolicy::kHash;
    config.dim = kDim;
    config.group_size = kGroupSize;
    config.checkpoint_root =
        options.work_dir + "/round-" + std::to_string(index);
    config.sync_every_append = true;
    config.seed = options.seed;

    Round r;
    condensa::StatusOr<std::unique_ptr<condensa::shard::ShardedStreamService>>
        service = condensa::InternalError("not run");
    r.setup_cpu_s = Timed("setup.start", [&] {
                      service =
                          condensa::shard::ShardedStreamService::Start(config);
                    }).cpu;
    if (!service.ok()) {
      outcome.Fail("start: " + service.status().ToString());
      return std::nullopt;
    }
    condensa::shard::ShardedStreamService& stream = **service;
    if (!stream.Submit(records[0]).ok()) {
      outcome.Fail("warm-up submit failed");
      return std::nullopt;
    }
    // Let a shard apply the warm-up record before the counters are read,
    // so its journal write and fsync stay out of the exact counts.
    const Clock::time_point warm = Clock::now();
    std::size_t applied = 0;
    while (applied == 0 && SecondsSince(warm) < 10.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (const auto& s : stream.stats()) applied += s.applied;
    }
    if (applied != 1) {
      outcome.Fail("the warm-up record was not applied");
      return std::nullopt;
    }

    const CounterDeltas counters(
        {"condensa_checkpoint_snapshot_bytes_total",
         "condensa_checkpoint_journal_bytes_total",
         "condensa_checkpoint_journal_fsyncs_total",
         "condensa_shard_gather_merges_total",
         "condensa_shard_gather_splits_total", "condensa_dynamic_splits_total",
         "condensa_centroid_index_rebuilds_total"});
    const std::uint64_t snapshots0 = SnapshotSeconds().count();
    const double snapshot_s0 = SnapshotSeconds().sum();
    const IoCalls io;
    r.submit_us.reserve(kRecords);
    r.submit_wall_us.reserve(kRecords);
    condensa::StatusOr<condensa::shard::ShardedStreamResult> result =
        condensa::InternalError("not run");
    r.loop = Timed("shard.round", [&] {
      for (std::size_t i = 1; i < records.size(); ++i) {
        condensa::Status status;
        const Cost cost = Timed("shard.submit",
                                [&] { status = stream.Submit(records[i]); },
                                CpuClock::kThread);
        r.accounted_wall_s += cost.wall;
        ++outcome.attempted;
        if (!status.ok()) {
          ++outcome.failed;
          outcome.Fail("submit: " + status.ToString());
          continue;
        }
        r.submit_us.push_back(1e6 * cost.cpu);
        r.submit_wall_us.push_back(1e6 * cost.WallLessFsync());
      }
      const Cost finish =
          Timed("shard.finish", [&] { result = stream.Finish(); });
      r.finish_cpu_s = finish.cpu;
      r.accounted_wall_s += finish.wall;
    });
    r.fsyncs = io.Fsyncs();
    r.snapshot_bytes =
        counters.Delta("condensa_checkpoint_snapshot_bytes_total");
    r.journal_bytes = counters.Delta("condensa_checkpoint_journal_bytes_total");
    r.journal_fsyncs =
        counters.Delta("condensa_checkpoint_journal_fsyncs_total");
    r.snapshots = SnapshotSeconds().count() - snapshots0;
    r.snapshot_s = SnapshotSeconds().sum() - snapshot_s0;
    r.gather_merges = counters.Delta("condensa_shard_gather_merges_total");
    r.gather_splits = counters.Delta("condensa_shard_gather_splits_total");
    r.dynamic_splits = counters.Delta("condensa_dynamic_splits_total");
    r.index_rebuilds = counters.Delta("condensa_centroid_index_rebuilds_total");

    if (!result.ok()) {
      outcome.Fail("finish: " + result.status().ToString());
      return std::nullopt;
    }
    const std::size_t submitted = r.submit_us.size() + 1;
    if (!result->Balanced()) outcome.Fail("shard ledger not balanced");
    if (result->TotalApplied() != submitted) {
      outcome.Fail("applied " + std::to_string(result->TotalApplied()) +
                   " of " + std::to_string(submitted) + " submitted");
    }
    if (result->groups.TotalRecords() != submitted) {
      outcome.Fail("gathered groups hold " +
                   std::to_string(result->groups.TotalRecords()) +
                   " records, submitted " + std::to_string(submitted));
    }
    for (const auto& group : result->groups.groups()) {
      if (group.count() < kGroupSize) {
        outcome.Fail("gathered group below the k-floor");
        break;
      }
    }
    std::size_t max_applied = 0, total_applied = 0;
    for (const auto& s : result->shard_stats) {
      max_applied = std::max(max_applied, s.applied);
      total_applied += s.applied;
      r.queue_high_water = std::max(r.queue_high_water, s.queue_high_water);
    }
    r.skew = total_applied > 0 ? static_cast<double>(max_applied) * shards /
                                     static_cast<double>(total_applied)
                               : 0.0;
    if (index == 0) {
      condensa::StatusOr<double> m =
          ReleaseMu(result->groups, data, options.seed);
      if (m.ok()) {
        mu = *m;
      } else {
        outcome.Fail("release mu: " + m.status().ToString());
      }
    }
    service = condensa::InternalError("closed");
    std::error_code ec;
    std::filesystem::remove_all(config.checkpoint_root, ec);
    return r;
  };
  std::vector<Round> untraced, traced;
  if (!RunRounds(options.seconds, options.trace, 1, run_round, &untraced,
                 &traced)) {
    return outcome;
  }
  const Round& first_round = untraced.front();

  if (!options.trace) {
    std::vector<double> setups, p50s, wall_p50s;
    std::vector<std::vector<double>> rounds_us;
    for (const Round& r : untraced) {
      setups.push_back(r.setup_cpu_s);
      p50s.push_back(Median(r.submit_us));
      wall_p50s.push_back(Median(r.submit_wall_us));
      rounds_us.push_back(r.submit_us);
    }
    auto& v = outcome.values;
    v["setup_s"] = Median(setups);
    v["ops_per_s"] = MedianOpsPerSecond(untraced, &Cost::cpu);
    MedianOpsPerSecond(untraced, &Cost::wall);  // logged for comparison only
    v["latency_p50_us"] = Median(p50s);
    AddTail(rounds_us, &v);
    v["wall_latency_p50_us"] = Median(wall_p50s);
    v["io_calls_per_op"] =
        static_cast<double>(first_round.fsyncs) / first_round.ops;
    v["write_amp"] = static_cast<double>(first_round.snapshot_bytes +
                                         first_round.journal_bytes) /
                     static_cast<double>(kRecords * kDim * 8);
    v["release_mu"] = mu;
    std::fprintf(stderr,
                 "sharded_stream: %zu shards, %zu rounds of %zu records; "
                 "queue high water %zu\n",
                 shards, untraced.size(), kRecords,
                 first_round.queue_high_water);
    return outcome;
  }

  std::vector<double> submit_wall_us, finish, merges, splits, high_water,
      skew, coverage, snapshot_mean;
  for (const Round& r : traced) {
    submit_wall_us.insert(submit_wall_us.end(), r.submit_wall_us.begin(),
                          r.submit_wall_us.end());
    finish.push_back(r.finish_cpu_s);
    merges.push_back(static_cast<double>(r.gather_merges));
    splits.push_back(static_cast<double>(r.gather_splits));
    high_water.push_back(static_cast<double>(r.queue_high_water));
    skew.push_back(r.skew);
    coverage.push_back(r.accounted_wall_s / r.loop.wall);
    if (r.snapshots > 0) {
      snapshot_mean.push_back(1e6 * r.snapshot_s /
                              static_cast<double>(r.snapshots));
    }
  }
  auto& v = outcome.values;
  v["shard.submit_p99_us"] = TailPercentile(submit_wall_us, 0.99).value;
  v["shard.finish_s"] = Median(finish);
  v["shard.gather_merges"] = Median(merges);
  v["shard.gather_splits"] = Median(splits);
  v["shard.skew"] = Median(skew);
  v["runtime.queue_high_water"] = Median(high_water);
  v["core.checkpointing.fsyncs_per_record"] =
      static_cast<double>(first_round.journal_fsyncs) / first_round.ops;
  v["core.checkpointing.snapshot_bytes"] =
      static_cast<double>(first_round.snapshot_bytes);
  v["core.checkpointing.journal_bytes"] =
      static_cast<double>(first_round.journal_bytes);
  v["core.checkpointing.snapshot_mean_us"] = Median(snapshot_mean);
  v["core.dynamic.splits"] = static_cast<double>(first_round.dynamic_splits);
  v["core.centroid_index.rebuilds"] =
      static_cast<double>(first_round.index_rebuilds);
  v["bench.layer_wall_coverage"] = Median(coverage);
  AddTraceOverhead(untraced, traced, &v);
  return outcome;
}

}  // namespace perfbench
