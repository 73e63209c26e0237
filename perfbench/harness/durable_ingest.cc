// durable_ingest: the paper's dynamic group maintenance (Figs. 2-4)
// under the crash-safety contract. One producer inserts a fixed count of
// records through DurableCondenser::Insert in a closed loop; an ack means
// the record is journaled and fsync'd (sync_every_append stays on), and
// every snapshot_interval appends the full state is snapshotted.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/random.h"
#include "core/checkpointing.h"
#include "core/dynamic_condenser.h"
#include "core/serialization.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kDim = 10;
constexpr std::size_t kGroupSize = 10;
constexpr std::size_t kComponents = 4;
constexpr std::size_t kPrefix = 1000;
// Inserts per round. 5000 + the warm-up insert leaves a journal tail of
// 905 records after the fourth snapshot, so Recover has a tail to replay.
constexpr std::size_t kInserts = 5000;

condensa::core::DynamicCondenserOptions CondenserOptions() {
  condensa::core::DynamicCondenserOptions options;
  options.group_size = kGroupSize;
  return options;
}

condensa::core::DurabilityOptions Durability() {
  condensa::core::DurabilityOptions durability;  // default interval 1024
  durability.sync_every_append = true;
  return durability;
}

// One round; per-insert costs are CPU microseconds of the ingest thread
// and wall-clock microseconds, both with the time inside fsync taken out
// (the fsyncs are counted exactly in io_calls_per_op).
struct Round {
  double ops = static_cast<double>(kInserts);
  double setup_cpu_s = 0.0;
  Cost loop;
  double accounted_wall_s = 0.0;  // sum of per-insert wall times
  std::vector<double> latencies_us;
  std::vector<double> wall_us;
  std::vector<double> append_us;  // inserts that did not roll a snapshot
  std::vector<double> stall_us;   // inserts that rolled a snapshot
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
  std::uint64_t fsyncs = 0;  // every fsync call, snapshots' included
  double recover_s = 0.0;
  std::uint64_t replayed = 0;
};

}  // namespace

Outcome RunDurableIngest(const RunOptions& options) {
  Outcome outcome;
  const condensa::data::Dataset data = MakeRecords(
      kPrefix + 1 + kInserts, kDim, kComponents, /*labeled=*/false,
      options.seed);
  const std::vector<condensa::linalg::Vector>& all = data.records();
  const std::vector<condensa::linalg::Vector> prefix(all.begin(),
                                                     all.begin() + kPrefix);
  const condensa::linalg::Vector& warm_record = all[kPrefix];
  const std::size_t first = kPrefix + 1;

  double mu = 0.0;
  auto run_round = [&](std::size_t index) -> std::optional<Round> {
    const std::string dir =
        options.work_dir + "/round-" + std::to_string(index);
    Round r;
    condensa::StatusOr<condensa::core::DurableCondenser> durable =
        condensa::InternalError("not run");
    condensa::Status boot;
    r.setup_cpu_s = Timed("setup.create_bootstrap", [&] {
                      durable = condensa::core::DurableCondenser::Create(
                          kDim, CondenserOptions(), Durability(), dir);
                      if (!durable.ok()) return;
                      condensa::Rng rng(options.seed);
                      boot = durable->Bootstrap(prefix, rng);
                    }, CpuClock::kThread).cpu;
    if (!durable.ok() || !boot.ok()) {
      outcome.Fail("set-up: " + (durable.ok() ? boot.ToString()
                                              : durable.status().ToString()));
      return std::nullopt;
    }
    if (!durable->Insert(warm_record).ok()) {
      outcome.Fail("warm-up insert failed");
      return std::nullopt;
    }

    const CounterDeltas counters({"condensa_checkpoint_snapshot_bytes_total",
                                  "condensa_checkpoint_journal_bytes_total",
                                  "condensa_checkpoint_journal_fsyncs_total"});
    const IoCalls io;
    r.latencies_us.reserve(kInserts);
    r.wall_us.reserve(kInserts);
    std::size_t acked = 0;
    r.loop = Timed("core.durable_ingest_round", [&] {
      for (std::size_t i = first; i < all.size(); ++i) {
        const std::size_t sequence = durable->snapshot_sequence();
        condensa::Status status;
        const Cost cost = Timed("core.durable_insert",
                                [&] { status = durable->Insert(all[i]); },
                                CpuClock::kThread);
        const double us = 1e6 * cost.cpu;
        r.accounted_wall_s += cost.wall;
        ++outcome.attempted;
        if (!status.ok()) {
          ++outcome.failed;
          outcome.Fail("insert: " + status.ToString());
          continue;
        }
        ++acked;
        r.latencies_us.push_back(us);
        r.wall_us.push_back(1e6 * cost.WallLessFsync());
        (durable->snapshot_sequence() == sequence ? r.append_us : r.stall_us)
            .push_back(us);
      }
    }, CpuClock::kThread);
    r.snapshot_bytes =
        counters.Delta("condensa_checkpoint_snapshot_bytes_total");
    r.journal_bytes = counters.Delta("condensa_checkpoint_journal_bytes_total");
    r.journal_fsyncs =
        counters.Delta("condensa_checkpoint_journal_fsyncs_total");
    r.fsyncs = io.Fsyncs();

    // Recovery must rebuild exactly the acknowledged state.
    const std::size_t seen = durable->records_seen();
    const std::string live =
        condensa::core::SerializeGroupSet(durable->groups());
    if (index == 0) {
      condensa::StatusOr<double> m =
          ReleaseMu(durable->groups(), data, options.seed);
      if (m.ok()) {
        mu = *m;
      } else {
        outcome.Fail("release mu: " + m.status().ToString());
      }
    }
    durable = condensa::InternalError("closed");
    const CounterDeltas replay(
        {"condensa_checkpoint_recovery_replayed_records_total"});
    condensa::StatusOr<condensa::core::DurableCondenser> recovered =
        condensa::InternalError("not run");
    r.recover_s = Timed("core.recover", [&] {
                    recovered = condensa::core::DurableCondenser::Recover(
                        dir, CondenserOptions(), Durability());
                  }, CpuClock::kThread).cpu;
    r.replayed =
        replay.Delta("condensa_checkpoint_recovery_replayed_records_total");
    if (!recovered.ok()) {
      outcome.Fail("recover: " + recovered.status().ToString());
    } else if (recovered->records_seen() != seen ||
               seen != kPrefix + 1 + acked) {
      outcome.Fail("recovered records_seen " +
                   std::to_string(recovered->records_seen()) +
                   ", inserted " + std::to_string(kPrefix + 1 + acked));
    } else if (condensa::core::SerializeGroupSet(recovered->groups()) !=
               live) {
      outcome.Fail("recovered group set differs from the in-memory one");
    }
    recovered = condensa::InternalError("closed");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return r;
  };
  std::vector<Round> untraced, traced;
  if (!RunRounds(options.seconds, options.trace, 1, run_round, &untraced,
                 &traced)) {
    return outcome;
  }
  const Round& first_round = untraced.front();
  const double record_bytes = static_cast<double>(kInserts * kDim * 8);

  if (!options.trace) {
    std::vector<double> setups, p50s, wall_p50s;
    std::vector<std::vector<double>> rounds_us;
    for (const Round& r : untraced) {
      setups.push_back(r.setup_cpu_s);
      p50s.push_back(Median(r.latencies_us));
      wall_p50s.push_back(Median(r.wall_us));
      rounds_us.push_back(r.latencies_us);
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
                     record_bytes;
    v["release_mu"] = mu;
    std::fprintf(stderr, "durable_ingest: %zu rounds of %zu inserts\n",
                 untraced.size(), kInserts);
    return outcome;
  }

  // In-memory twin: the same records through a DynamicCondenser, to
  // separate condenser upkeep from journaling.
  condensa::core::DynamicCondenser memory(kDim, CondenserOptions());
  condensa::Rng rng(options.seed);
  std::vector<double> memory_us;
  std::uint64_t rebuilds = 0;
  std::size_t splits = 0;
  if (!memory.Bootstrap(prefix, rng).ok() ||
      !memory.Insert(warm_record).ok()) {
    outcome.Fail("in-memory condenser set-up failed");
  } else {
    const std::size_t splits0 = memory.split_count();
    const CounterDeltas index({"condensa_centroid_index_rebuilds_total"});
    for (std::size_t i = first; i < all.size(); ++i) {
      condensa::Status status;
      memory_us.push_back(1e6 * Timed("core.dynamic_insert", [&] {
                                  status = memory.Insert(all[i]);
                                }, CpuClock::kThread).cpu);
      if (!status.ok()) outcome.Fail("in-memory insert: " + status.ToString());
    }
    splits = memory.split_count() - splits0;
    rebuilds = index.Delta("condensa_centroid_index_rebuilds_total");
  }

  std::vector<double> append, stall, stall_max, coverage, wall_coverage,
      recover, replay;
  for (const Round& r : traced) {
    append.insert(append.end(), r.append_us.begin(), r.append_us.end());
    stall.insert(stall.end(), r.stall_us.begin(), r.stall_us.end());
    stall_max.push_back(r.stall_us.empty()
                            ? 0.0
                            : *std::max_element(r.stall_us.begin(),
                                                r.stall_us.end()));
    double accounted = 0.0;
    for (double us : r.latencies_us) accounted += us;
    coverage.push_back(accounted / (1e6 * r.loop.cpu));
    wall_coverage.push_back(r.accounted_wall_s / r.loop.wall);
    recover.push_back(r.recover_s);
    replay.push_back(static_cast<double>(r.replayed) / r.recover_s);
  }
  auto& v = outcome.values;
  v["core.checkpointing.append_p50_us"] = Median(append);
  v["core.checkpointing.snapshot_stall_p50_us"] = Median(stall);
  v["core.checkpointing.snapshot_stall_max_us"] = Median(stall_max);
  v["core.checkpointing.snapshot_bytes"] =
      static_cast<double>(first_round.snapshot_bytes);
  v["core.checkpointing.journal_bytes"] =
      static_cast<double>(first_round.journal_bytes);
  v["core.checkpointing.fsyncs_per_record"] =
      static_cast<double>(first_round.journal_fsyncs) / first_round.ops;
  v["core.checkpointing.recover_s"] = Median(recover);
  v["core.checkpointing.replay_records_per_s"] = Median(replay);
  v["core.dynamic.insert_p50_us"] = Median(memory_us);
  v["core.dynamic.splits"] = static_cast<double>(splits);
  v["core.centroid_index.rebuilds"] = static_cast<double>(rebuilds);
  v["bench.layer_coverage"] = Median(coverage);
  v["bench.layer_wall_coverage"] = Median(wall_coverage);
  AddTraceOverhead(untraced, traced, &v);
  return outcome;
}

void AddDurableLayers(const RunOptions& options, double seconds,
                      Outcome* outcome) {
  RunOptions durable = options;
  durable.seconds = seconds;
  durable.work_dir = options.work_dir + "/durable";
  const Outcome d = RunDurableIngest(durable);
  for (const char* name : {"core.checkpointing.append_p50_us",
                           "core.checkpointing.snapshot_stall_p50_us",
                           "core.checkpointing.snapshot_stall_max_us",
                           "core.checkpointing.recover_s",
                           "core.checkpointing.replay_records_per_s",
                           "core.dynamic.insert_p50_us",
                           "bench.layer_coverage"}) {
    auto it = d.values.find(name);
    if (it != d.values.end()) outcome->values[name] = it->second;
  }
  outcome->attempted += d.attempted;
  outcome->failed += d.failed;
  for (const std::string& error : d.errors) {
    outcome->Fail("durable_ingest: " + error);
  }
}

}  // namespace perfbench
