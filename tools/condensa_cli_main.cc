// condensa — command-line anonymizer.
//
// Every subcommand is one row of kCommands near the bottom of this file:
// its summary, its Run function and its flag rows (name, value hint,
// default, help, bounds). `condensa --help`, `condensa <command> --help`,
// typed flag parsing, the unknown-flag check and dispatch are all generated
// from that table. Exit codes: 0 ok, 1 runtime error, 2 usage error
// (detected before any work starts).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/checkpointing.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "data/csv.h"
#include "index/kdtree.h"
#include "metrics/compatibility.h"
#include "metrics/privacy.h"
#include "core/anonymizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/server.h"
#include "query/snapshot.h"
#include "runtime/pipeline.h"
#include "runtime/retry.h"
#include "shard/sharded_condenser.h"
#include "shard/stream_service.h"
#include "shard/worker_server.h"

namespace {

using condensa::AppendDouble;
using condensa::ParseDouble;
using condensa::ParseInt;
using condensa::StartsWith;

// Every flag value of every subcommand once parsed. Each field is filled
// from its command's flag row: the given value, else the row's default.
struct Args {
  std::string input, output, groups, checkpoint_dir, checkpoint_root,
      save_groups, points, original, anonymized, trace_out,
      local_fallback_root, mode, task, backend, policy, backpressure, format,
      op, range, workers, connect, host, worker_id;
  bool header{}, no_sync{};
  int k{}, seed{}, label_column{}, records{}, dim{}, shards{},
      snapshot_every{}, queue_capacity{}, batch_size{}, retry_attempts{},
      retry_budget{}, threads{}, port{}, wire_batch{}, neighbors{},
      records_per_group{}, retries{}, cache_capacity{}, max_sessions{};
  double batch_deadline_ms{}, chaos{}, idle_timeout_ms{}, flush_timeout_ms{},
      heartbeat_interval_ms{}, heartbeat_timeout_ms{}, timeout_ms{},
      deadline_ms{};
};

// Allowed values of a numeric flag; an open end excludes its bound.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
constexpr Range AtLeast(double lo) { return {lo}; }
constexpr Range Above(double lo) {
  return {lo, std::numeric_limits<double>::infinity(), true};
}
constexpr Range Within(double lo, double hi) { return {lo, hi}; }

using Field = std::variant<std::string Args::*, bool Args::*, int Args::*,
                           double Args::*>;

// A flag with no default must be given, with a non-empty value.
constexpr const char* kRequired = nullptr;

// One flag of one subcommand. A hint of the form `a|b|c` lists the only
// values accepted; switches (bool fields) have no hint. The default is
// parsed like a given value; bounds apply to given values only.
struct Flag {
  const char* name;
  const char* hint;
  const char* fallback;
  const char* help;
  Field field;
  Range range = {};
};

struct Command {
  const char* name;
  const char* summary;  // one line, for `condensa --help`
  const char* details;  // extra paragraph for `condensa <command> --help`
  int (*run)(const Args&);
  std::vector<Flag> flags;
};

// Resolves a --backend flag value to a built-in record. On an unknown id,
// prints the NotFound message (which lists every built-in backend) and
// returns nullptr — callers exit 2, the usage-error code.
const condensa::core::Backend* ResolveBackendFlag(const std::string& id) {
  condensa::StatusOr<const condensa::core::Backend*> resolved =
      condensa::core::FindBackend(id);
  if (!resolved.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 resolved.status().message().c_str());
    return nullptr;
  }
  return *resolved;
}

// Exit code for a service that refused to start: a configuration the
// library rejects is a usage error.
int StartupExitCode(const condensa::Status& status) {
  return status.code() == condensa::StatusCode::kInvalidArgument ? 2 : 1;
}

condensa::data::TaskType TaskFromFlag(const std::string& name) {
  if (name == "regression") return condensa::data::TaskType::kRegression;
  if (name == "none") return condensa::data::TaskType::kUnlabeled;
  return condensa::data::TaskType::kClassification;
}

condensa::shard::ShardPolicy PolicyFromFlag(const std::string& name) {
  return name == "round-robin" ? condensa::shard::ShardPolicy::kRoundRobin
                               : condensa::shard::ShardPolicy::kHash;
}

// Reads a CSV; on failure prints the error and returns nullopt, which
// callers turn into exit 1.
std::optional<condensa::data::Dataset> LoadCsv(
    const std::string& path, condensa::data::TaskType task, bool header,
    int label_column) {
  condensa::data::CsvReadOptions options;
  options.task = task;
  options.has_header = header;
  options.label_column = label_column;
  auto result = condensa::data::ReadCsv(path, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                 result.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(result->dataset);
}

// The record stream of serve-stream, shard and fabric: --input as an
// unlabeled CSV, or else --records draws of --dim attributes from two
// Gaussian blobs seeded by --seed + 1.
std::optional<std::vector<condensa::linalg::Vector>> LoadStream(
    const Args& args) {
  if (!args.input.empty()) {
    auto dataset = LoadCsv(args.input, condensa::data::TaskType::kUnlabeled,
                           args.header, -1);
    if (!dataset) return std::nullopt;
    return dataset->records();
  }
  condensa::Rng data_rng(static_cast<std::uint64_t>(args.seed) + 1);
  std::vector<condensa::linalg::Vector> stream;
  stream.reserve(static_cast<std::size_t>(args.records));
  for (int i = 0; i < args.records; ++i) {
    condensa::linalg::Vector record(static_cast<std::size_t>(args.dim));
    for (int d = 0; d < args.dim; ++d) {
      record[static_cast<std::size_t>(d)] =
          data_rng.Gaussian(i % 2 == 0 ? -3.0 : 3.0, 1.0);
    }
    stream.push_back(record);
  }
  return stream;
}

std::size_t StreamDim(const Args& args,
                      const std::vector<condensa::linalg::Vector>& stream) {
  return stream.empty() ? static_cast<std::size_t>(args.dim)
                        : stream.front().dim();
}

// Arms the --chaos failpoints: journal appends fail, fsyncs stall and the
// condenser throws internal errors, each seeded from --seed.
void ArmChaos(const Args& args) {
  const std::uint64_t chaos_seed = static_cast<std::uint64_t>(args.seed);
  condensa::FailPoint::Arm(
      "io.append", {.code = condensa::StatusCode::kUnavailable,
                    .probability = args.chaos,
                    .seed = chaos_seed + 1});
  condensa::FailPoint::Arm(
      "io.sync", {.mode = condensa::FailPointMode::kLatency,
                  .probability = args.chaos,
                  .seed = chaos_seed + 2,
                  .latency_ms = 1.0});
  condensa::FailPoint::Arm(
      "dynamic.insert", {.code = condensa::StatusCode::kInternal,
                         .probability = args.chaos / 5.0,
                         .seed = chaos_seed + 3});
  std::fprintf(stderr,
               "chaos armed: io.append/io.sync/dynamic.insert at p=%.3f\n",
               args.chaos);
}

// Writes the metrics registry to stdout in --format; empty = no dump.
void DumpRegistry(const std::string& format) {
  if (format.empty()) return;
  condensa::obs::MetricsRegistry& registry = condensa::obs::DefaultRegistry();
  std::fputs(format == "json" ? registry.DumpJson().c_str()
                              : registry.DumpPrometheusText().c_str(),
             stdout);
}

// --save-groups: writes the group statistics to `path` unless it is
// empty. Returns the exit code.
int SaveGroups(const condensa::core::CondensedGroupSet& groups,
               const std::string& path) {
  if (path.empty()) return 0;
  condensa::Status status = condensa::core::SaveGroupSet(groups, path);
  if (!status.ok()) {
    std::fprintf(stderr, "error saving %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "saved group statistics to %s\n", path.c_str());
  return 0;
}

// --output for serve-stream, shard and fabric: regenerates a release
// from the gathered groups with the sampler their stamp names and writes
// it as CSV, unless `output` is empty. Returns the exit code.
int WriteRelease(const condensa::core::CondensedGroupSet& groups,
                 condensa::Rng& rng, const std::string& output) {
  if (output.empty()) return 0;
  auto anonymized = condensa::core::Anonymizer().Generate(groups, rng);
  if (!anonymized.ok()) {
    std::fprintf(stderr, "release generation failed: %s\n",
                 anonymized.status().ToString().c_str());
    return 1;
  }
  condensa::data::Dataset release(groups.dim());
  for (condensa::linalg::Vector& record : *anonymized) {
    release.Add(std::move(record));
  }
  condensa::Status write_status = condensa::data::WriteCsv(release, output);
  if (!write_status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                 write_status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu anonymized records to %s\n",
               release.size(), output.c_str());
  return 0;
}

void PrintGroupSummary(const condensa::core::CondensedGroupSet& groups,
                       const char* indent) {
  condensa::core::PrivacySummary summary = groups.Summary();
  std::printf("%sdimension             : %zu\n", indent, groups.dim());
  std::printf("%sconfigured k          : %zu\n", indent,
              groups.indistinguishability_level());
  std::printf("%sgroups                : %zu\n", indent, summary.num_groups);
  std::printf("%srecords represented   : %zu\n", indent,
              summary.total_records);
  std::printf("%sgroup size min/avg/max: %zu / %.2f / %zu\n", indent,
              summary.min_group_size, summary.average_group_size,
              summary.max_group_size);
}

int RunCondense(const Args& args) {
  // Fail an unknown backend before any file I/O: a usage error, exit 2.
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;

  auto dataset = LoadCsv(args.input, TaskFromFlag(args.task), args.header,
                         args.label_column);
  if (!dataset) return 1;
  std::fprintf(stderr, "loaded %zu records x %zu attributes from %s\n",
               dataset->size(), dataset->dim(), args.input.c_str());

  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  condensa::core::CondensationConfig engine_config;
  engine_config.group_size = static_cast<std::size_t>(args.k);
  engine_config.mode = args.mode == "dynamic"
                           ? condensa::core::CondensationMode::kDynamic
                           : condensa::core::CondensationMode::kStatic;
  engine_config.backend = backend;
  condensa::core::CondensationEngine engine(engine_config);
  auto pools = engine.Condense(*dataset, rng);
  if (!pools.ok()) {
    std::fprintf(stderr, "condensation failed: %s\n",
                 pools.status().ToString().c_str());
    return 1;
  }
  if (!args.save_groups.empty()) {
    condensa::Status save_status =
        condensa::core::SavePools(*pools, args.save_groups);
    if (!save_status.ok()) {
      std::fprintf(stderr, "error saving %s: %s\n", args.save_groups.c_str(),
                   save_status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved pool statistics to %s\n",
                 args.save_groups.c_str());
  }

  auto result = condensa::core::GenerateRelease(*pools, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "release generation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  condensa::Status write_status =
      condensa::data::WriteCsv(result->anonymized, args.output);
  if (!write_status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", args.output.c_str(),
                 write_status.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "wrote %zu anonymized records to %s\n"
               "achieved indistinguishability level: %zu\n"
               "average group size: %.2f\n",
               result->anonymized.size(), args.output.c_str(),
               result->AchievedIndistinguishability(),
               result->AverageGroupSize());
  return 0;
}

// Regenerates a fresh release from saved pool statistics — no raw data
// needed ever again.
int RunGenerate(const Args& args) {
  auto pools = condensa::core::LoadPools(args.groups);
  if (!pools.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", args.groups.c_str(),
                 pools.status().ToString().c_str());
    return 1;
  }
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  auto result = condensa::core::GenerateRelease(*pools, rng);
  if (!result.ok()) {
    std::fprintf(stderr, "release generation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  condensa::Status write_status =
      condensa::data::WriteCsv(result->anonymized, args.output);
  if (!write_status.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", args.output.c_str(),
                 write_status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "regenerated %zu anonymized records to %s "
               "(indistinguishability level %zu)\n",
               result->anonymized.size(), args.output.c_str(),
               result->AchievedIndistinguishability());
  return 0;
}

// Streams a CSV into a crash-safe checkpointed condenser. Re-running with
// the same --checkpoint-dir resumes from the recovered state, so a stream
// can be fed in daily batches (or restarted after a crash) without losing
// acknowledged records.
int RunIngest(const Args& args) {
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;

  auto dataset = LoadCsv(args.input, condensa::data::TaskType::kUnlabeled,
                         args.header, -1);
  if (!dataset) return 1;

  const condensa::core::DurabilityOptions durability{
      .snapshot_interval = static_cast<std::size_t>(args.snapshot_every),
      .sync_every_append = !args.no_sync};
  auto durable = condensa::core::DurableCondenser::Open(
      dataset->dim(),
      {.group_size = static_cast<std::size_t>(args.k), .backend = backend},
      durability, args.checkpoint_dir);
  if (!durable.ok()) {
    std::fprintf(stderr, "error opening %s: %s\n",
                 args.checkpoint_dir.c_str(),
                 durable.status().ToString().c_str());
    return 1;
  }

  const std::size_t already_seen = durable->records_seen();
  if (already_seen > 0) {
    std::fprintf(stderr, "resuming from %s: %zu records already ingested\n",
                 args.checkpoint_dir.c_str(), already_seen);
  }
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  if (already_seen == 0 &&
      dataset->size() >= static_cast<std::size_t>(args.k)) {
    // Fresh state: bootstrap the whole batch statically (paper's initial
    // database D); later batches stream one record at a time.
    condensa::Status status = durable->Bootstrap(dataset->records(), rng);
    if (!status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
      return 1;
    }
  } else {
    for (const condensa::linalg::Vector& record : dataset->records()) {
      condensa::Status status = durable->Insert(record);
      if (!status.ok()) {
        std::fprintf(stderr, "ingest failed after %zu records: %s\n",
                     durable->records_seen() - already_seen,
                     status.ToString().c_str());
        return 1;
      }
    }
  }
  condensa::Status final_status = durable->Checkpoint();
  if (!final_status.ok()) {
    std::fprintf(stderr, "final checkpoint failed: %s\n",
                 final_status.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "ingested %zu records from %s (total %zu, snapshot %zu)\n",
               durable->records_seen() - already_seen, args.input.c_str(),
               durable->records_seen(), durable->snapshot_sequence());
  PrintGroupSummary(durable->groups(), "");
  return 0;
}

// Restores a condenser from its checkpoint directory (newest valid
// snapshot plus journal replay) and reports what survived.
int RunRecover(const Args& args) {
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;

  auto durable = condensa::core::DurableCondenser::Recover(
      args.checkpoint_dir,
      {.group_size = static_cast<std::size_t>(args.k), .backend = backend},
      condensa::core::DurabilityOptions{});
  if (!durable.ok()) {
    std::fprintf(stderr, "recovery from %s failed: %s\n",
                 args.checkpoint_dir.c_str(),
                 durable.status().ToString().c_str());
    return 1;
  }

  std::printf("checkpoint directory  : %s\n", args.checkpoint_dir.c_str());
  std::printf("snapshot sequence     : %zu\n", durable->snapshot_sequence());
  std::printf("journal records replayed: %zu\n",
              durable->appends_since_snapshot());
  std::printf("records ingested      : %zu\n", durable->records_seen());
  PrintGroupSummary(durable->groups(), "");
  return SaveGroups(durable->groups(), args.save_groups);
}

// How every sharded command ends: --save-groups, an --output release
// regenerated with `rng`, the --format registry dump, and then exit 1 if
// a shard ledger does not balance. Returns the exit code.
int ReleaseSharded(const Args& args,
                   const condensa::shard::ShardedStreamResult& result,
                   condensa::Rng& rng) {
  if (int code = SaveGroups(result.groups, args.save_groups)) return code;
  if (int code = WriteRelease(result.groups, rng, args.output)) return code;
  DumpRegistry(args.format);
  if (result.Balanced()) return 0;
  std::fprintf(stderr,
               "error: a shard ledger does not balance — records lost\n");
  return 1;
}

// Submits `stream` to a started sharded service with --chaos armed during
// ingest, finishes it and prints each shard's ledger, the gather and the
// group summary. Returns the exit code; on 0 `*result` is the run.
int IngestSharded(const Args& args,
                  condensa::shard::ShardedStreamService& service,
                  const std::vector<condensa::linalg::Vector>& stream,
                  condensa::shard::ShardedStreamResult* result) {
  if (args.chaos > 0.0) ArmChaos(args);
  for (const condensa::linalg::Vector& record : stream) {
    condensa::Status status = service.Submit(record);
    if (!status.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (args.chaos > 0.0) condensa::FailPoint::Reset();

  auto finished = service.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 finished.status().ToString().c_str());
    return 1;
  }
  *result = *std::move(finished);
  for (std::size_t shard = 0; shard < result->shard_stats.size(); ++shard) {
    std::printf("shard %zu ledger: %s\n", shard,
                result->shard_stats[shard].ToString().c_str());
  }
  std::printf("gather: %s\n", result->gather.ToString().c_str());
  PrintGroupSummary(result->groups, "");
  return 0;
}

// Runs `stream` through N durable shard pipelines gathered into one
// release (serve-stream --shards, shard --mode=stream; docs/scaling.md).
// `config` brings the checkpoint root and any queue tuning; the rest comes
// from the flags both commands share.
int StreamSharded(const Args& args,
                  const condensa::core::Backend* backend,
                  condensa::shard::ShardedStreamConfig config,
                  const std::vector<condensa::linalg::Vector>& stream,
                  condensa::shard::ShardedStreamResult* result) {
  config.num_shards = static_cast<std::size_t>(args.shards);
  config.policy = PolicyFromFlag(args.policy);
  config.dim = StreamDim(args, stream);
  config.group_size = static_cast<std::size_t>(args.k);
  config.snapshot_interval = static_cast<std::size_t>(args.snapshot_every);
  config.sync_every_append = !args.no_sync;
  config.seed = static_cast<std::uint64_t>(args.seed);
  config.backend = backend;
  auto service = condensa::shard::ShardedStreamService::Start(config);
  if (!service.ok()) {
    std::fprintf(stderr, "error starting sharded service in %s: %s\n",
                 config.checkpoint_root.c_str(),
                 service.status().ToString().c_str());
    return StartupExitCode(service.status());
  }
  return IngestSharded(args, **service, stream, result);
}

// Runs the supervised streaming runtime (docs/resilience.md): records flow
// through the bounded queue into the worker, which validates, retries with
// backoff, quarantines poison, and degrades to the durable spool when the
// circuit breaker opens — all on top of the same crash-safe checkpoint
// directory `ingest` uses. Records come from a CSV (--input) or from a
// synthetic two-blob Gaussian stream (--records/--dim). With --chaos=P the
// probabilistic failpoints fire during ingestion (journal appends fail,
// fsyncs stall, the condenser throws internal errors) and are healed before
// Finish so the spool drains; the printed ledger shows what the runtime
// absorbed. Exits nonzero if the ledger does not balance.
int RunServeStream(const Args& args) {
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;
  std::optional<std::vector<condensa::linalg::Vector>> stream =
      LoadStream(args);
  if (!stream) return 1;
  if (args.shards > 1) {
    // Backpressure/retry/deadline tuning flags apply to single-pipeline
    // mode; shards use defaults.
    condensa::shard::ShardedStreamConfig sharded;
    sharded.checkpoint_root = args.checkpoint_dir;
    sharded.queue_capacity = static_cast<std::size_t>(args.queue_capacity);
    sharded.batch_size = static_cast<std::size_t>(args.batch_size);
    condensa::shard::ShardedStreamResult result;
    if (int code =
            StreamSharded(args, backend, sharded, *stream, &result)) {
      return code;
    }
    condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
    return ReleaseSharded(args, result, rng);
  }

  condensa::runtime::StreamPipelineConfig config;
  config.dim = StreamDim(args, *stream);
  config.group_size = static_cast<std::size_t>(args.k);
  config.checkpoint_dir = args.checkpoint_dir;
  config.snapshot_interval = static_cast<std::size_t>(args.snapshot_every);
  config.sync_every_append = !args.no_sync;
  config.queue_capacity = static_cast<std::size_t>(args.queue_capacity);
  config.backpressure =
      args.backpressure == "drop-oldest"
          ? condensa::runtime::BackpressurePolicy::kDropOldest
      : args.backpressure == "reject"
          ? condensa::runtime::BackpressurePolicy::kReject
          : condensa::runtime::BackpressurePolicy::kBlock;
  config.batch_size = static_cast<std::size_t>(args.batch_size);
  config.batch_deadline_ms = args.batch_deadline_ms;
  config.retry.max_attempts = static_cast<std::size_t>(args.retry_attempts);
  config.retry_budget = static_cast<std::size_t>(args.retry_budget);
  config.seed = static_cast<std::uint64_t>(args.seed);
  config.backend = backend;

  auto pipeline = condensa::runtime::StreamPipeline::Start(config);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "error starting pipeline in %s: %s\n",
                 args.checkpoint_dir.c_str(),
                 pipeline.status().ToString().c_str());
    return StartupExitCode(pipeline.status());
  }

  // The disk starts lying only after startup (initial snapshot and the
  // quarantine header are deterministic), and heals before Finish so
  // the spool can drain — the same discipline as the chaos soak test.
  if (args.chaos > 0.0) ArmChaos(args);
  for (const condensa::linalg::Vector& record : *stream) {
    condensa::Status status = (*pipeline)->Submit(record);
    if (!status.ok()) {
      // kReject backpressure surfaces as kResourceExhausted; the ledger
      // counts the refusal and the producer moves on. Anything else
      // (e.g. Submit after Finish) is a programming error.
      if (status.code() != condensa::StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "submit failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
  }
  if (args.chaos > 0.0) condensa::FailPoint::Reset();

  auto stats = (*pipeline)->Finish();
  if (!stats.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }

  std::printf("ledger: %s\n", stats->ToString().c_str());
  PrintGroupSummary((*pipeline)->groups(), "");
  if (int code = SaveGroups((*pipeline)->groups(), args.save_groups)) {
    return code;
  }
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  if (int code = WriteRelease((*pipeline)->groups(), rng, args.output)) {
    return code;
  }
  DumpRegistry(args.format);
  if (!stats->Balanced()) {
    std::fprintf(stderr, "error: ledger does not balance — records lost\n");
    return 1;
  }
  return 0;
}

// Scatter/gather condensation (docs/scaling.md): route the records across
// N shards, condense each partition independently — in memory
// (--mode=batch) or through durable streaming pipelines (--mode=stream,
// the serve-stream --shards service) — then exact-merge the shard-local
// aggregates into one global structure.
int RunShard(const Args& args) {
  const bool stream_mode = args.mode == "stream";
  if (stream_mode && args.checkpoint_root.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-root is required with --mode=stream\n");
    return 2;
  }
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;
  std::optional<std::vector<condensa::linalg::Vector>> data =
      LoadStream(args);
  if (!data) return 1;

  // Stream mode releases from a fresh Rng(--seed), as serve-stream
  // --shards and fabric do, so one seed gives one release of one group
  // set; batch mode's condenser draws its shard streams from it first.
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  condensa::shard::ShardedStreamResult result;
  if (stream_mode) {
    condensa::shard::ShardedStreamConfig config;
    config.checkpoint_root = args.checkpoint_root;
    if (int code = StreamSharded(args, backend, config, *data, &result)) {
      return code;
    }
  } else {
    condensa::shard::ShardedCondenserConfig config;
    config.num_shards = static_cast<std::size_t>(args.shards);
    config.policy = PolicyFromFlag(args.policy);
    config.group_size = static_cast<std::size_t>(args.k);
    config.num_threads = static_cast<std::size_t>(args.threads);
    config.backend = backend;
    auto condensed =
        condensa::shard::ShardedCondenser(config).Condense(*data, rng);
    if (!condensed.ok()) {
      std::fprintf(stderr, "sharded condensation failed: %s\n",
                   condensed.status().ToString().c_str());
      return StartupExitCode(condensed.status());
    }
    for (const condensa::shard::ShardReport& report : condensed->shards) {
      std::printf("shard %zu: records=%zu groups=%zu min_group_size=%zu\n",
                  report.shard_id, report.records, report.groups,
                  report.min_group_size);
    }
    std::printf("gather: %s\n", condensed->gather.ToString().c_str());
    PrintGroupSummary(condensed->groups, "");
    result.groups = std::move(condensed->groups);
  }

  // Batch mode keeps no ledgers, so only a stream run can fail the check.
  return ReleaseSharded(args, result, rng);
}

// Runs one standalone fabric worker until a coordinator finishes it.
int RunWorker(const Args& args) {
  condensa::shard::WorkerServerConfig config;
  config.host = args.host;
  config.port = static_cast<std::uint16_t>(args.port);
  config.checkpoint_root = args.checkpoint_root;
  config.worker_id = args.worker_id;
  config.idle_timeout_ms = args.idle_timeout_ms;
  config.flush_timeout_ms = args.flush_timeout_ms;
  auto server = condensa::shard::WorkerServer::Create(std::move(config));
  if (!server.ok()) {
    std::fprintf(stderr, "error starting worker: %s\n",
                 server.status().ToString().c_str());
    return StartupExitCode(server.status());
  }
  std::printf("listening on %u\n", (*server)->port());
  std::fflush(stdout);
  condensa::Status run = (*server)->Run();
  if (!run.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", run.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "worker finished cleanly\n");
  return 0;
}

// Splits "host:port,host:port" into fabric endpoints.
bool ParseWorkerList(const std::string& text,
                     std::vector<condensa::shard::FabricEndpoint>* out) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0) {
      return false;
    }
    int port = 0;
    if (!ParseInt(entry.substr(colon + 1), &port) || port < 1 ||
        port > 65535) {
      return false;
    }
    out->push_back({entry.substr(0, colon),
                    static_cast<std::uint16_t>(port)});
    start = comma + 1;
  }
  return !out->empty();
}

// Drives a fleet of fabric workers: scatter, supervise, gather.
int RunFabric(const Args& args) {
  if (args.heartbeat_timeout_ms < args.heartbeat_interval_ms) {
    std::fprintf(stderr,
                 "error: --heartbeat-timeout-ms must be >= "
                 "--heartbeat-interval-ms\n");
    return 2;
  }
  std::vector<condensa::shard::FabricEndpoint> endpoints;
  if (!ParseWorkerList(args.workers, &endpoints)) {
    std::fprintf(stderr,
                 "error: --workers=HOST:PORT[,HOST:PORT...] is required\n");
    return 2;
  }
  const condensa::core::Backend* backend = ResolveBackendFlag(args.backend);
  if (backend == nullptr) return 2;
  std::optional<std::vector<condensa::linalg::Vector>> stream =
      LoadStream(args);
  if (!stream) return 1;

  // Shard i runs in worker i; --local-fallback-root is the checkpoint
  // root of in-process takeovers (empty: no takeover).
  condensa::shard::ShardedStreamConfig config;
  config.num_shards = endpoints.size();
  config.workers = std::move(endpoints);
  config.policy = PolicyFromFlag(args.policy);
  config.dim = StreamDim(args, *stream);
  config.group_size = static_cast<std::size_t>(args.k);
  config.checkpoint_root = args.local_fallback_root;
  config.seed = static_cast<std::uint64_t>(args.seed);
  config.backend = backend;
  config.wire_batch = static_cast<std::size_t>(args.wire_batch);
  config.heartbeat_interval_ms = args.heartbeat_interval_ms;
  config.heartbeat_timeout_ms = args.heartbeat_timeout_ms;

  auto service = condensa::shard::ShardedStreamService::Start(
      std::move(config));
  if (!service.ok()) {
    std::fprintf(stderr, "error starting fabric: %s\n",
                 service.status().ToString().c_str());
    return StartupExitCode(service.status());
  }
  condensa::shard::ShardedStreamResult result;
  if (int code = IngestSharded(args, **service, *stream, &result)) {
    return code;
  }
  std::printf("fabric: %s\n", result.report.ToString().c_str());
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  return ReleaseSharded(args, result, rng);
}

// A statistics file that parses neither way: both reasons, since only
// the format the file was written in names the real fault.
void PrintLoadError(const std::string& path, const condensa::Status& as_pools,
                    const condensa::Status& as_groups) {
  std::fprintf(stderr,
               "error reading %s: as a pools file: %s; as a group set: %s\n",
               path.c_str(), as_pools.ToString().c_str(),
               as_groups.ToString().c_str());
}

// Loads the snapshot `query` and `query-server` answer from: --groups (a
// saved pools or group-set file) or --checkpoint-dir (durable state,
// loaded read-only with group size --k). Returns the exit code.
int LoadSnapshot(const Args& args, condensa::query::QuerySnapshot* snapshot) {
  if (!args.groups.empty()) {
    // Accept either a condensa-pools file or a bare group-set file,
    // mirroring `inspect`.
    auto pools = condensa::core::LoadPools(args.groups);
    if (pools.ok()) {
      *snapshot = condensa::query::SnapshotFromPools(*pools);
      return 0;
    }
    auto groups = condensa::core::LoadGroupSet(args.groups);
    if (!groups.ok()) {
      PrintLoadError(args.groups, pools.status(), groups.status());
      return 1;
    }
    *snapshot = condensa::query::SnapshotFromGroupSet(*groups);
    return 0;
  }
  // A read-only load under the backend the checkpoint is stamped with:
  // a live writer may still be appending to the directory.
  auto durable = condensa::core::DurableCondenser::Load(
      args.checkpoint_dir, {.group_size = static_cast<std::size_t>(args.k)});
  if (!durable.ok()) {
    std::fprintf(stderr, "recovery from %s failed: %s\n",
                 args.checkpoint_dir.c_str(),
                 durable.status().ToString().c_str());
    return 1;
  }
  *snapshot = condensa::query::SnapshotFromGroupSet(durable->groups());
  snapshot->records_seen = durable->records_seen();
  return 0;
}

// Prints a query answer; regenerated records go to `output` as CSV, or to
// stdout when it is empty. Returns the exit code.
int PrintQueryResult(const condensa::query::Query& query,
                     const condensa::query::QueryResult& result,
                     const std::string& output) {
  switch (result.kind) {
    case condensa::query::QueryKind::kClassify: {
      for (std::size_t i = 0; i < result.classify.labels.size(); ++i) {
        std::printf("point %zu: label %d\n", i, result.classify.labels[i]);
      }
      break;
    }
    case condensa::query::QueryKind::kAggregate: {
      const auto& agg = result.aggregate;
      std::printf("groups matched        : %llu\n",
                  static_cast<unsigned long long>(agg.groups_matched));
      std::printf("records               : %llu\n",
                  static_cast<unsigned long long>(agg.records));
      if (agg.has_moments) {
        std::printf("mean                  :");
        for (std::size_t d = 0; d < agg.mean.dim(); ++d) {
          std::printf(" %.6g", agg.mean[d]);
        }
        std::printf("\nvariance              :");
        for (std::size_t d = 0; d < agg.mean.dim(); ++d) {
          std::printf(" %.6g", agg.covariance(d, d));
        }
        std::printf("\n");
      }
      break;
    }
    case condensa::query::QueryKind::kRegenerate: {
      const auto& regen = result.regenerate;
      std::fprintf(stderr,
                   "regenerated %zu records from %llu groups "
                   "(seed %llu)\n",
                   regen.records.size(),
                   static_cast<unsigned long long>(regen.groups_matched),
                   static_cast<unsigned long long>(
                       query.regenerate.seed));
      if (!output.empty()) {
        condensa::data::Dataset dataset(
            regen.records.empty() ? 0 : regen.records.front().dim());
        for (const auto& record : regen.records) dataset.Add(record);
        condensa::Status status = condensa::data::WriteCsv(dataset, output);
        if (!status.ok()) {
          std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                       status.ToString().c_str());
          return 1;
        }
      } else {
        // The CSV writer's number form: shortest round-trip digits.
        std::string line;
        for (const auto& record : regen.records) {
          line.clear();
          for (std::size_t d = 0; d < record.dim(); ++d) {
            if (d > 0) line.push_back(',');
            AppendDouble(line, record[d]);
          }
          line.push_back('\n');
          std::fwrite(line.data(), 1, line.size(), stdout);
        }
      }
      break;
    }
  }
  std::fprintf(stderr, "answered from snapshot version %llu\n",
               static_cast<unsigned long long>(result.snapshot_version));
  return 0;
}

// One-shot mining queries against condensed statistics: a saved groups
// file, a checkpoint directory, or a running query-server (--connect).
int RunQuery(const Args& args) {
  const int sources = (args.groups.empty() ? 0 : 1) +
                      (args.checkpoint_dir.empty() ? 0 : 1) +
                      (args.connect.empty() ? 0 : 1);
  if (sources != 1) {
    std::fprintf(stderr,
                 "error: exactly one of --groups, --checkpoint-dir, or "
                 "--connect is required\n");
    return 2;
  }

  condensa::query::Query query;
  query.kind = args.op == "classify" ? condensa::query::QueryKind::kClassify
               : args.op == "regenerate"
                   ? condensa::query::QueryKind::kRegenerate
                   : condensa::query::QueryKind::kAggregate;
  if (query.kind == condensa::query::QueryKind::kClassify &&
      args.points.empty()) {
    std::fprintf(stderr, "error: --points is required for --op=classify\n");
    return 2;
  }
  auto range = condensa::query::ParseRangeSpec(args.range);
  if (!range.ok()) {
    std::fprintf(stderr, "error: bad --range: %s\n",
                 range.status().ToString().c_str());
    return 2;
  }
  query.classify.neighbors = static_cast<std::size_t>(args.neighbors);
  query.aggregate.range = *range;
  query.regenerate.range = *range;
  query.regenerate.seed = static_cast<std::uint64_t>(args.seed);
  query.regenerate.records_per_group =
      static_cast<std::size_t>(args.records_per_group);

  if (!args.points.empty()) {
    auto dataset = LoadCsv(args.points, condensa::data::TaskType::kUnlabeled,
                           args.header, -1);
    if (!dataset) return 1;
    query.classify.points = dataset->records();
  }

  condensa::StatusOr<condensa::query::QueryResult> result =
      condensa::InternalError("unreachable");
  if (!args.connect.empty()) {
    const std::string& connect = args.connect;
    const std::size_t colon = connect.rfind(':');
    int port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseInt(connect.substr(colon + 1), &port) || port < 1 ||
        port > 65535) {
      std::fprintf(stderr, "error: bad --connect '%s' (want HOST:PORT)\n",
                   connect.c_str());
      return 2;
    }
    // The initial dial shares the retry budget: a server mid-restart is
    // exactly the case --retries exists for.
    const auto dial_started = std::chrono::steady_clock::now();
    condensa::Rng dial_rng(1);
    condensa::runtime::RetryPolicy dial_backoff;
    dial_backoff.initial_backoff_ms = 50.0;
    dial_backoff.max_backoff_ms = 1000.0;
    auto client = condensa::query::QueryClient::Connect(
        connect.substr(0, colon), static_cast<std::uint16_t>(port),
        args.timeout_ms);
    for (std::size_t attempt = 1;
         !client.ok() && attempt < static_cast<std::size_t>(args.retries);
         ++attempt) {
      double wait_ms =
          condensa::runtime::BackoffDelayMs(dial_backoff, attempt, dial_rng);
      if (args.deadline_ms > 0) {
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - dial_started)
                .count();
        const double remaining_ms = args.deadline_ms - elapsed_ms;
        if (remaining_ms <= 0) break;
        if (wait_ms > remaining_ms) wait_ms = remaining_ms;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
      client = condensa::query::QueryClient::Connect(
          connect.substr(0, colon), static_cast<std::uint16_t>(port),
          args.timeout_ms);
    }
    if (!client.ok()) {
      std::fprintf(stderr, "error connecting to %s: %s\n", connect.c_str(),
                   client.status().ToString().c_str());
      return 1;
    }
    query.deadline_ms = args.deadline_ms;
    condensa::query::QueryRetryOptions retry;
    retry.max_attempts = static_cast<std::size_t>(args.retries);
    retry.deadline_ms = args.deadline_ms;
    result = client->ExecuteWithRetry(query, retry);
  } else {
    condensa::query::QuerySnapshot snapshot;
    if (int code = LoadSnapshot(args, &snapshot)) return code;
    condensa::query::QueryEngine engine;
    result = engine.Execute(
        snapshot, query,
        condensa::query::ExecutionContext::WithBudgetMs(args.deadline_ms));
  }
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  return PrintQueryResult(query, *result, args.output);
}

// Long-lived read-side server: loads condensed state once, then answers
// framed Query requests until killed.
int RunQueryServer(const Args& args) {
  if (args.groups.empty() == args.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: exactly one of --groups or --checkpoint-dir is "
                 "required\n");
    return 2;
  }

  condensa::query::QuerySnapshot snapshot;
  if (int code = LoadSnapshot(args, &snapshot)) return code;
  auto store = std::make_shared<condensa::query::SnapshotStore>();
  store->Publish(std::move(snapshot));

  condensa::query::QueryServerConfig config;
  config.host = args.host;
  config.port = static_cast<std::uint16_t>(args.port);
  config.idle_timeout_ms = args.idle_timeout_ms;
  config.max_sessions = static_cast<std::size_t>(args.max_sessions);
  config.default_deadline_ms = args.deadline_ms;
  config.engine.eigen_cache_capacity =
      static_cast<std::size_t>(args.cache_capacity);
  auto server =
      condensa::query::QueryServer::Create(std::move(config), store);
  if (!server.ok()) {
    std::fprintf(stderr, "error starting query server: %s\n",
                 server.status().ToString().c_str());
    return StartupExitCode(server.status());
  }
  std::printf("listening on %u\n", (*server)->port());
  std::fflush(stdout);
  condensa::Status run = (*server)->Run();
  if (!run.ok()) {
    std::fprintf(stderr, "query server failed: %s\n",
                 run.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "query server finished cleanly\n");
  return 0;
}

int RunInspect(const Args& args) {
  const std::string& path = args.groups;
  auto bytes = condensa::ReadFileToString(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                 bytes.status().ToString().c_str());
    return 1;
  }
  const char* format = condensa::core::IsBinaryStatisticsFile(*bytes)
                           ? "v2 binary"
                           : "v1 text";
  const auto print_stamp = [](const condensa::core::CondensedGroupSet& groups,
                              const char* indent) {
    std::printf("%sbackend               : %s %d\n", indent,
                groups.backend_id().c_str(), groups.backend_version());
  };
  // Accept either a condensa-pools file (engine output) or a bare
  // condensa-groups file.
  auto pools = condensa::core::DeserializePools(*bytes);
  if (pools.ok()) {
    const char* task_name =
        pools->task == condensa::data::TaskType::kClassification
            ? "classification"
            : (pools->task == condensa::data::TaskType::kRegression
                   ? "regression"
                   : "none");
    std::printf("pool statistics file  : %s\n", path.c_str());
    std::printf("format                : %s\n", format);
    std::printf("task                  : %s\n", task_name);
    std::printf("feature dimension     : %zu\n", pools->feature_dim);
    std::printf("pools                 : %zu\n", pools->pools.size());
    for (const auto& pool : pools->pools) {
      std::printf("- pool label %d (splits: %zu)\n", pool.label,
                  pool.splits);
      print_stamp(pool.groups, "    ");
      PrintGroupSummary(pool.groups, "    ");
    }
    return 0;
  }

  auto groups = condensa::core::DeserializeGroupSet(*bytes);
  if (!groups.ok()) {
    PrintLoadError(path, pools.status(), groups.status());
    return 1;
  }
  std::printf("group statistics file : %s\n", path.c_str());
  std::printf("format                : %s\n", format);
  print_stamp(*groups, "");
  PrintGroupSummary(*groups, "");
  return 0;
}

int RunEvaluate(const Args& args) {
  const condensa::data::TaskType task = TaskFromFlag(args.task);
  auto original =
      LoadCsv(args.original, task, args.header, args.label_column);
  auto anonymized =
      LoadCsv(args.anonymized, task, args.header, args.label_column);
  if (!original || !anonymized) return 1;

  auto mu = condensa::metrics::CovarianceCompatibility(*original,
                                                       *anonymized);
  auto linkage = condensa::metrics::EvaluateLinkage(*original, *anonymized);
  auto leakage =
      condensa::metrics::ExactLeakageRate(*original, *anonymized, 1e-9);
  if (!mu.ok() || !linkage.ok() || !leakage.ok()) {
    std::fprintf(stderr, "evaluation failed (dimension mismatch?)\n");
    return 1;
  }
  std::printf("records (original / anonymized): %zu / %zu\n",
              original->size(), anonymized->size());
  std::printf("covariance compatibility (mu)  : %.4f\n", *mu);
  std::printf("linkage distance gain          : %.3f\n",
              linkage->distance_gain);
  std::printf("pinpointed fraction            : %.4f\n",
              linkage->pinpointed_fraction);
  std::printf("verbatim leakage rate          : %.4f\n", *leakage);
  return 0;
}

// Runs a small synthetic pipeline through every instrumented subsystem —
// static and dynamic condensation, release generation, kd-tree queries,
// durable ingest plus recovery — then dumps the default metrics registry.
// This is the quickest way to see which series a deployment will emit,
// and doubles as a smoke test that the instruments fire.
int RunStats(const Args& args) {
  if (!args.trace_out.empty()) {
    condensa::obs::StartTracing();
  }

  // Two well-separated Gaussian blobs, labeled, so classification pools,
  // splits, and kd-tree pruning all have something to do.
  condensa::Rng rng(static_cast<std::uint64_t>(args.seed));
  condensa::data::Dataset dataset(
      static_cast<std::size_t>(args.dim),
      condensa::data::TaskType::kClassification);
  std::vector<condensa::linalg::Vector> points;
  points.reserve(static_cast<std::size_t>(args.records));
  for (int i = 0; i < args.records; ++i) {
    condensa::linalg::Vector record(static_cast<std::size_t>(args.dim));
    const int label = i % 2;
    for (int d = 0; d < args.dim; ++d) {
      record[static_cast<std::size_t>(d)] =
          rng.Gaussian(label == 0 ? -2.0 : 2.0, 1.0);
    }
    dataset.Add(record, label);
    points.push_back(record);
  }

  // Static and dynamic condensation through the engine facade.
  for (condensa::core::CondensationMode mode :
       {condensa::core::CondensationMode::kStatic,
        condensa::core::CondensationMode::kDynamic}) {
    condensa::core::CondensationConfig engine_config;
    engine_config.group_size = static_cast<std::size_t>(args.k);
    engine_config.mode = mode;
    condensa::core::CondensationEngine engine(engine_config);
    auto result = engine.Anonymize(dataset, rng);
    if (!result.ok()) {
      std::fprintf(stderr, "condensation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }

  // kd-tree build plus a query mix.
  auto tree = condensa::index::KdTree::Build(points);
  if (!tree.ok()) {
    std::fprintf(stderr, "kd-tree build failed: %s\n",
                 tree.status().ToString().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < 64; ++i) {
    tree->KNearest(points[i % points.size()], 5);
  }

  // Durable ingest and recovery in a throwaway checkpoint directory.
  const std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() /
      ("condensa-stats-" + std::to_string(getpid()));
  std::error_code cleanup_error;
  std::filesystem::remove_all(ckpt_dir, cleanup_error);
  {
    condensa::core::DynamicCondenserOptions options;
    options.group_size = static_cast<std::size_t>(args.k);
    const condensa::core::DurabilityOptions durability{
        .snapshot_interval = 256};
    auto durable = condensa::core::DurableCondenser::Open(
        static_cast<std::size_t>(args.dim), options, durability,
        ckpt_dir.string());
    if (!durable.ok()) {
      std::fprintf(stderr, "durable open failed: %s\n",
                   durable.status().ToString().c_str());
      return 1;
    }
    // Bootstrap half the batch, then stream the rest one record at a
    // time so journal appends (and their fsyncs) show up in the dump.
    const std::size_t half = points.size() / 2;
    std::vector<condensa::linalg::Vector> prefix(points.begin(),
                                                 points.begin() + half);
    condensa::Status status = durable->Bootstrap(prefix, rng);
    for (std::size_t i = half; status.ok() && i < points.size(); ++i) {
      status = durable->Insert(points[i]);
    }
    if (status.ok()) status = durable->Checkpoint();
    if (status.ok()) {
      status = condensa::core::DurableCondenser::Recover(
                   ckpt_dir.string(), options, durability)
                   .status();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "durable ingest/recovery failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  std::filesystem::remove_all(ckpt_dir, cleanup_error);

  if (!args.trace_out.empty()) {
    condensa::Status status = condensa::WriteFileAtomic(
        args.trace_out, condensa::obs::StopTracingAndDump());
    if (!status.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", args.trace_out.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s (load in ui.perfetto.dev)\n",
                 args.trace_out.c_str());
  }

  DumpRegistry(args.format);
  return 0;
}

constexpr const char* kDefaultBackend =
    condensa::core::CondensedGroupSet::kDefaultBackendId;
constexpr const char* kFormats = "prometheus|json";
constexpr const char* kPolicies = "hash|round-robin";
constexpr const char* kTasks = "classification|regression|none";
constexpr Range kPort = Within(0, 65535);

// The CLI: every subcommand and every flag it accepts, in --help order.
const std::vector<Command> kCommands = {
    {"condense", "CSV in -> condensation -> anonymized CSV out", "",
     RunCondense,
     {{"input", "FILE", kRequired, "raw records CSV", &Args::input},
      {"output", "FILE", kRequired, "anonymized release CSV", &Args::output},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(1)},
      {"mode", "static|dynamic", "static",
       "whole-batch split condensation, or one-at-a-time streaming "
       "maintenance",
       &Args::mode},
      {"task", kTasks, "classification",
       "label handling; labeled tasks condense each class pool separately",
       &Args::task},
      {"backend", "ID", kDefaultBackend,
       "anonymization backend (docs/backends.md); the top-level help lists "
       "the registered ids",
       &Args::backend},
      {"label-column", "N", "-1", "0-based label column; -1 = last",
       &Args::label_column},
      {"header", "", "false", "first CSV row is a header", &Args::header},
      {"seed", "N", "42", "RNG seed; a fixed seed gives an identical release",
       &Args::seed},
      {"save-groups", "FILE", "",
       "also save pool statistics for `generate` (binary file)",
       &Args::save_groups}}},
    {"generate", "regenerate a release from saved statistics", "",
     RunGenerate,
     {{"groups", "FILE", kRequired,
       "pool statistics from condense --save-groups; the backend recorded "
       "in the file drives regeneration",
       &Args::groups},
      {"output", "FILE", kRequired, "anonymized release CSV", &Args::output},
      {"seed", "N", "42", "RNG seed", &Args::seed}}},
    {"ingest", "stream a CSV into a crash-safe condenser", "", RunIngest,
     {{"input", "FILE", kRequired, "records CSV", &Args::input},
      {"checkpoint-dir", "DIR", kRequired,
       "snapshot+journal directory; re-running resumes from the recovered "
       "state",
       &Args::checkpoint_dir},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(1)},
      {"backend", "ID", kDefaultBackend,
       "anonymization backend stamped into the checkpoints", &Args::backend},
      {"snapshot-every", "N", "1024", "journal appends per snapshot",
       &Args::snapshot_every, AtLeast(1)},
      {"no-sync", "", "false", "skip fsync per append: faster, less safe",
       &Args::no_sync},
      {"header", "", "false", "first CSV row is a header", &Args::header},
      {"seed", "N", "42", "RNG seed for the bootstrap pass", &Args::seed}}},
    {"serve-stream", "supervised streaming runtime",
     "Runs records through bounded-queue ingest with retry/backoff, poison "
     "quarantine, circuit breaker, and crash-safe checkpoints "
     "(docs/resilience.md). With --shards=N the stream is scattered across "
     "N independent pipelines, each with its own checkpoint directory under "
     "--checkpoint-dir, and gathered into one global release by exact "
     "moment merge (docs/scaling.md).",
     RunServeStream,
     {{"checkpoint-dir", "DIR", kRequired, "checkpoint root",
       &Args::checkpoint_dir},
      {"input", "FILE", "",
       "records CSV; without it a synthetic two-blob Gaussian stream of "
       "--records x --dim is generated",
       &Args::input},
      {"records", "N", "5000", "synthetic stream length", &Args::records,
       AtLeast(1)},
      {"dim", "N", "4", "synthetic record dimension", &Args::dim, AtLeast(1)},
      {"shards", "N", "1", "pipelines to scatter across", &Args::shards,
       AtLeast(1)},
      {"policy", kPolicies, "hash", "record-to-shard routing", &Args::policy},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(2)},
      {"backend", "ID", kDefaultBackend, "anonymization backend",
       &Args::backend},
      {"snapshot-every", "N", "256", "appends per snapshot",
       &Args::snapshot_every, AtLeast(1)},
      {"no-sync", "", "false", "skip fsync per journal append",
       &Args::no_sync},
      {"queue-capacity", "N", "1024", "bounded queue size",
       &Args::queue_capacity, AtLeast(1)},
      {"backpressure", "block|drop-oldest|reject", "block",
       "full-queue policy; single-pipeline mode only", &Args::backpressure},
      {"batch-size", "N", "32", "worker batch size", &Args::batch_size,
       AtLeast(1)},
      {"batch-deadline-ms", "X", "1000",
       "wall-clock deadline per batch; single-pipeline mode only",
       &Args::batch_deadline_ms, Above(0)},
      {"retry-attempts", "N", "4",
       "attempts per transient failure; single-pipeline mode only",
       &Args::retry_attempts, AtLeast(1)},
      {"retry-budget", "N", "10000",
       "run-wide retry cap; single-pipeline mode only", &Args::retry_budget,
       AtLeast(0)},
      {"chaos", "P", "0",
       "arm failpoints at probability P during ingest, healed before "
       "Finish",
       &Args::chaos, Range{0, 1, false, true}},
      {"save-groups", "FILE", "",
       "save the final group statistics (binary file)",
       &Args::save_groups},
      {"output", "FILE", "",
       "also anonymize and write a release CSV, regenerated from "
       "Rng(--seed)",
       &Args::output},
      {"header", "", "false", "first CSV row is a header", &Args::header},
      {"seed", "N", "42", "RNG seed; per-shard seeds are derived",
       &Args::seed},
      {"format", kFormats, "", "also dump the metrics registry",
       &Args::format}}},
    {"shard", "scatter/gather condensation",
     "Routes records across N shard condensers (each condensing its "
     "partition independently), then exact-merges the shard-local "
     "aggregates into one global k-indistinguishable structure "
     "(docs/scaling.md). --mode=stream runs the shards as durable "
     "pipelines, as serve-stream --shards does, and exits 1 when a shard "
     "ledger does not balance. Fixed --seed and --shards reproduce a "
     "bit-identical release.",
     RunShard,
     {{"input", "FILE", "",
       "records CSV; without it a synthetic two-blob Gaussian set of "
       "--records x --dim is generated",
       &Args::input},
      {"records", "N", "10000", "synthetic record count", &Args::records,
       AtLeast(1)},
      {"dim", "N", "4", "synthetic record dimension", &Args::dim, AtLeast(1)},
      {"shards", "N", "2", "shard count", &Args::shards, AtLeast(1)},
      {"policy", kPolicies, "hash", "record-to-shard routing", &Args::policy},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(1)},
      {"backend", "ID", kDefaultBackend,
       "anonymization backend; group construction and release regeneration "
       "both follow it",
       &Args::backend},
      {"mode", "batch|stream", "batch",
       "in-memory static condensation per shard, or durable streaming "
       "pipelines with per-shard checkpoints (k >= 2)",
       &Args::mode},
      {"checkpoint-root", "DIR", "",
       "per-shard checkpoint parent directory; required with --mode=stream",
       &Args::checkpoint_root},
      {"snapshot-every", "N", "1024", "appends per snapshot",
       &Args::snapshot_every, AtLeast(1)},
      {"no-sync", "", "false", "skip fsync per journal append",
       &Args::no_sync},
      {"threads", "N", "0",
       "batch mode only: condense threads; 0 = hardware concurrency; "
       "output is identical at any thread count",
       &Args::threads, AtLeast(0)},
      {"save-groups", "FILE", "",
       "save the gathered group statistics (binary file)",
       &Args::save_groups},
      {"output", "FILE", "", "also anonymize and write a release CSV",
       &Args::output},
      {"header", "", "false", "first CSV row is a header", &Args::header},
      {"seed", "N", "42", "RNG seed; per-shard streams are derived",
       &Args::seed},
      {"format", kFormats, "", "also dump the metrics registry",
       &Args::format}}},
    {"worker", "standalone fabric worker process",
     "Listens for a coordinator (condensa fabric) and serves one shard of "
     "the networked fabric: records arrive in framed Submit batches, flow "
     "through the durable streaming runtime, and are acknowledged only "
     "once durably in custody, so a kill -9 after an ack loses nothing "
     "(docs/fabric.md). The shard id, dimension, k, and seed all arrive in "
     "the coordinator's Hello, so one worker invocation serves any shard. "
     "Restarting the worker on the same --checkpoint-root recovers its "
     "durable state and rejoins the fabric.",
     RunWorker,
     {{"checkpoint-root", "DIR", kRequired,
       "shard checkpoint parent directory; shard i lives under "
       "DIR/shard-<i>",
       &Args::checkpoint_root},
      {"host", "ADDR", "127.0.0.1", "bind address", &Args::host},
      {"port", "N", "0",
       "TCP port; 0 picks a free one, printed to stdout as 'listening on "
       "PORT'",
       &Args::port, kPort},
      {"worker-id", "ID", "",
       "stable metric-label identity (empty = w<shard>); keep it stable "
       "across restarts so no duplicate series appear",
       &Args::worker_id},
      {"idle-timeout-ms", "X", "30000", "drop a silent session after X ms",
       &Args::idle_timeout_ms, Above(0)},
      {"flush-timeout-ms", "X", "30000",
       "durability barrier per Submit batch", &Args::flush_timeout_ms,
       Above(0)}}},
    {"fabric", "coordinate networked fabric workers",
     "Scatters a stream across standalone worker processes (condensa "
     "worker) over the framed TCP protocol, tracking liveness with "
     "heartbeats, reconnecting with exponential backoff, re-routing "
     "unacknowledged records off dead workers, and gathering the shard "
     "releases by exact moment merge (docs/fabric.md). A clean run is "
     "bit-identical to the in-process `serve-stream --shards=N` run with "
     "the same seed and shard count.",
     RunFabric,
     {{"workers", "HOST:PORT[,HOST:PORT...]", kRequired,
       "one endpoint per shard", &Args::workers},
      {"input", "FILE", "",
       "records CSV; without it a synthetic two-blob Gaussian stream of "
       "--records x --dim is generated",
       &Args::input},
      {"records", "N", "5000", "synthetic stream length", &Args::records,
       AtLeast(1)},
      {"dim", "N", "4", "synthetic record dimension", &Args::dim, AtLeast(1)},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(2)},
      {"backend", "ID", kDefaultBackend,
       "anonymization backend, carried to every worker in the Hello",
       &Args::backend},
      {"policy", kPolicies, "hash", "record-to-shard routing", &Args::policy},
      {"wire-batch", "N", "64", "records per Submit frame",
       &Args::wire_batch, AtLeast(1)},
      {"local-fallback-root", "DIR", "",
       "take over unreachable shards with in-process workers over this "
       "checkpoint root; point it at the same tree the workers use",
       &Args::local_fallback_root},
      {"heartbeat-interval-ms", "X", "200", "probe cadence",
       &Args::heartbeat_interval_ms, Above(0)},
      {"heartbeat-timeout-ms", "X", "1500",
       "declare-dead threshold; at least --heartbeat-interval-ms",
       &Args::heartbeat_timeout_ms, Above(0)},
      {"save-groups", "FILE", "",
       "save the gathered group statistics (binary file)",
       &Args::save_groups},
      {"output", "FILE", "", "also anonymize and write a release CSV",
       &Args::output},
      {"header", "", "false", "first CSV row is a header", &Args::header},
      {"seed", "N", "42", "RNG seed; per-shard seeds are derived",
       &Args::seed},
      {"format", kFormats, "", "also dump the metrics registry",
       &Args::format}}},
    {"recover", "restore a condenser from its checkpoints", "", RunRecover,
     {{"checkpoint-dir", "DIR", kRequired, "directory to recover from",
       &Args::checkpoint_dir},
      {"k", "N", "10", "group size the state was built with", &Args::k,
       AtLeast(1)},
      {"backend", "ID", kDefaultBackend,
       "backend the state was built with; a mismatched checkpoint refuses "
       "to load",
       &Args::backend},
      {"save-groups", "FILE", "",
       "save the recovered group statistics (binary file)",
       &Args::save_groups}}},
    {"query", "mining queries answered from condensed statistics",
     "Answers come from condensed statistics, never raw records "
     "(docs/query.md). Exactly one snapshot source is required: --groups, "
     "--checkpoint-dir, or --connect.",
     RunQuery,
     {{"groups", "FILE", "", "saved pool statistics or bare group file",
       &Args::groups},
      {"checkpoint-dir", "DIR", "", "recover a durable condenser's state",
       &Args::checkpoint_dir},
      {"connect", "HOST:PORT", "",
       "send the query to a running query-server", &Args::connect},
      {"k", "N", "10", "group size for --checkpoint-dir recovery", &Args::k,
       AtLeast(1)},
      {"op", "classify|aggregate|regenerate", "aggregate", "query kind",
       &Args::op},
      {"points", "FILE", "",
       "CSV of points to classify; required for --op=classify",
       &Args::points},
      {"neighbors", "N", "1", "nearest group centroids consulted per point",
       &Args::neighbors, AtLeast(1)},
      {"range", "DIM:LO:HI[,DIM:LO:HI...]", "",
       "centroid box selecting groups for aggregate and regenerate; empty = "
       "every group",
       &Args::range},
      {"seed", "N", "42", "regeneration RNG seed", &Args::seed},
      {"records-per-group", "N", "0",
       "regenerated records per selected group; 0 = each group's own count",
       &Args::records_per_group, AtLeast(0)},
      {"output", "FILE", "",
       "write regenerated records as CSV; empty = stdout", &Args::output},
      {"header", "", "false", "first row of --points is a header",
       &Args::header},
      {"timeout-ms", "X", "5000", "per-frame timeout for --connect",
       &Args::timeout_ms, Above(0)},
      {"retries", "N", "1",
       "attempts against --connect, redialing and backing off on transport "
       "errors and kUnavailable; 1 = no retry",
       &Args::retries, AtLeast(1)},
      {"deadline-ms", "X", "0",
       "overall budget for the --connect call, forwarded to the server so "
       "it sheds work past the deadline; 0 = none",
       &Args::deadline_ms, AtLeast(0)}}},
    {"query-server", "serve framed mining queries from a snapshot",
     "Loads condensed state once, then answers Query frames until killed. "
     "Prints `listening on PORT` when ready. Exactly one snapshot source "
     "is required: --groups or --checkpoint-dir.",
     RunQueryServer,
     {{"groups", "FILE", "", "saved pool statistics or bare group file",
       &Args::groups},
      {"checkpoint-dir", "DIR", "", "recover a durable condenser's state",
       &Args::checkpoint_dir},
      {"k", "N", "10", "group size for --checkpoint-dir recovery", &Args::k,
       AtLeast(1)},
      {"host", "ADDR", "127.0.0.1", "bind address", &Args::host},
      {"port", "N", "0", "listen port; 0 picks a free one", &Args::port,
       kPort},
      {"idle-timeout-ms", "X", "30000", "drop sessions silent this long",
       &Args::idle_timeout_ms, Above(0)},
      {"cache-capacity", "N", "1024", "bound on cached eigendecompositions",
       &Args::cache_capacity, AtLeast(1)},
      {"max-sessions", "N", "8",
       "concurrent sessions served; further connections are refused "
       "in-band with a retry-after hint",
       &Args::max_sessions, AtLeast(1)},
      {"deadline-ms", "X", "0",
       "deadline applied to requests that carry none; omit for no "
       "deadline",
       &Args::deadline_ms, Above(0)}}},
    {"inspect", "print the privacy summary of a saved file", "", RunInspect,
     {{"groups", "FILE", kRequired,
       "pool or group statistics file, binary v2 or text v1",
       &Args::groups}}},
    {"evaluate", "compare an original and an anonymized CSV (mu, linkage)",
     "", RunEvaluate,
     {{"original", "FILE", kRequired, "raw records CSV", &Args::original},
      {"anonymized", "FILE", kRequired, "release CSV", &Args::anonymized},
      {"task", kTasks, "classification", "label handling", &Args::task},
      {"label-column", "N", "-1", "0-based label column; -1 = last",
       &Args::label_column},
      {"header", "", "false", "first CSV row is a header", &Args::header}}},
    {"stats", "synthetic end-to-end run + metrics dump",
     "Runs static and dynamic condensation, kd-tree queries and durable "
     "ingest plus recovery on synthetic data, then dumps the metrics "
     "registry (docs/observability.md).",
     RunStats,
     {{"records", "N", "2000", "synthetic records", &Args::records,
       AtLeast(10)},
      {"dim", "N", "8", "record dimension", &Args::dim, AtLeast(1)},
      {"k", "N", "10", "indistinguishability level", &Args::k, AtLeast(1)},
      {"seed", "N", "42", "RNG seed", &Args::seed},
      {"format", kFormats, "prometheus", "registry dump format",
       &Args::format},
      {"trace-out", "FILE", "", "also record a Perfetto trace",
       &Args::trace_out}}},
};

bool IsSwitch(const Flag& flag) {
  return std::holds_alternative<bool Args::*>(flag.field);
}

std::string Spelling(const Flag& flag) {
  std::string text = std::string("--") + flag.name;
  if (!IsSwitch(flag)) text += std::string("=") + flag.hint;
  return text;
}

std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

// "" when unbounded, ">=1", ">0", or an interval such as "[0,1)". No
// spaces, so help text never wraps inside a bound.
std::string DescribeRange(const Range& range) {
  std::string text;
  if (range.hi == std::numeric_limits<double>::infinity()) {
    if (range.lo == -std::numeric_limits<double>::infinity()) return text;
    text = range.lo_open ? ">" : ">=";
    text += FormatNumber(range.lo);
    return text;
  }
  text = range.lo_open ? "(" : "[";
  text += FormatNumber(range.lo) + "," + FormatNumber(range.hi);
  text += range.hi_open ? ")" : "]";
  return text;
}

constexpr std::size_t kWidth = 79;

// Prints `text` word-wrapped at kWidth, starting at `column` with
// continuation lines indented to `indent`, then a newline.
void PrintWrapped(std::FILE* out, std::size_t column, std::size_t indent,
                  const std::string& text) {
  bool line_empty = true;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t end = text.find(' ', start);
    if (end == std::string::npos) end = text.size();
    const std::size_t length = end - start;
    if (!line_empty && column + 1 + length > kWidth) {
      std::fprintf(out, "\n%*s", static_cast<int>(indent), "");
      column = indent;
      line_empty = true;
    }
    if (!line_empty) {
      std::fputc(' ', out);
      ++column;
    }
    std::fwrite(text.data() + start, 1, length, out);
    column += length;
    line_empty = false;
    start = end + 1;
  }
  std::fputc('\n', out);
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: condensa <command> [--flag=value ...]\n"
               "       condensa <command> --help\n"
               "\n"
               "commands:\n");
  constexpr int kIndent = 16;
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-*s", kIndent - 2, command.name);
    PrintWrapped(out, kIndent, kIndent, command.summary);
    std::string synopsis;
    for (const Flag& flag : command.flags) {
      const bool optional = flag.fallback != kRequired;
      if (!synopsis.empty()) synopsis += ' ';
      if (optional) synopsis += '[';
      synopsis += Spelling(flag);
      if (optional) synopsis += ']';
    }
    std::fprintf(out, "%*s", kIndent, "");
    PrintWrapped(out, kIndent, kIndent, synopsis);
  }
  std::string backend_users;
  for (const Command& command : kCommands) {
    for (const Flag& flag : command.flags) {
      if (flag.field != Field(&Args::backend)) continue;
      if (!backend_users.empty()) backend_users += ", ";
      backend_users += command.name;
    }
  }
  std::fputc('\n', out);
  PrintWrapped(out, 0, 0,
               "anonymization backends (--backend=ID on " + backend_users +
                   "; default " + kDefaultBackend + "):");
  for (const std::string& id : condensa::core::BackendIds()) {
    std::fprintf(out, "  %-12s %s\n", id.c_str(),
                 (*condensa::core::FindBackend(id))->summary.c_str());
  }
  std::fprintf(
      out,
      "\n`condensa <command> --help` describes one command's flags in "
      "detail.\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

// `condensa <command> --help`: every flag with its default and bounds.
void PrintHelp(const Command& command) {
  std::printf("condensa %s — %s\n\n", command.name, command.summary);
  if (*command.details != '\0') {
    PrintWrapped(stdout, 0, 0, command.details);
    std::printf("\n");
  }
  constexpr std::size_t kHelpColumn = 26;
  for (const Flag& flag : command.flags) {
    const std::string spelling = "  " + Spelling(flag);
    std::fputs(spelling.c_str(), stdout);
    if (spelling.size() + 1 < kHelpColumn) {
      std::printf("%*s", static_cast<int>(kHelpColumn - spelling.size()), "");
    } else {
      std::printf("\n%*s", static_cast<int>(kHelpColumn), "");
    }
    std::vector<std::string> notes;
    if (flag.fallback == kRequired) {
      notes.push_back("required");
    } else if (*flag.fallback != '\0' && !IsSwitch(flag)) {
      notes.push_back(std::string("default ") + flag.fallback);
    }
    if (std::string bounds = DescribeRange(flag.range); !bounds.empty()) {
      notes.push_back(bounds);
    }
    std::string text = flag.help;
    for (std::size_t i = 0; i < notes.size(); ++i) {
      text += (i == 0 ? " (" : "; ") + notes[i];
    }
    if (!notes.empty()) text += ")";
    PrintWrapped(stdout, kHelpColumn, kHelpColumn, text);
  }
}

// Stores one flag value into its Args field, parsed by the field's type.
// `given` says the user typed it: only given values are checked against
// the row's choices and bounds. Prints the error and returns false on a
// bad value.
bool StoreFlag(const Flag& flag, const std::string& text, bool given,
               Args* args) {
  const auto in_range = [&](double value) {
    const Range& r = flag.range;
    return !given ||
           ((r.lo_open ? value > r.lo : value >= r.lo) &&
            (r.hi_open ? value < r.hi : value <= r.hi));
  };
  const char* want = nullptr;
  if (auto* field = std::get_if<std::string Args::*>(&flag.field)) {
    const std::string choices = flag.hint;
    if (given && choices.find('|') != std::string::npos &&
        ("|" + choices + "|").find("|" + text + "|") == std::string::npos) {
      want = flag.hint;
    }
    args->**field = text;
  } else if (auto* field = std::get_if<bool Args::*>(&flag.field)) {
    if (text != "true" && text != "false") want = "no value, true or false";
    args->**field = text == "true";
  } else if (auto* field = std::get_if<int Args::*>(&flag.field)) {
    if (!ParseInt(text, &(args->**field)) || !in_range(args->**field)) {
      want = "an integer";
    }
  } else if (auto* field = std::get_if<double Args::*>(&flag.field)) {
    if (!ParseDouble(text, &(args->**field)) || !in_range(args->**field)) {
      want = "a number";
    }
  }
  if (want == nullptr) return true;
  const std::string bounds = DescribeRange(flag.range);
  std::fprintf(stderr, "error: bad value --%s=%s (want %s%s%s)\n", flag.name,
               text.c_str(), want, bounds.empty() ? "" : " ",
               bounds.c_str());
  return false;
}

// Fills `args` from the `--name=value` pairs given to `command`: typed,
// bounds-checked, required flags present, no unknown names. Prints every
// problem and returns false if there was one.
bool ParseFlags(const Command& command,
                std::map<std::string, std::string> given, Args* args) {
  bool ok = true;
  for (const Flag& flag : command.flags) {
    auto it = given.find(flag.name);
    const bool is_given = it != given.end();
    const std::string text =
        is_given ? it->second : (flag.fallback ? flag.fallback : "");
    if (is_given) given.erase(it);
    if (flag.fallback == kRequired && text.empty()) {
      std::fprintf(stderr, "error: --%s is required\n", flag.name);
      ok = false;
    } else if (!StoreFlag(flag, text, is_given, args)) {
      ok = false;
    }
  }
  for (const auto& [name, value] : given) {
    std::fprintf(stderr, "error: unknown flag --%s for '%s'\n", name.c_str(),
                 command.name);
  }
  if (!given.empty()) {
    std::fprintf(stderr, "run `condensa %s --help` for the flag list\n",
                 command.name);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  // Flags are --name=value; a bare --name means "true".
  std::map<std::string, std::string> given;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
      return Usage();
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    given[std::string(arg.substr(0, eq))] =
        eq == std::string_view::npos ? "true"
                                     : std::string(arg.substr(eq + 1));
  }
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (name == candidate.name) command = &candidate;
  }
  if (command == nullptr) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
    return Usage();
  }
  const bool help = given["help"] == "true" || given["h"] == "true";
  given.erase("help");
  given.erase("h");
  if (help) {
    PrintHelp(*command);
    return 0;
  }
  Args args;
  if (!ParseFlags(*command, std::move(given), &args)) return 2;
  return command->run(args);
}
