// perfbench: runs one workload for a fixed time and prints one JSON line.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --work-dir=DIR [--trace-out=FILE] [--digest-file=FILE]
//
// With --trace=0 the line carries every end-to-end metric; with
// --trace=1 every per-layer metric (0 where the layer is not in the
// workload's loop), and the spans go to --trace-out in chrome://tracing
// format. perfbench/run.py builds this binary and is the entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "support.h"
#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json; run.py checks that they agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/cpu-s"},
    {"latency_p50_us", "cpu-us"},
    {"latency_p90_us", "cpu-us"},
    {"wall_latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "ratio"},
    {"io_calls_per_op", "count"},
    {"write_amp", "ratio"},
    {"release_mu", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"data.read_csv_s", "cpu-s"},
    {"data.write_csv_s", "cpu-s"},
    {"core.condense_s", "cpu-s"},
    {"core.save_pools_s", "cpu-s"},
    {"core.generate_s", "cpu-s"},
    {"core.checkpointing.append_p50_us", "cpu-us"},
    {"core.checkpointing.snapshot_stall_p50_us", "cpu-us"},
    {"core.checkpointing.snapshot_stall_max_us", "cpu-us"},
    {"core.checkpointing.snapshot_mean_us", "us"},
    {"core.checkpointing.snapshot_bytes", "bytes"},
    {"core.checkpointing.journal_bytes", "bytes"},
    {"core.checkpointing.fsyncs_per_record", "ratio"},
    {"core.checkpointing.recover_s", "cpu-s"},
    {"core.checkpointing.replay_records_per_s", "1/cpu-s"},
    {"core.dynamic.insert_p50_us", "cpu-us"},
    {"core.dynamic.splits", "count"},
    {"core.centroid_index.rebuilds", "count"},
    {"query.classify_p50_us", "cpu-us"},
    {"query.aggregate_p50_us", "cpu-us"},
    {"query.regenerate_p50_us", "cpu-us"},
    {"query.eigen_cache_hit_rate", "ratio"},
    {"net.classify_overhead_p50_us", "cpu-us"},
    {"net.aggregate_overhead_p50_us", "cpu-us"},
    {"net.regenerate_overhead_p50_us", "cpu-us"},
    {"runtime.admission_shed", "count"},
    {"runtime.queue_high_water", "count"},
    {"shard.submit_p99_us", "us"},
    {"shard.finish_s", "cpu-s"},
    {"shard.gather_merges", "count"},
    {"shard.gather_splits", "count"},
    {"shard.skew", "ratio"},
    {"bench.layer_coverage", "ratio"},
    {"bench.layer_wall_coverage", "ratio"},
    {"bench.wall_ops_per_s", "1/s"},
    {"bench.trace_delta_ops_per_s", "1/cpu-s"},
    {"bench.trace_overhead_pct", "%"},
};

// Seconds of the durable_ingest run inside a traced sharded_stream run.
constexpr double kDurableLayerSeconds = 8.0;

// Stops obs tracing, if on, and writes its spans to `path` (if set).
void WriteTrace(const std::string& path) {
  if (!condensa::obs::TracingEnabled()) return;
  const std::string dump = condensa::obs::StopTracingAndDump();
  if (path.empty()) return;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream(path) << dump;
  std::fprintf(stderr, "trace: %s (%llu events dropped)\n", path.c_str(),
               static_cast<unsigned long long>(
                   condensa::obs::DroppedTraceEvents()));
}

// "dir/name.json" with `suffix` before the extension.
std::string WithSuffix(const std::string& path, const std::string& suffix) {
  if (path.empty()) return path;
  const std::filesystem::path p(path);
  const std::string name = p.stem().string() + suffix + p.extension().string();
  return (p.parent_path() / name).string();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=condense_csv|durable_ingest|"
               "query_serve|sharded_stream --seed=N --seconds=S "
               "--trace=0|1 --work-dir=DIR [--trace-out=FILE] "
               "[--digest-file=FILE]\n");
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seed = "1", seconds = "10", trace = "0", work_dir,
                        trace_out, digest_file;
  for (int i = 1; i < argc; ++i) {
    if (!ParseFlag(argv[i], "--workload", &workload) &&
        !ParseFlag(argv[i], "--seed", &seed) &&
        !ParseFlag(argv[i], "--seconds", &seconds) &&
        !ParseFlag(argv[i], "--trace", &trace) &&
        !ParseFlag(argv[i], "--work-dir", &work_dir) &&
        !ParseFlag(argv[i], "--trace-out", &trace_out) &&
        !ParseFlag(argv[i], "--digest-file", &digest_file)) {
      return Usage();
    }
  }
  perfbench::RunOptions options;
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (*end != '\0') return Usage();
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0)) return Usage();
  if (trace != "0" && trace != "1") return Usage();
  options.trace = trace == "1";
  if (work_dir.empty()) return Usage();
  options.work_dir = work_dir;
  options.digest_file = digest_file;
  options.hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(work_dir);

  perfbench::Outcome outcome;
  if (workload == "condense_csv") {
    outcome = perfbench::RunCondenseCsv(options);
  } else if (workload == "durable_ingest") {
    outcome = perfbench::RunDurableIngest(options);
  } else if (workload == "query_serve") {
    outcome = perfbench::RunQueryServe(options);
  } else if (workload == "sharded_stream") {
    outcome = perfbench::RunShardedStream(options);
    if (options.trace) {
      // Tracing restarts for the durable_ingest run, so the shard spans
      // are written out first and the durable ones to a second file.
      WriteTrace(trace_out);
      perfbench::AddDurableLayers(options, kDurableLayerSeconds, &outcome);
      trace_out = WithSuffix(trace_out, "-durable");
    }
  } else {
    return Usage();
  }

  if (options.trace) WriteTrace(trace_out);

  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "error: no operation was attempted\n");
    return 1;
  }
  auto& values = outcome.values;
  if (!options.trace) {
    values["peak_rss_mb"] = perfbench::PeakRssMb();
    values["success_rate"] =
        1.0 - static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted);
  }

  perfbench::Report report;
  bool complete = true;
  if (options.trace) {
    for (const auto& spec : kPerLayer) {
      auto it = values.find(spec.name);
      report.Add(spec.name, it == values.end() ? 0.0 : it->second,
                 spec.unit);
    }
  } else {
    for (const auto& spec : kEndToEnd) {
      auto it = values.find(spec.name);
      if (it == values.end() || !std::isfinite(it->second)) {
        // Only a failed run leaves an end-to-end metric unset.
        if (outcome.correct) {
          std::fprintf(stderr, "error: metric %s was not measured\n",
                       spec.name);
        }
        complete = false;
        continue;
      }
      report.Add(spec.name, it->second, spec.unit);
    }
  }
  if (!complete && outcome.correct) return 1;
  std::printf("%s\n", report.Json(outcome.correct, outcome.attempted,
                                  outcome.failed)
                          .c_str());
  return 0;
}
