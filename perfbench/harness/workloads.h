// The perfbench workloads. Each runs in its own process, measures
// for RunOptions::seconds in fixed-work rounds, checks the program's
// outputs, and fills Outcome::values with its end-to-end metrics
// (trace off) or its per-layer metrics (trace on). Metric names and
// units are listed once, in main.cc.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Fresh directory owned by this run; every file a workload writes goes
  // under it.
  std::string work_dir;
  // File recording the release digest of a condense_csv seed, so that a
  // later run of the same seed must reproduce it.
  std::string digest_file;
  // Hardware threads available; workloads cap their explicit thread
  // counts by it.
  std::size_t hardware_threads = 1;
};

struct Outcome {
  std::map<std::string, double> values;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  // Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& why);
};

Outcome RunCondenseCsv(const RunOptions& options);
Outcome RunDurableIngest(const RunOptions& options);
// The layers only a single DurableCondenser separates (appends against
// snapshot stalls, recovery, the in-memory twin), measured by a traced
// durable_ingest run of `seconds` and added to `outcome`, a traced
// sharded_stream run's. durable_ingest is not an end-to-end workload of
// BENCHMARK.json: every insert waits on its own fsync, and its CPU times
// follow the shared disk's latency from minute to minute.
void AddDurableLayers(const RunOptions& options, double seconds,
                      Outcome* outcome);
Outcome RunQueryServe(const RunOptions& options);
Outcome RunShardedStream(const RunOptions& options);

// Deterministic synthetic records: `n` draws, from `seed`, of a fixed
// mixture of `components` correlated Gaussians in `dim` dimensions. With
// `labeled`, each record carries its component as a class label
// (classification); otherwise the set is unlabeled.
condensa::data::Dataset MakeRecords(std::size_t n, std::size_t dim,
                                    std::size_t components, bool labeled,
                                    std::uint64_t seed);

// Wraps `records` in an unlabeled Dataset of dimension `dim`.
condensa::data::Dataset UnlabeledDataset(
    const std::vector<condensa::linalg::Vector>& records, std::size_t dim);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
