// condense_csv: the paper's batch path (static condensation, Fig. 1) as
// users run it with `condensa condense --save-groups`: one op is one
// CSV -> CSV job done through the library calls the CLI makes.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/random.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "data/csv.h"
#include "metrics/compatibility.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecords = 100000;
constexpr std::size_t kDim = 10;
constexpr std::size_t kClasses = 3;
constexpr std::size_t kGroupSize = 10;
// Set-up samples taken before the warm-up job; one more is taken before
// every timed job, so the samples spread over the whole run.
constexpr int kSetupRepeats = 2;
// The tail is read from this many jobs, the first of each run, so that a
// faster build, which fits more jobs into a run, does not read its tail
// from more samples.
constexpr std::size_t kTailJobs = 3;

// Cost of each stage of one job, and of the whole job (`loop`).
struct JobTimes {
  Cost read, condense, save, generate, write, loop;
  double ops = static_cast<double>(kRecords);
  std::uint64_t io_calls = 0;
  Cost StageSum() const {
    Cost sum;
    for (const Cost* c : {&read, &condense, &save, &generate, &write}) {
      sum.wall += c->wall;
      sum.cpu += c->cpu;
    }
    return sum;
  }
};

struct JobOutput {
  bool ok = false;
  std::string error;
  JobTimes times;
  condensa::data::Dataset release{0};
  std::size_t achieved_k = 0;
};

class CondenseJob {
 public:
  CondenseJob(std::string dir, std::uint64_t seed, std::size_t threads)
      : input_(dir + "/input.csv"),
        groups_(dir + "/groups.txt"),
        output_(dir + "/release.csv"),
        seed_(seed),
        threads_(threads) {}

  const std::string& input() const { return input_; }
  const std::string& groups() const { return groups_; }
  const std::string& output() const { return output_; }

  // ReadCsv -> Condense -> SavePools -> GenerateRelease -> WriteCsv, as
  // `condensa condense --input --output --save-groups --k=10` does, with
  // a fresh Rng(seed) so every job produces the same release.
  JobOutput Run() const {
    JobOutput out;
    const IoCalls io;
    const Clock::time_point start = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    const double fsync0 = ThreadFsyncSeconds();
    condensa::data::CsvReadOptions read_options;
    read_options.task = condensa::data::TaskType::kClassification;
    condensa::StatusOr<condensa::data::CsvReadResult> parsed =
        condensa::InternalError("not run");
    out.times.read = Timed("data.read_csv", [&] {
      parsed = condensa::data::ReadCsv(input_, read_options);
    });
    if (!parsed.ok()) return Failed(out, parsed.status().ToString());

    condensa::core::CondensationConfig config;
    config.group_size = kGroupSize;
    config.mode = condensa::core::CondensationMode::kStatic;
    config.num_threads = threads_;
    condensa::core::CondensationEngine engine(config);
    condensa::Rng rng(seed_);
    condensa::StatusOr<condensa::core::CondensedPools> pools =
        condensa::InternalError("not run");
    out.times.condense = Timed("core.condense", [&] {
      pools = engine.Condense(parsed->dataset, rng);
    });
    if (!pools.ok()) return Failed(out, pools.status().ToString());

    condensa::Status saved;
    out.times.save = Timed("core.save_pools", [&] {
      saved = condensa::core::SavePools(*pools, groups_);
    });
    if (!saved.ok()) return Failed(out, saved.ToString());

    condensa::core::AnonymizerOptions anonymizer;
    anonymizer.num_threads = threads_;
    condensa::StatusOr<condensa::core::AnonymizationResult> release =
        condensa::InternalError("not run");
    out.times.generate = Timed("core.generate", [&] {
      release = condensa::core::GenerateRelease(*pools, rng, anonymizer);
    });
    if (!release.ok()) return Failed(out, release.status().ToString());

    condensa::Status written;
    out.times.write = Timed("data.write_csv", [&] {
      written = condensa::data::WriteCsv(release->anonymized, output_);
    });
    if (!written.ok()) return Failed(out, written.ToString());
    out.times.loop.wall = SecondsSince(start);
    out.times.loop.cpu = ProcessCpuSeconds() - cpu0;
    out.times.loop.fsync = ThreadFsyncSeconds() - fsync0;
    out.times.io_calls = io.Total();

    out.ok = true;
    out.achieved_k = release->AchievedIndistinguishability();
    out.release = std::move(release->anonymized);
    return out;
  }

 private:
  static JobOutput Failed(JobOutput& out, std::string error) {
    out.error = std::move(error);
    return std::move(out);
  }

  std::string input_;
  std::string groups_;
  std::string output_;
  std::uint64_t seed_;
  std::size_t threads_;
};

// Digest of the release as a reader of the CSV file sees it.
condensa::StatusOr<std::uint64_t> ParsedDigest(const std::string& path) {
  condensa::data::CsvReadOptions options;
  options.task = condensa::data::TaskType::kClassification;
  CONDENSA_ASSIGN_OR_RETURN(condensa::data::CsvReadResult parsed,
                            condensa::data::ReadCsv(path, options));
  return ReleaseDigest(parsed.dataset);
}

// The parsed-release digest of a seed must be the same in every run:
// the first run records it, later runs compare against it.
std::string CheckDigestAcrossRuns(const std::string& file,
                                  std::uint64_t digest) {
  if (file.empty()) return "";
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  std::ifstream in(file);
  std::string recorded;
  if (in >> recorded) {
    if (recorded != text) {
      return "parsed release digest " + std::string(text) +
             " differs from " + recorded + " recorded by an earlier run";
    }
    return "";
  }
  std::filesystem::create_directories(
      std::filesystem::path(file).parent_path());
  std::ofstream(file) << text << "\n";
  return "";
}

}  // namespace

Outcome RunCondenseCsv(const RunOptions& options) {
  Outcome outcome;
  const std::size_t threads =
      std::min<std::size_t>(4, options.hardware_threads);
  const condensa::data::Dataset input =
      MakeRecords(kRecords, kDim, kClasses, /*labeled=*/true, options.seed);
  CondenseJob job(options.work_dir, options.seed, threads);
  const condensa::Status written = condensa::data::WriteCsv(input,
                                                            job.input());
  if (!written.ok()) {
    outcome.Fail("writing the input: " + written.ToString());
    return outcome;
  }

  // Set-up: what a job does before it condenses, parsing its input and
  // building the engine, timed on its own.
  std::vector<double> setups;
  auto time_setup = [&] {
    condensa::Status status;
    setups.push_back(Timed("setup.read_input", [&] {
                       condensa::data::CsvReadOptions read_options;
                       read_options.task =
                           condensa::data::TaskType::kClassification;
                       auto parsed =
                           condensa::data::ReadCsv(job.input(), read_options);
                       status = parsed.status();
                       condensa::core::CondensationConfig config;
                       config.group_size = kGroupSize;
                       config.mode = condensa::core::CondensationMode::kStatic;
                       config.num_threads = threads;
                       condensa::core::CondensationEngine engine(config);
                     }).cpu);
    if (!status.ok()) outcome.Fail("reading the input: " + status.ToString());
    return status.ok();
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!time_setup()) return outcome;
  }

  // Untimed warm-up job: fixes the release digest and the exact counts.
  JobOutput warm = job.Run();
  if (!warm.ok) {
    outcome.Fail("warm-up job: " + warm.error);
    return outcome;
  }
  const std::uint64_t digest = ReleaseDigest(warm.release);
  std::string problem = CheckRelease(warm.release, input.size(),
                                     warm.achieved_k, kGroupSize, digest);
  if (!problem.empty()) outcome.Fail("warm-up job: " + problem);
  condensa::StatusOr<std::uint64_t> parsed_digest =
      ParsedDigest(job.output());
  if (!parsed_digest.ok()) {
    outcome.Fail("re-reading the release: " +
                 parsed_digest.status().ToString());
    return outcome;
  }
  const std::uint64_t expected_parsed = *parsed_digest;
  problem = CheckDigestAcrossRuns(options.digest_file, expected_parsed);
  if (!problem.empty()) outcome.Fail(problem);
  const double bytes_written =
      static_cast<double>(std::filesystem::file_size(job.groups()) +
                          std::filesystem::file_size(job.output()));
  const double write_amp =
      bytes_written / static_cast<double>(kRecords * kDim * 8);
  condensa::StatusOr<double> mu =
      condensa::metrics::CovarianceCompatibility(input, warm.release);
  if (!mu.ok()) outcome.Fail("release mu: " + mu.status().ToString());
  warm.release = condensa::data::Dataset(0);

  std::vector<JobTimes> untraced, traced;
  RunRounds(options.seconds, options.trace, kTailJobs,
            [&](std::size_t) -> std::optional<JobTimes> {
              if (!time_setup()) return std::nullopt;
              ++outcome.attempted;
              JobOutput out = job.Run();
              if (!out.ok) {
                ++outcome.failed;
                outcome.Fail("job: " + out.error);
                return std::nullopt;
              }
              problem = CheckRelease(out.release, input.size(),
                                     out.achieved_k, kGroupSize, digest);
              if (!problem.empty()) {
                ++outcome.failed;
                outcome.Fail("job: " + problem);
              }
              return out.times;
            },
            &untraced, &traced);
  if (untraced.empty()) return outcome;

  // The last job's file must parse back to the same release.
  parsed_digest = ParsedDigest(job.output());
  if (!parsed_digest.ok() || *parsed_digest != expected_parsed) {
    outcome.Fail("the last release file does not parse back to the "
                 "warm-up release");
  }

  // Medians over jobs of one stage's (or the whole job's) cost.
  auto median_of = [](const std::vector<JobTimes>& jobs,
                      Cost JobTimes::*stage, double Cost::*clock) {
    std::vector<double> values;
    for (const JobTimes& t : jobs) values.push_back(t.*stage.*clock);
    return Median(values);
  };

  if (!options.trace) {
    std::vector<double> cpu_us, wall_us, io_calls, first_us;
    for (const JobTimes& t : untraced) {
      cpu_us.push_back(1e6 * t.loop.cpu);
      wall_us.push_back(1e6 * t.loop.WallLessFsync());
      io_calls.push_back(static_cast<double>(t.io_calls));
      if (first_us.size() < kTailJobs) first_us.push_back(cpu_us.back());
    }
    LogSpread("set-up cpu s", setups);
    LogSpread("job cpu us", cpu_us);
    LogSpread("job wall us", wall_us);
    auto& v = outcome.values;
    v["setup_s"] = Median(setups);
    v["ops_per_s"] = MedianOpsPerSecond(untraced, &Cost::cpu);
    v["latency_p50_us"] = Median(cpu_us);
    // Too few jobs for a resolved percentile: the costliest of the first
    // kTailJobs jobs.
    v["latency_p90_us"] = TailPercentile(first_us, 0.90).value;
    v["wall_latency_p50_us"] = Median(wall_us);
    v["io_calls_per_op"] = Median(io_calls);
    v["write_amp"] = write_amp;
    v["release_mu"] = mu.ok() ? *mu : 0.0;
    std::fprintf(stderr,
                 "condense_csv: %zu jobs, %zu records each; the tail is the "
                 "costliest of the first %zu\n",
                 untraced.size(), kRecords, first_us.size());
    return outcome;
  }

  std::vector<double> cpu_coverage, wall_coverage;
  for (const JobTimes& t : traced) {
    const Cost sum = t.StageSum();
    cpu_coverage.push_back(sum.cpu / t.loop.cpu);
    wall_coverage.push_back(sum.wall / t.loop.wall);
  }
  auto cpu = [&](Cost JobTimes::*stage) {
    return median_of(traced, stage, &Cost::cpu);
  };
  auto wall = [&](Cost JobTimes::*stage) {
    return median_of(traced, stage, &Cost::wall);
  };
  auto& v = outcome.values;
  v["data.read_csv_s"] = cpu(&JobTimes::read);
  v["data.write_csv_s"] = cpu(&JobTimes::write);
  v["core.condense_s"] = cpu(&JobTimes::condense);
  v["core.save_pools_s"] = cpu(&JobTimes::save);
  v["core.generate_s"] = cpu(&JobTimes::generate);
  v["bench.layer_coverage"] = Median(cpu_coverage);
  v["bench.layer_wall_coverage"] = Median(wall_coverage);
  AddTraceOverhead(untraced, traced, &v);
  std::fprintf(
      stderr,
      "aim-1 split (median of %zu traced jobs): `condense` on %zuk x %zu "
      "records with %zu classes and k=%zu takes %.2f s of wall time. CSV "
      "read takes %.2f s and CSV write %.2f s. Condensation takes %.2f s "
      "(%zu threads), saving the pools %.2f s and generation %.2f s. The "
      "stages cover %.1f%% of the wall time.\n"
      "same on the CPU clock: job %.2f s; read %.2f, write %.2f, condense "
      "%.2f, save %.2f, generate %.2f s; stages cover %.1f%%.\n",
      traced.size(), kRecords / 1000, kDim, kClasses, kGroupSize,
      wall(&JobTimes::loop), wall(&JobTimes::read), wall(&JobTimes::write),
      wall(&JobTimes::condense), threads, wall(&JobTimes::save),
      wall(&JobTimes::generate), 100.0 * Median(wall_coverage),
      cpu(&JobTimes::loop), cpu(&JobTimes::read), cpu(&JobTimes::write),
      cpu(&JobTimes::condense), cpu(&JobTimes::save),
      cpu(&JobTimes::generate), 100.0 * Median(cpu_coverage));
  return outcome;
}

}  // namespace perfbench
