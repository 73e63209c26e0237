// Helpers shared by the perfbench workloads: order statistics, the
// release digest and answer comparison used by the correctness checks,
// span timing, counter reads, the round loop and the one-line JSON
// report.
//
// Everything here is harness code. The workloads call the program only
// through the public headers under src/, and time those calls themselves.
#ifndef PERFBENCH_HARNESS_SUPPORT_H_
#define PERFBENCH_HARNESS_SUPPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Order statistics.

// Median of `values` (mean of the middle pair for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// A latency percentile under the "at least ten samples beyond it" rule.
// `value` is the nearest-rank percentile (the smallest sample with at
// least q·n samples at or below it) when at least ten samples lie
// strictly above that rank; otherwise it is the largest sample and
// `resolved` is false. `beyond` is the number of samples above the rank
// the value was read from.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
  bool resolved = false;
};
Tail TailPercentile(std::vector<double> samples, double q);

// Prints "<what>: n=.. min .. median .. max .." on stderr, so a run shows
// how much its rounds varied.
void LogSpread(const char* what, const std::vector<double>& values);

// The end-to-end tail of a run: latency_p90_us, the median over rounds
// of each round's p90. Every round holds the same fixed number of ops,
// so a faster build reads its tail from as many samples per round, and
// the median over rounds passes over a slow spell of the shared VM that
// covers fewer than half of them. The p99 over all ops, with its count
// beyond, is printed on stderr; it is not bounded, as slow spells hit a
// few percent of the ops and p99 reads them or not from run to run.
void AddTail(const std::vector<std::vector<double>>& rounds,
             std::map<std::string, double>* values);

// ---------------------------------------------------------------------------
// Correctness checks.

// FNV-1a over the bit patterns of every released value, row-major, then
// each row's label (classification) or target (regression). Two releases
// have equal digests iff (up to hash collisions) they hold bit-identical
// values in the same order.
std::uint64_t ReleaseDigest(const condensa::data::Dataset& release);

// Checks one condense release: as many rows as the input, an achieved
// indistinguishability level of at least `min_k`, and a digest equal to
// `expected_digest`. Returns "" when all hold, else what failed.
std::string CheckRelease(const condensa::data::Dataset& release,
                         std::size_t input_rows, std::size_t achieved_k,
                         std::size_t min_k, std::uint64_t expected_digest);

// Compares the answer parts of two query results bit for bit (kind,
// classify labels, aggregate counts and moments, regenerated records);
// the snapshot version and staleness stamps are not part of the answer.
// Returns "" when they are equal, else the first difference.
std::string CompareAnswers(const condensa::query::QueryResult& got,
                           const condensa::query::QueryResult& want);

// Covariance compatibility μ of a release regenerated (one thread, Rng
// seeded with `seed`) from `groups` against `input`.
condensa::StatusOr<double> ReleaseMu(
    const condensa::core::CondensedGroupSet& groups,
    const condensa::data::Dataset& input, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Timing, I/O calls and counters.

// CPU time consumed so far by every thread of this process, or by the
// calling thread only, in seconds, with the CPU time spent inside fsync
// left out. The kernel's flush work depends on the shared disk under the
// checkout and swings with its load; the number of fsyncs and the bytes
// written are reported exactly on their own (io_calls_per_op, write_amp).
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// fsync and send calls made by this process, counted by the wrappers in
// io_count.cc; the wall-clock seconds the calling thread has spent
// inside fsync; and the CPU seconds spent inside fsync by the calling
// thread or by every thread.
std::uint64_t FsyncCalls();
std::uint64_t SendCalls();
double ThreadFsyncSeconds();
double ThreadFsyncCpuSeconds();
double ProcessFsyncCpuSeconds();

// I/O calls counted from construction, for the exact io_calls_per_op
// metric.
class IoCalls {
 public:
  IoCalls() : fsyncs0_(FsyncCalls()), sends0_(SendCalls()) {}
  std::uint64_t Fsyncs() const { return FsyncCalls() - fsyncs0_; }
  std::uint64_t Sends() const { return SendCalls() - sends0_; }
  std::uint64_t Total() const { return Fsyncs() + Sends(); }

 private:
  std::uint64_t fsyncs0_;
  std::uint64_t sends0_;
};

// What one timed call cost: wall-clock seconds, CPU seconds outside
// fsync, and the wall-clock seconds the calling thread spent inside
// fsync.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
  double fsync = 0.0;
  // Wall-clock time with the fsync waits taken out: the flush latency
  // belongs to the disk under the checkout, not to the program, and the
  // number of fsyncs is reported exactly on its own.
  double WallLessFsync() const { return wall - fsync; }
};

// Which CPU clock Timed reads: the whole process (calls that fan out to
// other threads, or wait on a server in this process) or the calling
// thread (calls made while other threads run unrelated work).
enum class CpuClock { kProcess, kThread };

// Runs `fn` inside an obs::TraceSpan named `span` and returns its cost.
// The span lands in the chrome://tracing dump only while obs tracing is
// on (the --trace 1 run); otherwise it costs one flag read.
template <typename Fn>
Cost Timed(std::string_view span, Fn&& fn,
           CpuClock clock = CpuClock::kProcess) {
  auto cpu_now = [clock] {
    return clock == CpuClock::kProcess ? ProcessCpuSeconds()
                                       : ThreadCpuSeconds();
  };
  condensa::obs::TraceSpan trace(span);
  const double fsync0 = ThreadFsyncSeconds();
  const Clock::time_point start = Clock::now();
  const double cpu0 = cpu_now();
  std::forward<Fn>(fn)();
  Cost cost;
  cost.cpu = cpu_now() - cpu0;
  cost.wall = SecondsSince(start);
  cost.fsync = ThreadFsyncSeconds() - fsync0;
  return cost;
}

// Current value of a default-registry counter (0 if never registered).
std::uint64_t CounterValue(std::string_view name,
                           const condensa::obs::Labels& labels = {});

// Default-registry counters read at construction; Delta(name) is how
// much one has grown since. Only the names given may be asked for.
class CounterDeltas {
 public:
  explicit CounterDeltas(std::initializer_list<const char*> names);
  std::uint64_t Delta(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> start_;
};

// Sum of condensa_query_rejected_total over every shedding reason.
std::uint64_t AdmissionSheds();

// Peak resident set size of this process, in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// The round loop.

// Runs fixed-work rounds until `seconds` have passed and at least
// `min_rounds` untraced rounds are done. `round(index)` returns the
// round's record, or nullopt to stop the run (it has recorded why).
// With `trace`, the first half of the time runs untraced and the rest
// with obs tracing on, and at least one traced round is made; the
// traced rounds go to `traced`, the others to `untraced`. Returns false
// if a round stopped the run.
template <typename Round, typename Fn>
bool RunRounds(double seconds, bool trace, std::size_t min_rounds,
               Fn&& round, std::vector<Round>* untraced,
               std::vector<Round>* traced) {
  bool tracing = false;
  const Clock::time_point start = Clock::now();
  for (std::size_t index = 0;; ++index) {
    if (trace && !tracing && untraced->size() >= min_rounds &&
        SecondsSince(start) >= seconds / 2) {
      condensa::obs::StartTracing();
      tracing = true;
    }
    std::optional<Round> r = round(index);
    if (!r.has_value()) return false;
    (tracing ? traced : untraced)->push_back(std::move(*r));
    if (SecondsSince(start) >= seconds && untraced->size() >= min_rounds &&
        (!trace || !traced->empty())) {
      return true;
    }
  }
}

// Median over rounds of ops / loop time on one clock. Round has members
// `double ops` and `Cost loop`.
template <typename Round>
double MedianOpsPerSecond(const std::vector<Round>& rounds,
                          double Cost::*clock) {
  std::vector<double> rates;
  for (const Round& r : rounds) rates.push_back(r.ops / (r.loop.*clock));
  LogSpread(clock == &Cost::cpu ? "round ops/cpu-s" : "round ops/wall-s",
            rates);
  return Median(rates);
}

// The traced run's overhead metrics: traced minus untraced ops_per_s on
// the CPU clock, absolute and as a share, plus the untraced wall rate.
template <typename Round>
void AddTraceOverhead(const std::vector<Round>& untraced,
                      const std::vector<Round>& traced,
                      std::map<std::string, double>* values) {
  const double untraced_ops = MedianOpsPerSecond(untraced, &Cost::cpu);
  const double traced_ops = MedianOpsPerSecond(traced, &Cost::cpu);
  (*values)["bench.wall_ops_per_s"] =
      MedianOpsPerSecond(untraced, &Cost::wall);
  (*values)["bench.trace_delta_ops_per_s"] = traced_ops - untraced_ops;
  (*values)["bench.trace_overhead_pct"] =
      100.0 * (untraced_ops - traced_ops) / untraced_ops;
}

// ---------------------------------------------------------------------------
// Report.

// The metrics of one run, printed as the last stdout line:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
// {"value": .., "unit": ..}}}. Values keep all their digits.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  std::string Json(bool correct, std::size_t attempted,
                   std::size_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SUPPORT_H_
