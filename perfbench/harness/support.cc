#include "support.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "core/anonymizer.h"
#include "metrics/compatibility.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

Tail TailPercentile(std::vector<double> samples, double q) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank, 1-based: the smallest r with r >= q·n.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank >= 10) {
    tail.value = samples[rank - 1];
    tail.beyond = n - rank;
    tail.resolved = true;
  } else {
    tail.value = samples.back();
    tail.beyond = 0;
  }
  return tail;
}

void LogSpread(const char* what, const std::vector<double>& values) {
  if (values.empty()) return;
  std::fprintf(stderr, "%s: n=%zu min %.6g median %.6g max %.6g\n", what,
               values.size(), *std::min_element(values.begin(), values.end()),
               Median(values),
               *std::max_element(values.begin(), values.end()));
}

void AddTail(const std::vector<std::vector<double>>& rounds,
             std::map<std::string, double>* values) {
  std::vector<double> p90s, all;
  for (const std::vector<double>& round : rounds) {
    p90s.push_back(TailPercentile(round, 0.90).value);
    all.insert(all.end(), round.begin(), round.end());
  }
  (*values)["latency_p90_us"] = Median(p90s);
  LogSpread("round p90", p90s);
  const Tail p99 = TailPercentile(all, 0.99);
  std::fprintf(stderr, "p99 of all %zu ops: %.6g (%zu beyond)\n", all.size(),
               p99.value, p99.beyond);
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void HashBytes(const void* data, std::size_t size, std::uint64_t* hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= kFnvPrime;
  }
}

template <typename T>
void HashValue(T value, std::uint64_t* hash) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  HashBytes(bytes, sizeof(T), hash);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string FirstVectorDifference(const condensa::linalg::Vector& got,
                                  const condensa::linalg::Vector& want,
                                  const std::string& what) {
  if (got.dim() != want.dim()) {
    return what + " dimension " + std::to_string(got.dim()) + " != " +
           std::to_string(want.dim());
  }
  for (std::size_t i = 0; i < got.dim(); ++i) {
    if (!SameBits(got[i], want[i])) {
      return what + "[" + std::to_string(i) + "] differs";
    }
  }
  return "";
}

}  // namespace

std::uint64_t ReleaseDigest(const condensa::data::Dataset& release) {
  std::uint64_t hash = kFnvOffset;
  HashValue<std::uint64_t>(release.size(), &hash);
  HashValue<std::uint64_t>(release.dim(), &hash);
  for (std::size_t i = 0; i < release.size(); ++i) {
    const condensa::linalg::Vector& record = release.record(i);
    HashBytes(record.data(), record.dim() * sizeof(double), &hash);
    switch (release.task()) {
      case condensa::data::TaskType::kClassification:
        HashValue<std::int64_t>(release.label(i), &hash);
        break;
      case condensa::data::TaskType::kRegression:
        HashValue<double>(release.target(i), &hash);
        break;
      case condensa::data::TaskType::kUnlabeled:
        break;
    }
  }
  return hash;
}

std::string CheckRelease(const condensa::data::Dataset& release,
                         std::size_t input_rows, std::size_t achieved_k,
                         std::size_t min_k, std::uint64_t expected_digest) {
  if (release.size() != input_rows) {
    return "release has " + std::to_string(release.size()) +
           " rows, input has " + std::to_string(input_rows);
  }
  if (achieved_k < min_k) {
    return "achieved k " + std::to_string(achieved_k) + " < " +
           std::to_string(min_k);
  }
  if (ReleaseDigest(release) != expected_digest) {
    return "release digest differs from the first release of this seed";
  }
  return "";
}

std::string CompareAnswers(const condensa::query::QueryResult& got,
                           const condensa::query::QueryResult& want) {
  using condensa::query::QueryKind;
  if (got.kind != want.kind) return "query kind differs";
  switch (want.kind) {
    case QueryKind::kClassify:
      if (got.classify.labels != want.classify.labels) {
        return "classify labels differ";
      }
      return "";
    case QueryKind::kAggregate: {
      const auto& g = got.aggregate;
      const auto& w = want.aggregate;
      if (g.groups_matched != w.groups_matched || g.records != w.records ||
          g.has_moments != w.has_moments) {
        return "aggregate counts differ";
      }
      if (!w.has_moments) return "";
      std::string diff = FirstVectorDifference(g.mean, w.mean, "mean");
      if (!diff.empty()) return diff;
      if (g.covariance.rows() != w.covariance.rows() ||
          g.covariance.cols() != w.covariance.cols()) {
        return "covariance shape differs";
      }
      const auto& gv = g.covariance.values();
      const auto& wv = w.covariance.values();
      for (std::size_t i = 0; i < wv.size(); ++i) {
        if (!SameBits(gv[i], wv[i])) return "covariance differs";
      }
      return "";
    }
    case QueryKind::kRegenerate: {
      const auto& g = got.regenerate;
      const auto& w = want.regenerate;
      if (g.groups_matched != w.groups_matched ||
          g.records.size() != w.records.size()) {
        return "regenerate counts differ";
      }
      for (std::size_t i = 0; i < w.records.size(); ++i) {
        std::string diff = FirstVectorDifference(
            g.records[i], w.records[i], "record " + std::to_string(i));
        if (!diff.empty()) return diff;
      }
      return "";
    }
  }
  return "unknown query kind";
}

condensa::StatusOr<double> ReleaseMu(
    const condensa::core::CondensedGroupSet& groups,
    const condensa::data::Dataset& input, std::uint64_t seed) {
  condensa::core::AnonymizerOptions options;
  options.num_threads = 1;
  condensa::Rng rng(seed);
  CONDENSA_ASSIGN_OR_RETURN(
      std::vector<condensa::linalg::Vector> release,
      condensa::core::Anonymizer(options).Generate(groups, rng));
  condensa::data::Dataset released(input.dim());
  for (condensa::linalg::Vector& r : release) released.Add(std::move(r));
  return condensa::metrics::CovarianceCompatibility(input, released);
}

namespace {
double CpuClockSeconds(clockid_t clock) {
  struct timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ThreadCpuSeconds() {
  return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID) - ThreadFsyncCpuSeconds();
}

double ProcessCpuSeconds() {
  return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID) - ProcessFsyncCpuSeconds();
}

std::uint64_t CounterValue(std::string_view name,
                           const condensa::obs::Labels& labels) {
  return condensa::obs::DefaultRegistry().GetCounter(name, labels).value();
}

CounterDeltas::CounterDeltas(std::initializer_list<const char*> names) {
  for (const char* name : names) start_[name] = CounterValue(name);
}

std::uint64_t CounterDeltas::Delta(const std::string& name) const {
  return CounterValue(name) - start_.at(name);
}

std::uint64_t AdmissionSheds() {
  std::uint64_t total = 0;
  for (const char* reason : {"overload", "deadline", "shutting-down"}) {
    total += CounterValue("condensa_query_rejected_total",
                          {{"reason", reason}});
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string Report::Json(bool correct, std::size_t attempted,
                         std::size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    // Non-finite values are not JSON; they would mean a broken run.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : -1.0);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
