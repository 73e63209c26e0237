// Tests of the perfbench helpers: the tail-percentile rule, the median,
// the release digest, the fsync and send counts, and that the
// correctness checks catch a tampered release or a wrong query answer. Run through ctest in the perfbench
// build, or by `python3 perfbench/run.py --self-test`.
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"
#include "support.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailPercentile() {
  // 1000 samples: p99 is the 990th with exactly ten samples beyond it.
  perfbench::Tail p99 = perfbench::TailPercentile(OneTo(1000), 0.99);
  EXPECT(p99.resolved);
  EXPECT(p99.value == 990.0);
  EXPECT(p99.beyond == 10);
  // p99.9 of 1000 samples has one sample beyond: unresolved, reads max.
  perfbench::Tail p999 = perfbench::TailPercentile(OneTo(1000), 0.999);
  EXPECT(!p999.resolved);
  EXPECT(p999.value == 1000.0);
  // 999 samples: p99 rank 990 leaves nine beyond, one too few.
  EXPECT(!perfbench::TailPercentile(OneTo(999), 0.99).resolved);
  // 10000 samples resolve p99.9 with ten beyond.
  perfbench::Tail big = perfbench::TailPercentile(OneTo(10000), 0.999);
  EXPECT(big.resolved && big.value == 9990.0 && big.beyond == 10);
  EXPECT(perfbench::TailPercentile({}, 0.99).value == 0.0);
}

// latency_p90_us is the median over rounds of each round's p90.
void TestAddTail() {
  std::map<std::string, double> values;
  // p90s 90, 180 and 270000 (a slow round): the median is 180.
  std::vector<double> slow = OneTo(300);
  for (double& x : slow) x *= 1000.0;
  perfbench::AddTail({OneTo(100), OneTo(200), slow}, &values);
  EXPECT(values.size() == 1 && values["latency_p90_us"] == 180.0);
}

void TestMedian() {
  EXPECT(perfbench::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(perfbench::Median({}) == 0.0);
}

// The wrappers in io_count.cc count every fsync and send of the process
// and the wall-clock and CPU time spent in fsync.
void TestIoCalls() {
  // A scratch file in the working directory (run.py runs this test from
  // the build directory).
  char path[] = "perfbench_selftest_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT(fd >= 0);
  if (fd < 0) return;
  const perfbench::IoCalls io;
  const double fsync0 = perfbench::ThreadFsyncSeconds();
  const double fsync_cpu0 = perfbench::ThreadFsyncCpuSeconds();
  EXPECT(::write(fd, "x", 1) == 1);
  EXPECT(::fsync(fd) == 0);
  EXPECT(::fsync(fd) == 0);
  EXPECT(io.Fsyncs() == 2 && io.Sends() == 0);
  EXPECT(perfbench::ThreadFsyncSeconds() > fsync0);
  EXPECT(perfbench::ThreadFsyncCpuSeconds() > fsync_cpu0);
  EXPECT(perfbench::ProcessFsyncCpuSeconds() >=
         perfbench::ThreadFsyncCpuSeconds());
  EXPECT(::fsync(-1) == -1);  // errors pass through, and still count
  EXPECT(io.Fsyncs() == 3);
  ::close(fd);
  ::unlink(path);

  int pair[2];
  EXPECT(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0);
  EXPECT(::send(pair[0], "ab", 2, 0) == 2);
  char got[2] = {0, 0};
  EXPECT(::recv(pair[1], got, 2, 0) == 2 && got[0] == 'a' && got[1] == 'b');
  EXPECT(io.Sends() == 1 && io.Total() == 4);
  ::close(pair[0]);
  ::close(pair[1]);
}

condensa::data::Dataset SmallRelease() {
  condensa::data::Dataset d(2, condensa::data::TaskType::kClassification);
  d.Add(condensa::linalg::Vector(std::vector<double>{1.0, 2.0}), 0);
  d.Add(condensa::linalg::Vector(std::vector<double>{3.0, 4.0}), 1);
  d.Add(condensa::linalg::Vector(std::vector<double>{5.0, 6.0}), 1);
  return d;
}

void TestReleaseDigestAndCheck() {
  const condensa::data::Dataset release = SmallRelease();
  const std::uint64_t digest = perfbench::ReleaseDigest(release);
  EXPECT(digest == perfbench::ReleaseDigest(SmallRelease()));
  EXPECT(perfbench::CheckRelease(release, 3, 10, 10, digest).empty());

  // A value moved by one ulp.
  condensa::data::Dataset tampered(2,
                                   condensa::data::TaskType::kClassification);
  tampered.Add(condensa::linalg::Vector(std::vector<double>{1.0, 2.0}), 0);
  tampered.Add(condensa::linalg::Vector(
                   std::vector<double>{std::nextafter(3.0, 4.0), 4.0}),
               1);
  tampered.Add(condensa::linalg::Vector(std::vector<double>{5.0, 6.0}), 1);
  EXPECT(perfbench::ReleaseDigest(tampered) != digest);
  EXPECT(!perfbench::CheckRelease(tampered, 3, 10, 10, digest).empty());

  // A relabelled row.
  condensa::data::Dataset relabelled(
      2, condensa::data::TaskType::kClassification);
  relabelled.Add(condensa::linalg::Vector(std::vector<double>{1.0, 2.0}), 1);
  relabelled.Add(condensa::linalg::Vector(std::vector<double>{3.0, 4.0}), 1);
  relabelled.Add(condensa::linalg::Vector(std::vector<double>{5.0, 6.0}), 1);
  EXPECT(perfbench::ReleaseDigest(relabelled) != digest);

  // Missing rows and a k below the floor are caught even with the right
  // digest.
  EXPECT(!perfbench::CheckRelease(release, 4, 10, 10, digest).empty());
  EXPECT(!perfbench::CheckRelease(release, 3, 9, 10, digest).empty());
}

condensa::query::QueryResult Aggregate() {
  condensa::query::QueryResult r;
  r.kind = condensa::query::QueryKind::kAggregate;
  r.aggregate.groups_matched = 4;
  r.aggregate.records = 40;
  r.aggregate.has_moments = true;
  r.aggregate.mean = condensa::linalg::Vector(std::vector<double>{0.5, 1.5});
  r.aggregate.covariance = condensa::linalg::Matrix(2, 2);
  r.aggregate.covariance(0, 0) = 1.0;
  r.aggregate.covariance(1, 1) = 2.0;
  return r;
}

void TestCompareAnswers() {
  const condensa::query::QueryResult want = Aggregate();
  condensa::query::QueryResult got = Aggregate();
  got.snapshot_version = 7;  // stamps are not part of the answer
  got.staleness_ms = 3.0;
  EXPECT(perfbench::CompareAnswers(got, want).empty());

  got.aggregate.covariance(1, 1) = std::nextafter(2.0, 3.0);
  EXPECT(!perfbench::CompareAnswers(got, want).empty());
  got = Aggregate();
  got.aggregate.mean[0] = std::nextafter(0.5, 0.0);
  EXPECT(!perfbench::CompareAnswers(got, want).empty());
  got = Aggregate();
  got.aggregate.records = 41;
  EXPECT(!perfbench::CompareAnswers(got, want).empty());

  condensa::query::QueryResult regen;
  regen.kind = condensa::query::QueryKind::kRegenerate;
  regen.regenerate.groups_matched = 1;
  regen.regenerate.records.push_back(
      condensa::linalg::Vector(std::vector<double>{1.0, 2.0}));
  condensa::query::QueryResult regen_bad = regen;
  EXPECT(perfbench::CompareAnswers(regen_bad, regen).empty());
  regen_bad.regenerate.records[0][1] = std::nextafter(2.0, 3.0);
  EXPECT(!perfbench::CompareAnswers(regen_bad, regen).empty());
  EXPECT(!perfbench::CompareAnswers(regen, want).empty());  // kind differs

  condensa::query::QueryResult classify;
  classify.kind = condensa::query::QueryKind::kClassify;
  classify.classify.labels = {0, 2, 1};
  condensa::query::QueryResult classify_bad = classify;
  classify_bad.classify.labels[1] = 1;
  EXPECT(!perfbench::CompareAnswers(classify_bad, classify).empty());
}

void TestReport() {
  perfbench::Report report;
  report.Add("latency_ms", 1.25, "ms");
  report.Add("setup_s", 0.1, "s");
  EXPECT(report.Json(true, 3, 0) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
         "{\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestAddTail();
  TestMedian();
  TestIoCalls();
  TestReleaseDigestAndCheck();
  TestCompareAnswers();
  TestReport();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
