// P1-P7: google-benchmark microbenchmarks for the computational kernels —
// the Jacobi eigensolver, static condensation, dynamic ingest, anonymized
// data generation, nearest-neighbour search — the text codecs that carry
// a release in and out (CSV, pools), query engine execution, and the
// binary checkpoint codec (journal entries, snapshots, replay).

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include <benchmark/benchmark.h>

#include "bench/bench_report.h"
#include "common/check.h"
#include "common/wire.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/anonymizer.h"
#include "core/checkpointing.h"
#include "core/dynamic_condenser.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "core/split.h"
#include "core/static_condenser.h"
#include "data/csv.h"
#include "datagen/random_covariance.h"
#include "index/kdtree.h"
#include "linalg/eigen.h"
#include "mining/knn.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/snapshot.h"

namespace {

using condensa::Rng;
using condensa::linalg::Vector;

std::vector<Vector> MakeCloud(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.Gaussian();
    }
    points.push_back(std::move(p));
  }
  return points;
}

// P1: Jacobi eigendecomposition vs matrix dimension.
void BM_JacobiEigen(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  condensa::linalg::Matrix cov = condensa::datagen::RandomCovariance(
      condensa::datagen::GeometricSpectrum(dim, 4.0, 0.8), rng);
  for (auto _ : state) {
    auto result = condensa::linalg::JacobiEigenDecomposition(cov);
    CONDENSA_CHECK(result.ok());
    benchmark::DoNotOptimize(result->eigenvalues);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JacobiEigen)->RangeMultiplier(2)->Range(2, 64)->Complexity();

// P2: static condensation vs dataset size (k = 20, d = 8).
void BM_StaticCondense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 2);
  condensa::core::StaticCondenser condenser({.group_size = 20});
  Rng rng(3);
  for (auto _ : state) {
    auto groups = condenser.Condense(points, rng);
    CONDENSA_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups->num_groups());
  }
  state.SetComplexityN(state.range(0));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StaticCondense)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity();

// P2c: the same hot path on the deletion-aware k-d tree; compare against
// BM_StaticCondenseBrute at matching sizes for the crossover point.
void BM_StaticCondenseIndexed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 2);
  condensa::core::StaticCondenser condenser(
      {.group_size = 20,
       .neighbour_search = condensa::core::NeighbourSearch::kKdTree});
  Rng rng(3);
  for (auto _ : state) {
    auto groups = condenser.Condense(points, rng);
    CONDENSA_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups->num_groups());
  }
  state.SetComplexityN(state.range(0));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StaticCondenseIndexed)
    ->RangeMultiplier(2)
    ->Range(256, 16384)
    ->Complexity();

// P2d: forced brute force at index-territory sizes (the P2 default stops
// at 4096; this extends the scan so the two curves overlap).
void BM_StaticCondenseBrute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 2);
  condensa::core::StaticCondenser condenser(
      {.group_size = 20,
       .neighbour_search = condensa::core::NeighbourSearch::kBruteForce});
  Rng rng(3);
  for (auto _ : state) {
    auto groups = condenser.Condense(points, rng);
    CONDENSA_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups->num_groups());
  }
  state.SetComplexityN(state.range(0));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StaticCondenseBrute)
    ->RangeMultiplier(2)
    ->Range(256, 16384)
    ->Complexity();

// P2e: one class pool the size of condense_csv's largest (50k x 10,
// k = 10) on the index path, single-threaded: the neighbour-index upkeep
// (build, tombstone rebuilds, keyed leaf scans) at the scale where it
// dominates static condensation.
void BM_StaticCondensePool50k(benchmark::State& state) {
  constexpr std::size_t kRecords = 50000;
  std::vector<Vector> points = MakeCloud(kRecords, 10, 23);
  condensa::core::StaticCondenser condenser(
      {.group_size = 10,
       .neighbour_search = condensa::core::NeighbourSearch::kKdTree});
  Rng rng(24);
  for (auto _ : state) {
    auto groups = condenser.Condense(points, rng);
    CONDENSA_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups->num_groups());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRecords));
}
BENCHMARK(BM_StaticCondensePool50k)->Unit(benchmark::kMillisecond);

// P4c: whole-set generation at 1 thread vs all hardware threads.
void BM_GenerateParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(8192, 8, 17);
  condensa::core::StaticCondenser condenser({.group_size = 32});
  Rng setup_rng(18);
  auto groups = condenser.Condense(points, setup_rng);
  CONDENSA_CHECK(groups.ok());
  condensa::core::Anonymizer anonymizer({.num_threads = threads});
  Rng rng(19);
  for (auto _ : state) {
    auto generated = anonymizer.Generate(*groups, rng);
    CONDENSA_CHECK(generated.ok());
    benchmark::DoNotOptimize(generated->size());
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_GenerateParallel)
    ->Arg(1)
    ->Arg(static_cast<int>(condensa::ThreadPool::HardwareThreads()));

// P2b: static condensation vs group size (n = 2048, d = 8).
void BM_StaticCondenseByK(benchmark::State& state) {
  std::vector<Vector> points = MakeCloud(2048, 8, 4);
  condensa::core::StaticCondenser condenser(
      {.group_size = static_cast<std::size_t>(state.range(0))});
  Rng rng(5);
  for (auto _ : state) {
    auto groups = condenser.Condense(points, rng);
    CONDENSA_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups->num_groups());
  }
}
BENCHMARK(BM_StaticCondenseByK)->RangeMultiplier(4)->Range(2, 512);

// P3: dynamic ingest throughput (records/s through Insert, k = 20). The
// argument is the stream length; every insert scans all group centroids,
// so 4096 (~200 groups at the end) and 32768 (~1.6k groups) keep the
// routing cost against group count visible.
void BM_DynamicInsert(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> stream = MakeCloud(length, 8, 6);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    condensa::core::DynamicCondenser condenser(8, {.group_size = 20});
    std::vector<Vector> bootstrap(stream.begin(), stream.begin() + 256);
    CONDENSA_CHECK(condenser.Bootstrap(bootstrap, rng).ok());
    state.ResumeTiming();
    for (std::size_t i = 256; i < stream.size(); ++i) {
      CONDENSA_CHECK(condenser.Insert(stream[i]).ok());
    }
    benchmark::DoNotOptimize(condenser.groups().num_groups());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size() - 256));
}
BENCHMARK(BM_DynamicInsert)->Arg(4096)->Arg(32768);

// P3c: deletion throughput (Remove with re-merge bookkeeping, k = 20).
void BM_DynamicRemove(benchmark::State& state) {
  std::vector<Vector> stream = MakeCloud(2048, 8, 14);
  Rng rng(15);
  for (auto _ : state) {
    state.PauseTiming();
    condensa::core::DynamicCondenser condenser(8, {.group_size = 20});
    CONDENSA_CHECK(condenser.Bootstrap(stream, rng).ok());
    state.ResumeTiming();
    for (std::size_t i = 0; i < 1024; ++i) {
      CONDENSA_CHECK(condenser.Remove(stream[i]).ok());
    }
    benchmark::DoNotOptimize(condenser.groups().num_groups());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DynamicRemove);

// P3b: one statistics-only group split.
void BM_SplitGroupStatistics(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(40, dim, 8);
  condensa::core::GroupStatistics group(dim);
  for (const Vector& p : points) group.Add(p);
  for (auto _ : state) {
    auto split = condensa::core::SplitGroupStatistics(group);
    CONDENSA_CHECK(split.ok());
    benchmark::DoNotOptimize(split->lower.count());
  }
}
BENCHMARK(BM_SplitGroupStatistics)->RangeMultiplier(2)->Range(2, 64);

// P4: anonymized-record generation rate from one group.
void BM_AnonymizeGeneration(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(50, dim, 9);
  condensa::core::GroupStatistics group(dim);
  for (const Vector& p : points) group.Add(p);
  condensa::core::Anonymizer anonymizer;
  Rng rng(10);
  for (auto _ : state) {
    auto generated = anonymizer.GenerateFromGroup(group, 50, rng);
    CONDENSA_CHECK(generated.ok());
    benchmark::DoNotOptimize(generated->size());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_AnonymizeGeneration)->RangeMultiplier(2)->Range(2, 64);

// P5: k-d tree build cost vs point count (d = 8).
void BM_KdTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 12);
  for (auto _ : state) {
    auto tree = condensa::index::KdTree::Build(points);
    CONDENSA_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree->size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

// P5b: k-d tree 5-NN query vs brute force at matching sizes (d = 8).
void BM_KdTreeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 13);
  auto tree = condensa::index::KdTree::Build(points);
  CONDENSA_CHECK(tree.ok());
  Vector query(8, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->KNearest(query, 5));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KdTreeQuery)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

// P4b: 1-NN query cost against a released dataset.
void BM_KnnPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Vector> points = MakeCloud(n, 8, 11);
  condensa::data::Dataset train(8, condensa::data::TaskType::kClassification);
  for (std::size_t i = 0; i < points.size(); ++i) {
    train.Add(points[i], static_cast<int>(i % 2));
  }
  condensa::mining::KnnClassifier knn({.k = 1});
  CONDENSA_CHECK(knn.Fit(train).ok());
  Vector query(8, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.Predict(query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KnnPredict)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

// P5: codecs on the condense_csv shape — 100k records x 10
// features, 3 classes — so the codec layer can be timed on its own.
constexpr std::size_t kCodecRecords = 100000;
constexpr std::size_t kCodecDim = 10;

const condensa::data::Dataset& CodecDataset() {
  static const condensa::data::Dataset dataset = [] {
    condensa::data::Dataset out(kCodecDim,
                                condensa::data::TaskType::kClassification);
    for (Vector& record : MakeCloud(kCodecRecords, kCodecDim, 21)) {
      out.Add(std::move(record), static_cast<int>(out.size() % 3));
    }
    return out;
  }();
  return dataset;
}

void BM_CsvWrite(benchmark::State& state) {
  const condensa::data::Dataset& dataset = CodecDataset();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = condensa::data::WriteCsvToString(dataset);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
    bytes = text.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCodecRecords));
}
BENCHMARK(BM_CsvWrite)->Unit(benchmark::kMillisecond);

void BM_CsvRead(benchmark::State& state) {
  const std::string text = condensa::data::WriteCsvToString(CodecDataset());
  condensa::data::CsvReadOptions options;
  options.task = condensa::data::TaskType::kClassification;
  for (auto _ : state) {
    auto parsed = condensa::data::ReadCsvFromString(text, options);
    CONDENSA_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->dataset.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCodecRecords));
}
BENCHMARK(BM_CsvRead)->Unit(benchmark::kMillisecond);

// Pools of a k = 10 static condensation of the codec dataset: about 10k
// groups in 3 labeled pools, what condense_csv saves.
const condensa::core::CondensedPools& CodecPools() {
  static const condensa::core::CondensedPools pools = [] {
    condensa::core::CondensationConfig config;
    config.group_size = 10;
    Rng rng(22);
    auto condensed = condensa::core::CondensationEngine(config).Condense(
        CodecDataset(), rng);
    CONDENSA_CHECK(condensed.ok());
    return *std::move(condensed);
  }();
  return pools;
}

// The v2 pools encoder SavePools writes with.
void BM_SerializePools(benchmark::State& state) {
  const condensa::core::CondensedPools& pools = CodecPools();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = condensa::core::SerializePools(pools);
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
    bytes = text.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SerializePools)->Unit(benchmark::kMillisecond);

// Decodes the same pools from the v1 text earlier builds wrote (case 1:
// the pools header and per-pool lines around the group-set text) and
// from the v2 file (case 2).
void BM_DeserializePools(benchmark::State& state) {
  const condensa::core::CondensedPools& pools = CodecPools();
  std::string file;
  if (state.range(0) == 1) {
    file = "condensa-pools v1\ntask " +
           std::to_string(static_cast<int>(pools.task)) + " feature_dim " +
           std::to_string(pools.feature_dim) + " pools " +
           std::to_string(pools.pools.size()) + "\n";
    for (const condensa::core::CondensedPools::Pool& pool : pools.pools) {
      file += "pool label " + std::to_string(pool.label) + " splits " +
              std::to_string(pool.splits) + "\n" +
              condensa::core::SerializeGroupSet(pool.groups);
    }
  } else {
    file = condensa::core::SerializePools(pools);
  }
  for (auto _ : state) {
    auto parsed = condensa::core::DeserializePools(file);
    CONDENSA_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->pools.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(file.size()));
}
BENCHMARK(BM_DeserializePools)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// P6: query engine execution on the query_serve shape — a k = 10
// condensation of the codec dataset, about 10k groups in 3 labeled
// pools. Cases 0–2, one per kind: classify 32 points against 3
// neighbours, aggregate over the half-space below the median centroid on
// dimension 0 (the moment-tree fold), and regenerate one record per
// group in a window of 1/8% of the groups, with every factorization
// already cached. Cases 3 and 4 are aggregates too: the quarter below
// the medians of dimensions 0 and 1 (the candidate walk and its (pool,
// group)-order fold), and match-all (one root read).
const condensa::query::QuerySnapshot& QuerySnapshotFixture() {
  static const condensa::query::QuerySnapshot snapshot = [] {
    condensa::core::CondensationConfig config;
    config.group_size = 10;
    Rng rng(23);
    auto pools = condensa::core::CondensationEngine(config).Condense(
        CodecDataset(), rng);
    CONDENSA_CHECK(pools.ok());
    return condensa::query::SnapshotFromPools(*pools);
  }();
  return snapshot;
}

void BM_QueryExecute(benchmark::State& state) {
  using condensa::query::QueryKind;
  const condensa::query::QuerySnapshot& snapshot = QuerySnapshotFixture();
  // Sorted centroid coordinates on dimensions 0 and 1.
  std::vector<double> centers[2];
  for (std::size_t d = 0; d < 2; ++d) {
    for (const condensa::query::LabeledGroups& pool : snapshot.pools) {
      for (const auto& group : pool.groups.groups()) {
        centers[d].push_back(group.Centroid()[d]);
      }
    }
    std::sort(centers[d].begin(), centers[d].end());
  }
  auto below_median = [&centers](std::size_t d) {
    return condensa::query::RangePredicate::Bound{
        d, centers[d].front(), centers[d][centers[d].size() / 2]};
  };

  condensa::query::Query query;
  const std::int64_t variant = state.range(0);
  query.kind = variant <= 2 ? static_cast<QueryKind>(variant)
                            : QueryKind::kAggregate;
  std::string label = condensa::query::QueryKindName(query.kind);
  switch (query.kind) {
    case QueryKind::kClassify:
      query.classify.points = MakeCloud(32, kCodecDim, 24);
      query.classify.neighbors = 3;
      break;
    case QueryKind::kAggregate:
      if (variant == 1) {
        query.aggregate.range.bounds.push_back(below_median(0));
      } else if (variant == 3) {
        query.aggregate.range.bounds.push_back(below_median(0));
        query.aggregate.range.bounds.push_back(below_median(1));
        label += "-two-bounds";
      } else {
        label += "-all";
      }
      break;
    case QueryKind::kRegenerate: {
      const std::vector<double>& sorted = centers[0];
      const std::size_t width = std::max<std::size_t>(1, sorted.size() / 800);
      const std::size_t lo = sorted.size() / 3;
      query.regenerate.range.bounds.push_back(
          {0, sorted[lo], sorted[lo + width - 1]});
      query.regenerate.records_per_group = 1;
      query.regenerate.seed = 5;
      break;
    }
  }
  condensa::query::QueryEngineOptions options;
  options.eigen_cache_capacity = snapshot.TotalGroups();
  condensa::query::QueryEngine engine(options);
  CONDENSA_CHECK(engine.Execute(snapshot, query).ok());  // warm the cache
  for (auto _ : state) {
    auto result = engine.Execute(snapshot, query);
    CONDENSA_CHECK(result.ok());
    benchmark::DoNotOptimize(result->snapshot_version);
  }
  state.SetLabel(label);
}
BENCHMARK(BM_QueryExecute)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

// P7: checkpoint codec on the sharded_stream shape — d = 10, a k = 10
// state of 112 groups, and 1,024 records after it; no fsync.
constexpr std::size_t kCheckpointDim = 10;
constexpr std::size_t kCheckpointRecords = 1024;

struct CheckpointInputs {
  condensa::core::DynamicCondenser condenser{kCheckpointDim,
                                             {.group_size = 10}};
  std::vector<Vector> records;
};

const CheckpointInputs& GetCheckpointInputs() {
  static const CheckpointInputs* inputs = [] {
    auto* out = new CheckpointInputs;
    Rng rng(31);
    CONDENSA_CHECK(
        out->condenser.Bootstrap(MakeCloud(1120, kCheckpointDim, 32), rng)
            .ok());
    CONDENSA_CHECK_EQ(out->condenser.groups().num_groups(), 112u);
    out->records = MakeCloud(kCheckpointRecords, kCheckpointDim, 33);
    return out;
  }();
  return *inputs;
}

void BM_CheckpointJournalEncode(benchmark::State& state) {
  const CheckpointInputs& inputs = GetCheckpointInputs();
  std::size_t bytes = 0;
  for (auto _ : state) {
    condensa::WireWriter journal;
    journal.Reserve(kCheckpointRecords *
                    condensa::core::JournalEntryBytes(kCheckpointDim));
    for (const Vector& record : inputs.records) {
      condensa::core::AppendJournalEntry(journal, 'i', record);
    }
    benchmark::DoNotOptimize(journal.buffer().data());
    bytes = journal.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCheckpointRecords));
}
BENCHMARK(BM_CheckpointJournalEncode)->Unit(benchmark::kMicrosecond);

void BM_CheckpointSnapshotEncode(benchmark::State& state) {
  const condensa::core::DynamicCondenser& condenser =
      GetCheckpointInputs().condenser;
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string encoded =
        condensa::core::SerializeCondenserState(condenser, 1);
    benchmark::DoNotOptimize(encoded.data());
    bytes = encoded.size();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSnapshotEncode)->Unit(benchmark::kMicrosecond);

// Load of a checkpoint directory: decode the 112-group snapshot and
// replay the 1,024 journaled inserts.
void BM_CheckpointReplay(benchmark::State& state) {
  const CheckpointInputs& inputs = GetCheckpointInputs();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("condensa_perf_micro_replay_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto durable = condensa::core::DurableCondenser::Create(
        kCheckpointDim, {.group_size = 10},
        {.snapshot_interval = 2 * kCheckpointRecords,
         .sync_every_append = false},
        dir.string());
    CONDENSA_CHECK(durable.ok());
    Rng rng(31);
    CONDENSA_CHECK(
        durable->Bootstrap(MakeCloud(1120, kCheckpointDim, 32), rng).ok());
    for (const Vector& record : inputs.records) {
      CONDENSA_CHECK(durable->Insert(record).ok());
    }
  }
  for (auto _ : state) {
    auto loaded =
        condensa::core::DurableCondenser::Load(dir.string(), {.group_size = 10});
    CONDENSA_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->records_seen());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCheckpointRecords));
}
BENCHMARK(BM_CheckpointReplay)->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run can finish with a BENCH_*.json
// carrying the instrument counters the benchmarks drove.
int main(int argc, char** argv) {
  condensa::bench::BenchReporter reporter("perf_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  reporter.AddScalar(
      "benchmarks_run",
      static_cast<double>(benchmark::RunSpecifiedBenchmarks()));
  benchmark::Shutdown();
  return reporter.Finish() ? 0 : 1;
}
