// backend_sweep — utility/privacy comparison of anonymization backends.
//
// Sweeps the indistinguishability level k over the four paper dataset
// profiles (ionosphere, ecoli, pima, abalone) for every built-in
// anonymization backend and reports, per (profile, backend, k) cell:
//
//   accuracy     1-NN accuracy (within-one-year for abalone) of a model
//                trained on the anonymized release, scored on held-out
//                originals — the paper's utility axis
//   mu           covariance compatibility against the training originals
//   pinpointed   fraction of original records whose nearest release
//                record is closer than their nearest original neighbour
//                (metrics/privacy.h) — the disclosure-risk proxy
//   dist_gain    linkage distance gain (>= 1: the release localizes no
//                better than the population already does)
//
// Presets:
//   --preset=smoke   1 trial per cell; the CI perf-smoke job runs this.
//   --preset=full    3 trials per cell, averaged.
//
// Both presets cover every backend x k in {5, 10, 25, 50} x all four
// profiles, so BENCH_backend_sweep.json always carries the full grid.
// See docs/backends.md for the comparison this bench quantifies.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/engine.h"
#include "data/split.h"
#include "data/transform.h"
#include "datagen/profiles.h"
#include "metrics/compatibility.h"
#include "metrics/privacy.h"
#include "mining/evaluation.h"
#include "mining/knn.h"

namespace {

using condensa::Rng;
using condensa::Status;
using condensa::StatusOr;

struct ProfileSpec {
  const char* name;
  bool regression;
  double tolerance;  // regression: |prediction - target| <= tolerance
};

constexpr ProfileSpec kProfiles[] = {
    {"ionosphere", false, 0.0},
    {"ecoli", false, 0.0},
    {"pima", false, 0.0},
    {"abalone", true, 1.0},
};

constexpr std::size_t kGroupSizes[] = {5, 10, 25, 50};

struct CellOutcome {
  double average_group_size = 0.0;
  double accuracy = 0.0;
  double mu = 0.0;
  double pinpointed = 0.0;
  double distance_gain = 0.0;
};

StatusOr<double> Score(const condensa::data::Dataset& train,
                       const condensa::data::Dataset& test,
                       const ProfileSpec& profile) {
  if (profile.regression) {
    condensa::mining::KnnRegressor regressor({.k = 1});
    CONDENSA_RETURN_IF_ERROR(regressor.Fit(train));
    return condensa::mining::EvaluateWithinTolerance(regressor, test,
                                                     profile.tolerance);
  }
  condensa::mining::KnnClassifier classifier({.k = 1});
  CONDENSA_RETURN_IF_ERROR(classifier.Fit(train));
  return condensa::mining::EvaluateAccuracy(classifier, test);
}

StatusOr<CellOutcome> RunTrial(const ProfileSpec& profile,
                               const std::string& backend_id, std::size_t k,
                               std::uint64_t trial_seed) {
  Rng rng(trial_seed);
  CONDENSA_ASSIGN_OR_RETURN(
      condensa::data::Dataset dataset,
      condensa::datagen::MakeProfileByName(profile.name, rng, {}));
  CONDENSA_ASSIGN_OR_RETURN(condensa::data::TrainTestSplit split,
                            condensa::data::SplitTrainTest(dataset, 0.75,
                                                           rng));
  condensa::data::ZScoreScaler scaler;
  CONDENSA_RETURN_IF_ERROR(scaler.Fit(split.train));
  condensa::data::Dataset train = scaler.TransformDataset(split.train);
  condensa::data::Dataset test = scaler.TransformDataset(split.test);

  condensa::core::CondensationConfig config;
  config.group_size = k;
  config.mode = condensa::core::CondensationMode::kStatic;
  CONDENSA_ASSIGN_OR_RETURN(config.backend,
                            condensa::core::FindBackend(backend_id));
  condensa::core::CondensationEngine engine(config);
  CONDENSA_ASSIGN_OR_RETURN(condensa::core::AnonymizationResult result,
                            engine.Anonymize(train, rng));

  CellOutcome outcome;
  outcome.average_group_size = result.AverageGroupSize();
  CONDENSA_ASSIGN_OR_RETURN(outcome.accuracy,
                            Score(result.anonymized, test, profile));
  CONDENSA_ASSIGN_OR_RETURN(
      outcome.mu,
      condensa::metrics::CovarianceCompatibility(train, result.anonymized));
  CONDENSA_ASSIGN_OR_RETURN(
      condensa::metrics::LinkageReport linkage,
      condensa::metrics::EvaluateLinkage(train, result.anonymized));
  outcome.pinpointed = linkage.pinpointed_fraction;
  outcome.distance_gain = linkage.distance_gain;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "smoke";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--preset=", 9) == 0) {
      preset = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--preset=smoke|full]\n", argv[0]);
      return 2;
    }
  }
  const bool full = preset == "full";
  if (!full && preset != "smoke") {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  const std::size_t trials = full ? 3 : 1;
  const std::uint64_t seed = 42;

  const std::vector<std::string> backends = condensa::core::BackendIds();

  condensa::bench::BenchReporter reporter("backend_sweep");
  reporter.AddScalar("trials", static_cast<double>(trials));
  reporter.AddScalar("full_preset", full ? 1.0 : 0.0);
  // Row encoding: profile and backend travel as indices into the
  // mappings printed below (BenchReport rows are numeric).
  reporter.SetRowSchema({"profile", "backend", "k", "avg_group_size",
                         "accuracy", "mu", "pinpointed", "distance_gain"});

  std::printf("backend_sweep (%s): %zu trial(s) per cell\n", preset.c_str(),
              trials);
  std::printf("profile indices:");
  for (std::size_t p = 0; p < std::size(kProfiles); ++p) {
    std::printf(" %zu=%s", p, kProfiles[p].name);
  }
  std::printf("\nbackend indices:");
  for (std::size_t b = 0; b < backends.size(); ++b) {
    std::printf(" %zu=%s", b, backends[b].c_str());
  }
  std::printf("\n\n%-11s %-13s %4s %7s %9s %7s %11s %10s\n", "profile",
              "backend", "k", "avg|G|", "accuracy", "mu", "pinpointed",
              "dist_gain");

  for (std::size_t p = 0; p < std::size(kProfiles); ++p) {
    const ProfileSpec& profile = kProfiles[p];
    for (std::size_t b = 0; b < backends.size(); ++b) {
      for (std::size_t k : kGroupSizes) {
        CellOutcome mean;
        for (std::size_t trial = 0; trial < trials; ++trial) {
          // Trial seeds are independent of (backend, k) so every cell
          // sees the same data draws and differences are attributable
          // to the backend alone.
          StatusOr<CellOutcome> outcome =
              RunTrial(profile, backends[b], k, seed + 7919 * trial);
          if (!outcome.ok()) {
            std::fprintf(stderr, "%s/%s/k=%zu failed: %s\n", profile.name,
                         backends[b].c_str(), k,
                         outcome.status().ToString().c_str());
            return 1;
          }
          mean.average_group_size += outcome->average_group_size;
          mean.accuracy += outcome->accuracy;
          mean.mu += outcome->mu;
          mean.pinpointed += outcome->pinpointed;
          mean.distance_gain += outcome->distance_gain;
        }
        const double t = static_cast<double>(trials);
        mean.average_group_size /= t;
        mean.accuracy /= t;
        mean.mu /= t;
        mean.pinpointed /= t;
        mean.distance_gain /= t;

        std::printf("%-11s %-13s %4zu %7.2f %9.4f %7.4f %11.4f %10.3f\n",
                    profile.name, backends[b].c_str(), k,
                    mean.average_group_size, mean.accuracy, mean.mu,
                    mean.pinpointed, mean.distance_gain);
        reporter.AddRow({static_cast<double>(p), static_cast<double>(b),
                         static_cast<double>(k), mean.average_group_size,
                         mean.accuracy, mean.mu, mean.pinpointed,
                         mean.distance_gain});
      }
    }
  }

  return reporter.Finish() ? 0 : 1;
}
