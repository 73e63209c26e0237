// Synthetic inputs for the workloads, derived only from the seed.
#include <cmath>

#include "common/random.h"
#include "linalg/vector.h"
#include "workloads.h"

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

condensa::data::Dataset MakeRecords(std::size_t n, std::size_t dim,
                                    std::size_t components, bool labeled,
                                    std::uint64_t seed) {
  // Each component: a mean and a dense mixing matrix, so attributes are
  // correlated and μ has structure to preserve. Weights 1, 2, .. keep
  // the classes unbalanced. The mixture itself is the same for every
  // seed, so every seed asks the program for the same amount of work;
  // the seed draws the records.
  condensa::Rng shape(0x5eed5eedull + 1000 * dim + components);
  std::vector<std::vector<double>> means(components);
  std::vector<std::vector<double>> mixing(components);
  std::vector<double> weights(components);
  for (std::size_t c = 0; c < components; ++c) {
    means[c].resize(dim);
    for (double& m : means[c]) m = shape.Gaussian(0.0, 4.0);
    mixing[c].resize(dim * dim);
    for (double& a : mixing[c]) {
      a = shape.Gaussian(0.0, 1.0) / std::sqrt(static_cast<double>(dim));
    }
    weights[c] = static_cast<double>(c + 1);
  }
  condensa::Rng rng(seed);
  condensa::data::Dataset out(
      dim, labeled ? condensa::data::TaskType::kClassification
                   : condensa::data::TaskType::kUnlabeled);
  std::vector<double> z(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.Categorical(weights);
    for (double& v : z) v = rng.Gaussian();
    condensa::linalg::Vector record(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      double v = means[c][d];
      for (std::size_t e = 0; e < dim; ++e) v += mixing[c][d * dim + e] * z[e];
      record[d] = v;
    }
    if (labeled) {
      out.Add(std::move(record), static_cast<int>(c));
    } else {
      out.Add(std::move(record));
    }
  }
  return out;
}

condensa::data::Dataset UnlabeledDataset(
    const std::vector<condensa::linalg::Vector>& records, std::size_t dim) {
  condensa::data::Dataset out(dim);
  for (const condensa::linalg::Vector& r : records) out.Add(r);
  return out;
}

}  // namespace perfbench
