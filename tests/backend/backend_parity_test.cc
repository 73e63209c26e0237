// Pins the --backend=condensation contract: resolving the default
// backend by id must be byte-identical — same rng
// stream, same serialized pools, same release — to a config that never
// mentions backends. If this breaks, every pre-backend artifact
// (checkpoints, serialized pools, published figures) silently changes
// meaning.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "core/backend.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "core/static_condenser.h"
#include "data/dataset.h"
#include "linalg/vector.h"

namespace condensa::core {
namespace {

using linalg::Vector;

data::Dataset MakeClassificationDataset(std::size_t n) {
  data::Dataset dataset(3, data::TaskType::kClassification);
  Rng rng(2024);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    dataset.Add(Vector{rng.Gaussian(label * 2.0, 1.0),
                       rng.Gaussian(0.0, 1.0), rng.Gaussian(-1.0, 0.5)},
                label);
  }
  return dataset;
}

core::CondensationConfig BareConfig(core::CondensationMode mode) {
  core::CondensationConfig config;
  config.group_size = 5;
  config.mode = mode;
  return config;
}

TEST(BackendParityTest, StaticCondenseIsByteIdenticalToHooklessConfig) {
  const data::Dataset dataset = MakeClassificationDataset(60);
  for (auto mode : {core::CondensationMode::kStatic,
                    core::CondensationMode::kDynamic}) {
    core::CondensationConfig plain = BareConfig(mode);
    core::CondensationConfig resolved = BareConfig(mode);
    auto condensation = FindBackend("condensation");
    ASSERT_TRUE(condensation.ok());
    resolved.backend = *condensation;

    Rng plain_rng(77);
    Rng resolved_rng(77);
    auto plain_pools = core::CondensationEngine(plain).Condense(dataset,
                                                               plain_rng);
    auto resolved_pools =
        core::CondensationEngine(resolved).Condense(dataset, resolved_rng);
    ASSERT_TRUE(plain_pools.ok());
    ASSERT_TRUE(resolved_pools.ok());
    EXPECT_EQ(core::SerializePools(*plain_pools),
              core::SerializePools(*resolved_pools));
    // The resolved record must consume the rng stream exactly as the
    // default config does.
    EXPECT_EQ(plain_rng.NextUint64(), resolved_rng.NextUint64());
  }
}

TEST(BackendParityTest, ReleaseIsByteIdenticalToHooklessConfig) {
  const data::Dataset dataset = MakeClassificationDataset(60);
  core::CondensationConfig plain = BareConfig(core::CondensationMode::kStatic);
  core::CondensationConfig resolved =
      BareConfig(core::CondensationMode::kStatic);
  auto condensation = FindBackend("condensation");
  ASSERT_TRUE(condensation.ok());
  resolved.backend = *condensation;

  Rng plain_rng(31);
  Rng resolved_rng(31);
  auto plain_result =
      core::CondensationEngine(plain).Anonymize(dataset, plain_rng);
  auto resolved_result =
      core::CondensationEngine(resolved).Anonymize(dataset, resolved_rng);
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(resolved_result.ok());

  const data::Dataset& a = plain_result->anonymized;
  const data::Dataset& b = resolved_result->anonymized;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (std::size_t j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(a.record(i)[j], b.record(i)[j]) << "record " << i;
    }
  }
}

TEST(BackendParityTest, CondensationBuildIsTheStaticCondenser) {
  std::vector<Vector> points;
  Rng data_rng(2025);
  for (std::size_t i = 0; i < 50; ++i) {
    points.push_back(Vector{data_rng.Gaussian(0.0, 1.0),
                            data_rng.Gaussian(1.0, 2.0)});
  }
  Rng direct_rng(13);
  Rng record_rng(13);
  auto direct = core::StaticCondenser({.group_size = 5})
                    .Condense(points, direct_rng);
  auto built = core::CondensationBackend().Build(points, 5, record_rng);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(core::SerializeGroupSet(*direct), core::SerializeGroupSet(*built));
  EXPECT_EQ(direct_rng.NextUint64(), record_rng.NextUint64());
}

TEST(BackendParityTest, DefaultStampWritesNoBackendLine) {
  const data::Dataset dataset = MakeClassificationDataset(40);
  Rng rng(5);
  auto pools = core::CondensationEngine(
                   BareConfig(core::CondensationMode::kStatic))
                   .Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());
  // The default backend's group-set text (the form the fabric's
  // FinishResult carries) is exactly the pre-backend format: no
  // "backend" line anywhere.
  ASSERT_FALSE(pools->pools.empty());
  for (const auto& pool : pools->pools) {
    EXPECT_EQ(core::SerializeGroupSet(pool.groups).find("backend"),
              std::string::npos);
  }
}

TEST(BackendParityTest, MdavEndToEndStampsAndBoundsGroups) {
  const data::Dataset dataset = MakeClassificationDataset(60);
  core::CondensationConfig config =
      BareConfig(core::CondensationMode::kStatic);
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  config.backend = *mdav;
  Rng rng(9);
  auto pools = core::CondensationEngine(config).Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());
  ASSERT_FALSE(pools->pools.empty());
  for (const auto& pool : pools->pools) {
    EXPECT_EQ(pool.groups.backend_id(), "mdav");
    EXPECT_EQ(pool.groups.backend_version(), 1);
    for (const auto& group : pool.groups.groups()) {
      EXPECT_GE(group.count(), 5u);
      EXPECT_LE(group.count(), 9u);
    }
  }
  // The stamp survives a serialization round trip.
  auto reloaded = core::DeserializePools(core::SerializePools(*pools));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->pools.front().groups.backend_id(), "mdav");
}

}  // namespace
}  // namespace condensa::core
