// The fixed table of built-in backend records (core/backend.h):
// FindBackend and BackendIds.

#include "core/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"
#include "linalg/vector.h"

namespace condensa::core {
namespace {

TEST(RegistryTest, LookupsShareOneRecordPerId) {
  for (const std::string& id : BackendIds()) {
    auto first = FindBackend(id);
    auto second = FindBackend(id);
    ASSERT_TRUE(first.ok()) << id;
    ASSERT_TRUE(second.ok()) << id;
    EXPECT_EQ(*first, *second) << id;
  }
}

TEST(RegistryTest, BuiltInsAreRegistered) {
  for (const char* id : {"condensation", "mdav", "mdav-eigen"}) {
    auto backend = FindBackend(id);
    ASSERT_TRUE(backend.ok()) << id;
    EXPECT_EQ((*backend)->id, id);
    EXPECT_EQ((*backend)->version, 1);
    EXPECT_FALSE((*backend)->summary.empty());
    EXPECT_TRUE(static_cast<bool>((*backend)->build));
  }
}

TEST(RegistryTest, UnknownIdIsNotFoundAndListsAvailable) {
  auto backend = FindBackend("bogus");
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(IsNotFound(backend.status()));
  const std::string message(backend.status().message());
  EXPECT_NE(message.find("bogus"), std::string::npos);
  EXPECT_NE(message.find("condensation"), std::string::npos);
  EXPECT_NE(message.find("mdav"), std::string::npos);
}

TEST(RegistryTest, IdsAreSortedAndContainBuiltIns) {
  const std::vector<std::string> ids = BackendIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (const char* id : {"condensation", "mdav", "mdav-eigen"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(RegistryTest, IdListJoinsEveryId) {
  // The NotFound message lists every id.
  const std::string list(FindBackend("bogus").status().message());
  for (const std::string& id : BackendIds()) {
    EXPECT_NE(list.find(id), std::string::npos) << id;
  }
}

TEST(RegistryTest, MdavRecordCarriesIdVersionAndSampler) {
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  EXPECT_EQ((*mdav)->id, "mdav");
  EXPECT_EQ((*mdav)->version, 1);
  // mdav regenerates by centroid replacement, so it carries a sampler.
  EXPECT_TRUE(static_cast<bool>((*mdav)->sample));
}

TEST(RegistryTest, CondensationIsTheDefaultRecord) {
  auto condensation = FindBackend("condensation");
  ASSERT_TRUE(condensation.ok());
  // The id resolves to the very record every config defaults to.
  EXPECT_EQ(*condensation, &CondensationBackend());
  EXPECT_EQ(CondensationConfig{}.backend, *condensation);
  EXPECT_EQ((*condensation)->id, CondensedGroupSet::kDefaultBackendId);
  // Null sampler = the paper's eigendecomposition regeneration.
  EXPECT_FALSE(static_cast<bool>((*condensation)->sample));
}

std::vector<linalg::Vector> GaussianPoints(std::size_t n, Rng& rng) {
  std::vector<linalg::Vector> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(linalg::Vector{rng.Gaussian(0.0, 1.0),
                                    rng.Gaussian(0.0, 1.0)});
  }
  return points;
}

TEST(BackendTest, BuildStampsTheResult) {
  Rng rng(7);
  const std::vector<linalg::Vector> points = GaussianPoints(20, rng);
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  auto groups = (*mdav)->Build(points, 5, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->backend_id(), "mdav");
  EXPECT_EQ(groups->backend_version(), 1);

  // A record's own (id, version) wins over whatever its build returns.
  const Backend custom{.id = "custom", .version = 3,
                       .build = CondensationBackend().build};
  auto stamped = custom.Build(points, 5, rng);
  ASSERT_TRUE(stamped.ok());
  EXPECT_EQ(stamped->backend_id(), "custom");
  EXPECT_EQ(stamped->backend_version(), 3);
}

TEST(BackendTest, BuildPropagatesConstructionErrors) {
  Rng rng(7);
  const std::vector<linalg::Vector> points = GaussianPoints(3, rng);
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  auto groups = (*mdav)->Build(points, 5, rng);
  EXPECT_TRUE(IsInvalidArgument(groups.status()));
}

}  // namespace
}  // namespace condensa::core
