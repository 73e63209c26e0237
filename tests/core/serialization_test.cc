#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/io.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/backend.h"
#include "core/engine.h"
#include "data/csv.h"
#include "data/dataset.h"

namespace condensa::core {
namespace {

using linalg::Vector;

// Counters past the int and uint32 ranges, and past exact double
// integers: every persisted count is written from size_t and must come
// back exactly.
constexpr std::size_t kWideCounts[] = {std::size_t{1} << 31,
                                       std::size_t{1} << 32,
                                       (std::size_t{1} << 53) + 1};

CondensedGroupSet MakeSampleSet(Rng& rng, std::size_t dim,
                                std::size_t groups, std::size_t per_group) {
  CondensedGroupSet set(dim, per_group);
  for (std::size_t g = 0; g < groups; ++g) {
    GroupStatistics stats(dim);
    for (std::size_t i = 0; i < per_group; ++i) {
      Vector p(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] = rng.Gaussian(static_cast<double>(g), 1.0);
      }
      stats.Add(p);
    }
    set.AddGroup(std::move(stats));
  }
  return set;
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  Rng rng(1);
  CondensedGroupSet original = MakeSampleSet(rng, 3, 5, 7);
  std::string text = SerializeGroupSet(original);
  auto loaded = DeserializeGroupSet(text);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->dim(), original.dim());
  EXPECT_EQ(loaded->indistinguishability_level(),
            original.indistinguishability_level());
  ASSERT_EQ(loaded->num_groups(), original.num_groups());
  for (std::size_t g = 0; g < original.num_groups(); ++g) {
    EXPECT_EQ(loaded->group(g).count(), original.group(g).count());
    EXPECT_TRUE(linalg::ApproxEqual(loaded->group(g).first_order(),
                                    original.group(g).first_order(), 1e-12));
    EXPECT_TRUE(linalg::ApproxEqual(loaded->group(g).second_order(),
                                    original.group(g).second_order(),
                                    1e-9));
  }

  for (std::size_t count : kWideCounts) {
    CondensedGroupSet wide(3, count);
    wide.AddGroup(GroupStatistics::FromRawSums(
        count, original.group(0).first_order(),
        original.group(0).second_order()));
    auto reloaded = DeserializeGroupSet(SerializeGroupSet(wide));
    ASSERT_TRUE(reloaded.ok()) << count << ": " << reloaded.status();
    EXPECT_EQ(reloaded->indistinguishability_level(), count);
    EXPECT_EQ(reloaded->group(0).count(), count);
  }
}

TEST(SerializationTest, RoundTripPreservesDerivedMoments) {
  Rng rng(2);
  CondensedGroupSet original = MakeSampleSet(rng, 4, 3, 12);
  auto loaded = DeserializeGroupSet(SerializeGroupSet(original));
  ASSERT_TRUE(loaded.ok());
  for (std::size_t g = 0; g < original.num_groups(); ++g) {
    EXPECT_TRUE(linalg::ApproxEqual(loaded->group(g).Centroid(),
                                    original.group(g).Centroid(), 1e-12));
    EXPECT_TRUE(linalg::ApproxEqual(loaded->group(g).Covariance(),
                                    original.group(g).Covariance(), 1e-9));
  }
}

TEST(SerializationTest, EmptySetRoundTrips) {
  CondensedGroupSet empty(2, 10);
  auto loaded = DeserializeGroupSet(SerializeGroupSet(empty));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_groups(), 0u);
  EXPECT_EQ(loaded->dim(), 2u);
  EXPECT_EQ(loaded->indistinguishability_level(), 10u);
}

TEST(SerializationTest, RejectsWrongMagic) {
  auto result = DeserializeGroupSet("not a group file\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsInvalidArgument(result.status()));
}

TEST(SerializationTest, RejectsTruncatedInput) {
  Rng rng(3);
  CondensedGroupSet original = MakeSampleSet(rng, 3, 2, 5);
  std::string text = SerializeGroupSet(original);
  // Chop the last 30 characters.
  std::string truncated = text.substr(0, text.size() - 30);
  auto result = DeserializeGroupSet(truncated);
  EXPECT_FALSE(result.ok());
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  Rng rng(4);
  CondensedGroupSet original = MakeSampleSet(rng, 2, 1, 4);
  std::string text = SerializeGroupSet(original) + "extra tokens here\n";
  EXPECT_FALSE(DeserializeGroupSet(text).ok());
}

TEST(SerializationTest, RejectsCorruptHeader) {
  std::string text =
      "condensa-groups v1\ndim 0 k 3 groups 0\n";  // zero dim
  EXPECT_FALSE(DeserializeGroupSet(text).ok());
  std::string bad_counts = "condensa-groups v1\ndim x k 3 groups 0\n";
  EXPECT_FALSE(DeserializeGroupSet(bad_counts).ok());
}

TEST(SerializationTest, BackendStampRoundTrips) {
  Rng rng(8);
  CondensedGroupSet original = MakeSampleSet(rng, 3, 2, 5);
  original.SetBackend("mdav", 2);
  const std::string text = SerializeGroupSet(original);
  EXPECT_NE(text.find("backend mdav 2\n"), std::string::npos);
  auto loaded = DeserializeGroupSet(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->backend_id(), "mdav");
  EXPECT_EQ(loaded->backend_version(), 2);
  EXPECT_EQ(loaded->num_groups(), 2u);
}

TEST(SerializationTest, DefaultBackendWritesNoAnnotation) {
  Rng rng(9);
  const std::string text = SerializeGroupSet(MakeSampleSet(rng, 3, 2, 5));
  // Byte-identity with the pre-backend format: no annotation line.
  EXPECT_EQ(text.find("backend"), std::string::npos);
  auto loaded = DeserializeGroupSet(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->backend_id(), CondensedGroupSet::kDefaultBackendId);
  EXPECT_EQ(loaded->backend_version(), 1);
}

TEST(SerializationTest, FileRoundTrip) {
  Rng rng(5);
  CondensedGroupSet original = MakeSampleSet(rng, 3, 4, 6);
  const std::string path =
      ::testing::TempDir() + "/condensa_groups_test.txt";
  ASSERT_TRUE(SaveGroupSet(original, path).ok());
  auto loaded = LoadGroupSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_groups(), 4u);
  EXPECT_EQ(loaded->TotalRecords(), 24u);
  std::remove(path.c_str());
}

// glibc strtod flags subnormals with ERANGE, so a set holding one used to
// be refused by the loader that wrote it.
TEST(SerializationTest, SubnormalSumsSurviveSaveAndLoad) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double largest_subnormal =
      std::nextafter(std::numeric_limits<double>::min(), 0.0);
  CondensedGroupSet set(2, 3);
  linalg::Matrix sc(2, 2);
  sc(0, 0) = largest_subnormal;
  sc(0, 1) = sc(1, 0) = -tiny;
  sc(1, 1) = 1.0;
  set.AddGroup(
      GroupStatistics::FromRawSums(3, Vector{tiny, -largest_subnormal}, sc));

  const std::string groups_path =
      ::testing::TempDir() + "/condensa_subnormal_groups.txt";
  ASSERT_TRUE(SaveGroupSet(set, groups_path).ok());
  auto loaded = LoadGroupSet(groups_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeGroupSet(*loaded), SerializeGroupSet(set));
  EXPECT_EQ(loaded->group(0).first_order()[0], tiny);
  EXPECT_EQ(loaded->group(0).second_order()(0, 0), largest_subnormal);
  std::remove(groups_path.c_str());

  CondensedPools pools;
  pools.feature_dim = 2;
  pools.pools.push_back({-1, 0, set});
  const std::string pools_path =
      ::testing::TempDir() + "/condensa_subnormal_pools.txt";
  ASSERT_TRUE(SavePools(pools, pools_path).ok());
  auto reloaded = LoadPools(pools_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(SerializePools(*reloaded), SerializePools(pools));
  std::remove(pools_path.c_str());
}

TEST(SerializationTest, LoadMissingFileIsNotFound) {
  auto result = LoadGroupSet("/nonexistent/groups.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsNotFound(result.status()));
}

TEST(PoolsSerializationTest, ClassificationRoundTrip) {
  Rng data_rng(7);
  data::Dataset dataset(2, data::TaskType::kClassification);
  for (int i = 0; i < 60; ++i) {
    dataset.Add(linalg::Vector{data_rng.Gaussian(), data_rng.Gaussian()},
                i % 3);
  }
  Rng rng(8);
  CondensationEngine engine({.group_size = 6});
  auto pools = engine.Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());

  auto reloaded = DeserializePools(SerializePools(*pools));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->task, data::TaskType::kClassification);
  EXPECT_EQ(reloaded->feature_dim, 2u);
  ASSERT_EQ(reloaded->pools.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(reloaded->pools[p].label, pools->pools[p].label);
    EXPECT_EQ(reloaded->pools[p].splits, pools->pools[p].splits);
    ASSERT_EQ(reloaded->pools[p].groups.num_groups(),
              pools->pools[p].groups.num_groups());
    for (std::size_t g = 0; g < pools->pools[p].groups.num_groups(); ++g) {
      EXPECT_TRUE(linalg::ApproxEqual(
          reloaded->pools[p].groups.group(g).first_order(),
          pools->pools[p].groups.group(g).first_order(), 1e-12));
    }
  }

  for (std::size_t splits : kWideCounts) {
    CondensedPools wide = *pools;
    wide.pools[0].splits = splits;
    auto wide_reloaded = DeserializePools(SerializePools(wide));
    ASSERT_TRUE(wide_reloaded.ok()) << splits << ": "
                                    << wide_reloaded.status();
    EXPECT_EQ(wide_reloaded->pools[0].splits, splits);
  }
}

TEST(PoolsSerializationTest, RegressionRoundTripAndRelease) {
  Rng data_rng(9);
  data::Dataset dataset(2, data::TaskType::kRegression);
  for (int i = 0; i < 80; ++i) {
    double x = data_rng.Gaussian();
    dataset.Add(linalg::Vector{x, data_rng.Gaussian()}, 3.0 * x + 1.0);
  }
  Rng rng(10);
  CondensationEngine engine({.group_size = 10});
  auto pools = engine.Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());
  EXPECT_EQ(pools->CondensedDim(), 3u);  // features + target

  auto reloaded = DeserializePools(SerializePools(*pools));
  ASSERT_TRUE(reloaded.ok());
  auto release = GenerateRelease(*reloaded, rng);
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release->anonymized.size(), 80u);
  EXPECT_EQ(release->anonymized.task(), data::TaskType::kRegression);
  EXPECT_EQ(release->anonymized.dim(), 2u);
}

TEST(PoolsSerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(DeserializePools("garbage\n").ok());
  EXPECT_FALSE(
      DeserializePools("condensa-pools v1\ntask 9 feature_dim 2 pools 0\n")
          .ok());
  EXPECT_FALSE(
      DeserializePools("condensa-pools v1\ntask 1 feature_dim 0 pools 0\n")
          .ok());
  // Declares one pool but provides none.
  EXPECT_FALSE(
      DeserializePools("condensa-pools v1\ntask 0 feature_dim 2 pools 1\n")
          .ok());
}

TEST(PoolsSerializationTest, EmptyPoolListRoundTrips) {
  CondensedPools pools;
  pools.task = data::TaskType::kUnlabeled;
  pools.feature_dim = 4;
  auto reloaded = DeserializePools(SerializePools(pools));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->pools.empty());
  EXPECT_EQ(reloaded->feature_dim, 4u);
}

TEST(PoolsSerializationTest, ReleaseFromReloadedPoolsIsBitIdentical) {
  // Same seed + same statistics => same release, whether the pools came
  // from memory or from disk. (The 17-significant-digit serialization is
  // double-exact, so nothing drifts.)
  Rng data_rng(13);
  data::Dataset dataset(3, data::TaskType::kClassification);
  for (int i = 0; i < 90; ++i) {
    dataset.Add(linalg::Vector{data_rng.Gaussian(), data_rng.Gaussian(),
                               data_rng.Gaussian()},
                i % 3);
  }
  Rng rng(14);
  CondensationEngine engine({.group_size = 9});
  auto pools = engine.Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());
  auto reloaded = DeserializePools(SerializePools(*pools));
  ASSERT_TRUE(reloaded.ok());

  Rng rng_a(99), rng_b(99);
  auto from_memory = GenerateRelease(*pools, rng_a);
  auto from_disk = GenerateRelease(*reloaded, rng_b);
  ASSERT_TRUE(from_memory.ok());
  ASSERT_TRUE(from_disk.ok());
  ASSERT_EQ(from_memory->anonymized.size(), from_disk->anonymized.size());
  for (std::size_t i = 0; i < from_memory->anonymized.size(); ++i) {
    EXPECT_TRUE(linalg::ApproxEqual(from_memory->anonymized.record(i),
                                    from_disk->anonymized.record(i), 0.0));
    EXPECT_EQ(from_memory->anonymized.label(i),
              from_disk->anonymized.label(i));
  }
}

TEST(PoolsSerializationTest, FileRoundTrip) {
  Rng data_rng(11);
  data::Dataset dataset(2);
  for (int i = 0; i < 30; ++i) {
    dataset.Add(linalg::Vector{data_rng.Gaussian(), data_rng.Gaussian()});
  }
  Rng rng(12);
  CondensationEngine engine({.group_size = 5});
  auto pools = engine.Condense(dataset, rng);
  ASSERT_TRUE(pools.ok());
  const std::string path = ::testing::TempDir() + "/condensa_pools_test.txt";
  ASSERT_TRUE(SavePools(*pools, path).ok());
  auto reloaded = LoadPools(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->pools.size(), 1u);
  EXPECT_EQ(reloaded->pools[0].groups.TotalRecords(), 30u);
  std::remove(path.c_str());
}

TEST(PoolsSerializationTest, BackendStampRoundTripsThroughPools) {
  Rng rng(12);
  CondensedPools pools;
  pools.task = data::TaskType::kClassification;
  pools.feature_dim = 3;
  CondensedGroupSet a = MakeSampleSet(rng, 3, 2, 5);
  a.SetBackend("mdav", 1);
  CondensedGroupSet b = MakeSampleSet(rng, 3, 2, 5);
  b.SetBackend("mdav", 1);
  pools.pools.push_back({0, 0, std::move(a)});
  pools.pools.push_back({1, 0, std::move(b)});
  auto reloaded = DeserializePools(SerializePools(pools));
  ASSERT_TRUE(reloaded.ok());
  for (const auto& pool : reloaded->pools) {
    EXPECT_EQ(pool.groups.backend_id(), "mdav");
    EXPECT_EQ(pool.groups.backend_version(), 1);
  }
}

TEST(PoolsSerializationTest, RejectsPoolsFromMixedBackends) {
  Rng rng(13);
  CondensedPools pools;
  pools.task = data::TaskType::kClassification;
  pools.feature_dim = 3;
  CondensedGroupSet a = MakeSampleSet(rng, 3, 2, 5);
  a.SetBackend("mdav", 1);
  pools.pools.push_back({0, 0, std::move(a)});
  pools.pools.push_back({1, 0, MakeSampleSet(rng, 3, 2, 5)});
  auto reloaded = DeserializePools(SerializePools(pools));
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(std::string(reloaded.status().message()).find("backend"),
            std::string::npos);
}

// Pools of every task through the v2 file: a negative label, the mdav
// stamp and a one-record group come back bit-exact, the file
// re-serializes to the same bytes, and a release drawn from the loaded
// pools is byte-identical to one drawn from the pools in memory.
TEST(PoolsSerializationTest, V2RoundTripKeepsEveryTaskAndItsRelease) {
  auto mdav = FindBackend("mdav");
  ASSERT_TRUE(mdav.ok());
  for (const data::TaskType task :
       {data::TaskType::kClassification, data::TaskType::kRegression,
        data::TaskType::kUnlabeled}) {
    Rng data_rng(21);
    data::Dataset dataset(2, task);
    for (int i = 0; i < 40; ++i) {
      Vector record{data_rng.Gaussian(), data_rng.Gaussian()};
      if (task == data::TaskType::kClassification) {
        dataset.Add(std::move(record), i % 3 - 1);
      } else if (task == data::TaskType::kRegression) {
        const double target = 2.0 * record[0];
        dataset.Add(std::move(record), target);
      } else {
        dataset.Add(std::move(record));
      }
    }
    Rng rng(22);
    auto pools =
        CondensationEngine({.group_size = 4, .backend = *mdav})
            .Condense(dataset, rng);
    ASSERT_TRUE(pools.ok()) << pools.status();
    GroupStatistics single(pools->CondensedDim());
    single.Add(Vector(pools->CondensedDim(), 0.25));
    pools->pools.front().groups.AddGroup(std::move(single));
    pools->pools.front().splits = std::size_t{1} << 33;

    const std::string bytes = SerializePools(*pools);
    EXPECT_TRUE(StartsWith(bytes, "condensa-pools v2\n"));
    auto reloaded = DeserializePools(bytes);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_EQ(reloaded->task, task);
    EXPECT_EQ(reloaded->feature_dim, 2u);
    ASSERT_EQ(reloaded->pools.size(), pools->pools.size());
    for (std::size_t p = 0; p < pools->pools.size(); ++p) {
      const CondensedPools::Pool& pool = reloaded->pools[p];
      EXPECT_EQ(pool.label, pools->pools[p].label);
      EXPECT_EQ(pool.splits, pools->pools[p].splits);
      EXPECT_EQ(pool.groups.backend_id(), "mdav");
      EXPECT_EQ(pool.groups.backend_version(), 1);
      // The text form renders every double in its shortest round-trip
      // form, so equal text means equal bits.
      EXPECT_EQ(SerializeGroupSet(pool.groups),
                SerializeGroupSet(pools->pools[p].groups));
    }
    EXPECT_EQ(reloaded->pools.front().groups.groups().back().count(), 1u);
    if (task == data::TaskType::kClassification) {
      EXPECT_EQ(reloaded->pools.front().label, -1);
    }
    EXPECT_EQ(SerializePools(*reloaded), bytes);

    Rng rng_a(99), rng_b(99);
    auto from_memory = GenerateRelease(*pools, rng_a);
    auto from_file = GenerateRelease(*reloaded, rng_b);
    ASSERT_TRUE(from_memory.ok()) << from_memory.status();
    ASSERT_TRUE(from_file.ok()) << from_file.status();
    EXPECT_EQ(data::WriteCsvToString(from_file->anonymized),
              data::WriteCsvToString(from_memory->anonymized));
  }
}

// A pools file `condensa condense --save-groups` wrote as v1 text before
// pools files became binary (tests/core/testdata/pools_v1.txt, two
// classes, d = 3, dynamic mode) still loads, and `generate --seed=7`
// from it still writes the release that build wrote
// (pools_v1_release_seed7.csv), from the v1 file and from its v2 form.
TEST(PoolsSerializationTest, V1FixtureLoadsAndKeepsItsRelease) {
  const std::string dir = CONDENSA_TESTDATA_DIR;
  auto v1 = LoadPools(dir + "/pools_v1.txt");
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1->task, data::TaskType::kClassification);
  EXPECT_EQ(v1->feature_dim, 3u);
  ASSERT_EQ(v1->pools.size(), 2u);
  EXPECT_EQ(v1->pools[0].splits, 1u);
  EXPECT_EQ(v1->pools[0].groups.TotalRecords() +
                v1->pools[1].groups.TotalRecords(),
            13u);
  auto v2 = DeserializePools(SerializePools(*v1));
  ASSERT_TRUE(v2.ok()) << v2.status();

  auto expected = ReadFileToString(dir + "/pools_v1_release_seed7.csv");
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (const CondensedPools* pools : {&*v1, &*v2}) {
    Rng rng(7);
    auto release = GenerateRelease(*pools, rng);
    ASSERT_TRUE(release.ok()) << release.status();
    EXPECT_EQ(data::WriteCsvToString(release->anonymized), *expected);
  }
}

TEST(SerializationTest, GroupSetFilesAreV2) {
  Rng rng(5);
  CondensedGroupSet set = MakeSampleSet(rng, 3, 2, 4);
  set.SetBackend("mdav", 1);
  const std::string path =
      ::testing::TempDir() + "/condensa_groups_v2_test.bin";
  ASSERT_TRUE(SaveGroupSet(set, path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, SerializeGroupSetBinary(set));
  EXPECT_TRUE(IsBinaryStatisticsFile(*bytes));
  EXPECT_FALSE(IsBinaryStatisticsFile(SerializeGroupSet(set)));
  auto loaded = LoadGroupSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeGroupSet(*loaded), SerializeGroupSet(set));
  std::remove(path.c_str());
}

TEST(SerializationTest, FormatIsHumanInspectable) {
  Rng rng(6);
  CondensedGroupSet set = MakeSampleSet(rng, 2, 1, 3);
  std::string text = SerializeGroupSet(set);
  EXPECT_TRUE(StartsWith(text, "condensa-groups v1\n"));
  EXPECT_NE(text.find("dim 2 k 3 groups 1"), std::string::npos);
  EXPECT_NE(text.find("group n 3"), std::string::npos);
  EXPECT_NE(text.find("\nfs "), std::string::npos);
  EXPECT_NE(text.find("\nsc "), std::string::npos);
}

}  // namespace
}  // namespace condensa::core
