// Randomized round trips through every codec that carries doubles: CSV,
// group-set, pools and snapshot documents (binary v2 and text v1). Values
// are drawn from uniformly random 64-bit patterns filtered to finite
// doubles, so every exponent is equally likely (subnormals included);
// counters sit at 2^31, 2^32 and 2^53+1, where narrower or floating-point
// parsing would break. Each document must load back bit-identical,
// re-serialize to the same bytes, and load to the same bits when its text
// values are rendered in the 17-significant-digit form older writers
// produced.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/backend.h"
#include "core/checkpointing.h"
#include "core/dynamic_condenser.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "data/csv.h"

namespace condensa::core {
namespace {

constexpr int kTrials = 25;
constexpr std::size_t kCounts[] = {std::size_t{1} << 31, std::size_t{1} << 32,
                                   (std::size_t{1} << 53) + 1};
constexpr double kSpecials[] = {0.0,     -0.0,     DBL_MAX,      -DBL_MAX,
                                DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN};

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Mostly random finite patterns, with the edge values mixed in.
double RandomValue(Rng& rng) {
  if (rng.UniformIndex(8) == 0) {
    return kSpecials[rng.UniformIndex(std::size(kSpecials))];
  }
  while (true) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) return value;
  }
}

std::string Render17g(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Rewrites the value lines ("fs ..." / "sc ...") of a document holding
// group sets with %.17g, leaving counts and headers as they are.
std::string With17gValues(std::string_view document) {
  std::string out;
  while (!document.empty()) {
    const bool has_newline = document.find('\n') != std::string_view::npos;
    std::string_view line = NextLine(&document);
    if (StartsWith(line, "fs ") || StartsWith(line, "sc ")) {
      out += NextToken(&line);
      for (std::string_view token = NextToken(&line); !token.empty();
           token = NextToken(&line)) {
        double value = 0.0;
        EXPECT_TRUE(ParseDouble(token, &value)) << token;
        out += ' ';
        out += Render17g(value);
      }
    } else {
      out += line;
    }
    if (has_newline) out += '\n';
  }
  return out;
}

GroupStatistics RandomGroup(Rng& rng, std::size_t dim, std::size_t count) {
  linalg::Vector fs(dim);
  linalg::Matrix sc(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    fs[i] = RandomValue(rng);
    for (std::size_t j = i; j < dim; ++j) {
      sc(i, j) = RandomValue(rng);
      sc(j, i) = sc(i, j);
    }
  }
  return GroupStatistics::FromRawSums(count, std::move(fs), std::move(sc));
}

CondensedGroupSet RandomGroupSet(Rng& rng, std::size_t dim) {
  CondensedGroupSet set(dim, kCounts[rng.UniformIndex(3)]);
  if (rng.UniformIndex(2) == 0) set.SetBackend("mdav", 2);
  const std::size_t groups = 1 + rng.UniformIndex(4);
  for (std::size_t g = 0; g < groups; ++g) {
    set.AddGroup(RandomGroup(rng, dim, kCounts[g % 3]));
  }
  return set;
}

void ExpectSameGroup(const GroupStatistics& a, const GroupStatistics& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(Bits(a.first_order()[i]), Bits(b.first_order()[i]));
    for (std::size_t j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(Bits(a.second_order()(i, j)), Bits(b.second_order()(i, j)));
    }
  }
}

void ExpectSameGroupSet(const CondensedGroupSet& a,
                        const CondensedGroupSet& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.indistinguishability_level(), b.indistinguishability_level());
  EXPECT_EQ(a.backend_id(), b.backend_id());
  EXPECT_EQ(a.backend_version(), b.backend_version());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (std::size_t g = 0; g < a.num_groups(); ++g) {
    ExpectSameGroup(a.group(g), b.group(g));
  }
}

TEST(CodecRoundTripTest, GroupSetDocumentsAreBitExact) {
  Rng rng(101);
  for (int trial = 0; trial < kTrials; ++trial) {
    const CondensedGroupSet set = RandomGroupSet(rng, 1 + rng.UniformIndex(6));
    const std::string text = SerializeGroupSet(set);
    auto parsed = DeserializeGroupSet(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectSameGroupSet(*parsed, set);
    EXPECT_EQ(SerializeGroupSet(*parsed), text);

    const std::string legacy = With17gValues(text);
    auto from_legacy = DeserializeGroupSet(legacy);
    ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
    ExpectSameGroupSet(*from_legacy, set);
    EXPECT_LE(text.size(), legacy.size());

    const std::string binary = SerializeGroupSetBinary(set);
    auto from_binary = DeserializeGroupSet(binary);
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    ExpectSameGroupSet(*from_binary, set);
    EXPECT_EQ(SerializeGroupSetBinary(*from_binary), binary);
  }
}

// The v1 text pools file earlier builds wrote for `pools`: a header line,
// then per pool a "pool label L splits S" line and its group-set text.
std::string V1PoolsText(const CondensedPools& pools) {
  std::string out = "condensa-pools v1\ntask " +
                    std::to_string(static_cast<int>(pools.task)) +
                    " feature_dim " + std::to_string(pools.feature_dim) +
                    " pools " + std::to_string(pools.pools.size()) + "\n";
  for (const CondensedPools::Pool& pool : pools.pools) {
    out += "pool label " + std::to_string(pool.label) + " splits " +
           std::to_string(pool.splits) + "\n";
    out += SerializeGroupSet(pool.groups);
  }
  return out;
}

TEST(CodecRoundTripTest, PoolsDocumentsAreBitExact) {
  Rng rng(102);
  for (int trial = 0; trial < kTrials; ++trial) {
    CondensedPools pools;
    pools.task = static_cast<data::TaskType>(rng.UniformIndex(3));
    pools.feature_dim = 1 + rng.UniformIndex(5);
    const std::size_t count = rng.UniformIndex(4);
    for (std::size_t p = 0; p < count; ++p) {
      CondensedGroupSet set =
          RandomGroupSet(rng, pools.CondensedDim());
      set.SetBackend(CondensedGroupSet::kDefaultBackendId, 1);
      pools.pools.push_back({static_cast<int>(p) - 1, kCounts[p % 3],
                             std::move(set)});
    }
    const std::string bytes = SerializePools(pools);
    const std::string v1 = V1PoolsText(pools);
    for (const std::string& document : {bytes, v1, With17gValues(v1)}) {
      auto parsed = DeserializePools(document);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->task, pools.task);
      EXPECT_EQ(parsed->feature_dim, pools.feature_dim);
      ASSERT_EQ(parsed->pools.size(), pools.pools.size());
      for (std::size_t p = 0; p < pools.pools.size(); ++p) {
        EXPECT_EQ(parsed->pools[p].label, pools.pools[p].label);
        EXPECT_EQ(parsed->pools[p].splits, pools.pools[p].splits);
        ExpectSameGroupSet(parsed->pools[p].groups, pools.pools[p].groups);
      }
      EXPECT_EQ(SerializePools(*parsed), bytes);
    }
  }
}

// The v1 text snapshot earlier builds wrote for `state`: a header line,
// the group set and the forming buffer as group-set sections, and "end".
std::string V1SnapshotText(const DynamicCondenser::State& state,
                           std::size_t sequence) {
  const bool forming = state.forming.has_value();
  std::string out = "condensa-snapshot v1\nseq " + std::to_string(sequence) +
                    " records " + std::to_string(state.records_seen) +
                    " splits " + std::to_string(state.split_count) +
                    " merges " + std::to_string(state.merge_count) +
                    " bootstrapped " + (state.bootstrapped ? "1" : "0") +
                    " forming " + (forming ? "1" : "0") + "\n";
  out += SerializeGroupSet(state.groups);
  if (forming) {
    CondensedGroupSet wrapper(state.groups.dim(),
                              state.groups.indistinguishability_level());
    wrapper.SetBackend(state.groups.backend_id(),
                       state.groups.backend_version());
    wrapper.AddGroup(*state.forming);
    out += SerializeGroupSet(wrapper);
  }
  return out + "end\n";
}

// The snapshot writer's bytes for `state`, through the condenser that
// state rebuilds. The backend record only carries the state's stamp (the
// random sets use stamps no built-in backend has).
std::string SerializeState(const DynamicCondenser::State& state,
                           std::size_t sequence) {
  const Backend stamp{.id = state.groups.backend_id(),
                      .version = state.groups.backend_version()};
  auto condenser =
      DynamicCondenser::FromState(state, {.group_size = 1, .backend = &stamp});
  CONDENSA_CHECK(condenser.ok());
  return SerializeCondenserState(*condenser, sequence);
}

// Snapshots are written in the v2 binary format and read in v2 and v1:
// each form loads back bit-identical and re-serializes to the same v2
// bytes.
TEST(CodecRoundTripTest, SnapshotDocumentsAreBitExact) {
  Rng rng(103);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t dim = 1 + rng.UniformIndex(5);
    DynamicCondenser::State state;
    state.groups = RandomGroupSet(rng, dim);
    if (rng.UniformIndex(2) == 0) {
      state.forming = RandomGroup(rng, dim, kCounts[trial % 3]);
    }
    state.records_seen = kCounts[2];
    state.split_count = kCounts[1];
    state.merge_count = kCounts[0];
    state.bootstrapped = rng.UniformIndex(2) == 0;
    const std::size_t sequence = kCounts[trial % 3];
    const std::string bytes = SerializeState(state, sequence);
    const std::string v1 = V1SnapshotText(state, sequence);
    for (const std::string& document : {bytes, v1, With17gValues(v1)}) {
      std::size_t parsed_sequence = 0;
      auto parsed = DeserializeCondenserState(document, &parsed_sequence);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed_sequence, sequence);
      EXPECT_EQ(parsed->records_seen, state.records_seen);
      EXPECT_EQ(parsed->split_count, state.split_count);
      EXPECT_EQ(parsed->merge_count, state.merge_count);
      EXPECT_EQ(parsed->bootstrapped, state.bootstrapped);
      ExpectSameGroupSet(parsed->groups, state.groups);
      ASSERT_EQ(parsed->forming.has_value(), state.forming.has_value());
      if (state.forming.has_value()) {
        ExpectSameGroup(*parsed->forming, *state.forming);
      }
      EXPECT_EQ(SerializeState(*parsed, sequence), bytes);
    }
  }
}

TEST(CodecRoundTripTest, CsvDocumentsAreBitExact) {
  Rng rng(104);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t dim = 1 + rng.UniformIndex(6);
    const bool regression = trial % 2 == 1;
    data::Dataset dataset(dim, regression ? data::TaskType::kRegression
                                          : data::TaskType::kUnlabeled);
    std::string legacy;
    for (std::size_t i = 0; i < 20; ++i) {
      linalg::Vector record(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        record[j] = RandomValue(rng);
        if (j > 0) legacy += ',';
        legacy += Render17g(record[j]);
      }
      if (regression) {
        const double target = RandomValue(rng);
        legacy += ',';
        legacy += Render17g(target);
        dataset.Add(std::move(record), target);
      } else {
        dataset.Add(std::move(record));
      }
      legacy += '\n';
    }
    const std::string text = data::WriteCsvToString(dataset);
    EXPECT_LE(text.size(), legacy.size());
    data::CsvReadOptions options;
    options.task = dataset.task();
    for (const std::string& document : {text, legacy}) {
      auto parsed = data::ReadCsvFromString(document, options);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_EQ(parsed->dataset.size(), dataset.size());
      for (std::size_t i = 0; i < dataset.size(); ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          EXPECT_EQ(Bits(parsed->dataset.record(i)[j]),
                    Bits(dataset.record(i)[j]));
        }
        if (regression) {
          EXPECT_EQ(Bits(parsed->dataset.target(i)),
                    Bits(dataset.target(i)));
        }
      }
      EXPECT_EQ(data::WriteCsvToString(parsed->dataset), text);
    }
  }
}

}  // namespace
}  // namespace condensa::core
