// Fuzz-style corruption tests: every deserializer must survive arbitrary
// mangling of its input — truncations, bit flips, header damage — with a
// clean error status (or a successful parse when the damage happens to be
// benign), never a crash, hang, or out-of-range access.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <fstream>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "common/wire.h"
#include "core/checkpointing.h"
#include "core/engine.h"
#include "core/serialization.h"
#include "net/frame.h"

namespace condensa::core {
namespace {

using linalg::Vector;

CondensedGroupSet MakeGroups(std::uint64_t seed) {
  Rng rng(seed);
  CondensedGroupSet set(3, 4);
  for (int g = 0; g < 3; ++g) {
    GroupStatistics stats(3);
    for (int i = 0; i < 4; ++i) {
      Vector p(3);
      for (int j = 0; j < 3; ++j) {
        p[j] = rng.Gaussian(static_cast<double>(g), 1.0);
      }
      stats.Add(p);
    }
    set.AddGroup(std::move(stats));
  }
  return set;
}

// A checked-in file an earlier build wrote, under tests/core/testdata.
std::string Fixture(const std::string& name) {
  auto text = ReadFileToString(std::string(CONDENSA_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

// A v1 text pools file as `condensa condense --save-groups` wrote it
// before pools files became binary: two classes, d = 3.
std::string MakePoolsText() { return Fixture("pools_v1.txt"); }

// A v1 text snapshot as an earlier build wrote it: the checked-in
// fixture of tests/core/testdata/checkpoint_v1.
std::string MakeStateText() {
  return Fixture("checkpoint_v1/snapshot-000001.condensa");
}

// A small v2 pools file: two classes over MakeGroups sets, one of them
// with a negative label.
std::string MakePoolsV2() {
  CondensedPools pools;
  pools.task = data::TaskType::kClassification;
  pools.feature_dim = 3;
  pools.pools.push_back({-1, 1, MakeGroups(1)});
  pools.pools.push_back({1, 0, MakeGroups(2)});
  return SerializePools(pools);
}

Vector RandomRecord(Rng& rng) {
  Vector p(3);
  for (int j = 0; j < 3; ++j) {
    p[j] = rng.Gaussian(0.0, 1.0);
  }
  return p;
}

// The v2 binary snapshot of a condenser fed `inserts` random records:
// 11 give two groups, 2 leave only a forming buffer.
std::string MakeStateV2(int inserts) {
  DynamicCondenser condenser(3, {.group_size = 4});
  Rng rng(3);
  for (int i = 0; i < inserts; ++i) {
    EXPECT_TRUE(condenser.Insert(RandomRecord(rng)).ok());
  }
  return SerializeCondenserState(condenser, 5);
}

// Every deserializer under test, behind one uniform signature: returns
// the parse status for the mangled text.
using Parser = Status (*)(const std::string&);

Status ParseGroups(const std::string& text) {
  return DeserializeGroupSet(text).status();
}
Status ParsePools(const std::string& text) {
  return DeserializePools(text).status();
}
Status ParseState(const std::string& text) {
  return DeserializeCondenserState(text, nullptr).status();
}

struct Target {
  const char* name;
  Parser parse;
  std::string valid;
  // Truncating strictly before this offset is guaranteed to fail: the
  // document still misses a structural element (the last group's "sc"
  // section, or the snapshot's end marker). Cuts at or past it may parse
  // — e.g. dropping only the trailing newline, or shortening the last
  // %.17g token to a shorter valid double.
  std::size_t must_fail_below;
};

Target MakeTarget(const char* name, Parser parse, std::string valid,
                  const char* marker) {
  std::size_t pos = valid.rfind(marker);
  EXPECT_NE(pos, std::string::npos) << name;
  return {name, parse, std::move(valid), pos};
}

std::vector<Target> Targets() {
  std::vector<Target> targets;
  targets.push_back(MakeTarget("groups", &ParseGroups,
                               SerializeGroupSet(MakeGroups(7)), "\nsc"));
  // A non-default backend adds the optional "backend <id> <version>"
  // annotation line; fuzz that layout too.
  CondensedGroupSet stamped = MakeGroups(8);
  stamped.SetBackend("mdav", 1);
  targets.push_back(MakeTarget("stamped-groups", &ParseGroups,
                               SerializeGroupSet(stamped), "\nsc"));
  targets.push_back(MakeTarget("pools", &ParsePools, MakePoolsText(),
                               "\nsc"));
  targets.push_back(MakeTarget("state", &ParseState, MakeStateText(),
                               "\nend"));
  return targets;
}

// A corrupted parse may succeed (benign damage) or fail, but a failure
// must be one of the two documented corruption codes.
void ExpectCleanOutcome(const Target& target, const Status& status,
                        const std::string& what) {
  if (status.ok()) return;
  EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
              status.code() == StatusCode::kInvalidArgument)
      << target.name << " " << what << ": " << status.ToString();
}

TEST(SerializationCorruptionTest, ValidInputsParse) {
  for (const Target& target : Targets()) {
    EXPECT_TRUE(target.parse(target.valid).ok()) << target.name;
  }
}

TEST(SerializationCorruptionTest, TruncationAtEveryOffsetFailsCleanly) {
  for (const Target& target : Targets()) {
    for (std::size_t cut = 0; cut < target.valid.size(); ++cut) {
      Status status = target.parse(target.valid.substr(0, cut));
      if (cut < target.must_fail_below) {
        EXPECT_FALSE(status.ok())
            << target.name << " parsed a " << cut << "-byte prefix";
      }
      ExpectCleanOutcome(target, status,
                         "truncated at " + std::to_string(cut));
    }
  }
}

TEST(SerializationCorruptionTest, SingleBitFlipsFailCleanlyOrParse) {
  Rng rng(99);
  for (const Target& target : Targets()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string mangled = target.valid;
      std::size_t pos = rng.UniformIndex(mangled.size());
      int bit = static_cast<int>(rng.UniformIndex(8));
      mangled[pos] = static_cast<char>(mangled[pos] ^ (1 << bit));
      ExpectCleanOutcome(target, target.parse(mangled),
                         "bit flip at " + std::to_string(pos));
    }
  }
}

TEST(SerializationCorruptionTest, ByteSplicesFailCleanlyOrParse) {
  Rng rng(100);
  for (const Target& target : Targets()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string mangled = target.valid;
      // Overwrite a small window with random bytes.
      std::size_t pos = rng.UniformIndex(mangled.size());
      std::size_t len = std::min<std::size_t>(1 + rng.UniformIndex(8),
                                              mangled.size() - pos);
      for (std::size_t i = 0; i < len; ++i) {
        mangled[pos + i] = static_cast<char>(rng.UniformIndex(256));
      }
      ExpectCleanOutcome(target, target.parse(mangled),
                         "splice at " + std::to_string(pos));
    }
  }
}

TEST(SerializationCorruptionTest, HeaderManglingIsRejected) {
  for (const Target& target : Targets()) {
    // Wrong magic string.
    std::string wrong_magic = target.valid;
    wrong_magic[0] = 'X';
    EXPECT_FALSE(target.parse(wrong_magic).ok()) << target.name;
    ExpectCleanOutcome(target, target.parse(wrong_magic), "wrong magic");

    // Future version.
    std::string v2 = target.valid;
    std::size_t v1 = v2.find("v1");
    ASSERT_NE(v1, std::string::npos);
    v2[v1 + 1] = '2';
    EXPECT_FALSE(target.parse(v2).ok()) << target.name;
    ExpectCleanOutcome(target, target.parse(v2), "future version");

    // Empty and garbage documents.
    EXPECT_FALSE(target.parse("").ok()) << target.name;
    EXPECT_FALSE(target.parse("complete nonsense\n1 2 3\n").ok())
        << target.name;
  }
}

TEST(SerializationCorruptionTest, BackendAnnotationManglingIsRejected) {
  CondensedGroupSet stamped = MakeGroups(11);
  stamped.SetBackend("mdav", 3);
  const std::string valid = SerializeGroupSet(stamped);
  const std::string line = "backend mdav 3";
  ASSERT_NE(valid.find(line), std::string::npos);
  ASSERT_TRUE(ParseGroups(valid).ok());

  auto with = [&](const std::string& replacement) {
    std::string mangled = valid;
    mangled.replace(mangled.find(line), line.size(), replacement);
    return ParseGroups(mangled);
  };
  // Versions must be positive and fit an int; the id must be followed by
  // a numeric version (dropping it makes the next "group" line the
  // version token).
  for (const char* bad : {"backend mdav 0", "backend mdav -1",
                          "backend mdav 99999999999999999999",
                          "backend mdav x", "backend mdav"}) {
    Status status = with(bad);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << bad;
  }
}

TEST(SerializationCorruptionTest, FramedDocumentsFailClosedUnderMangling) {
  // The fabric ships these same documents inside checksummed wire frames
  // (kFinishResult carries a serialized group set). Fuzz the framed form:
  // either the frame layer rejects the damage (CRC/header validation) or
  // the payload decodes and the text parser sees the original bytes or a
  // benign mutation — never a crash or an out-of-range read. This pins
  // the defense-in-depth ordering: the CRC catches in-flight corruption
  // before the text parsers are even invoked.
  Rng rng(4242);
  for (const Target& target : Targets()) {
    const std::string wire =
        net::EncodeFrame(net::FrameType::kFinishResult, target.valid);
    int frame_rejects = 0;
    for (int trial = 0; trial < 300; ++trial) {
      std::string mangled = wire;
      const std::size_t pos = rng.UniformIndex(mangled.size());
      mangled[pos] = static_cast<char>(rng.UniformIndex(256));
      StatusOr<net::Frame> frame = net::DecodeFrame(mangled);
      if (!frame.ok()) {
        EXPECT_TRUE(frame.status().code() == StatusCode::kDataLoss ||
                    frame.status().code() == StatusCode::kFailedPrecondition)
            << target.name << ": " << frame.status().ToString();
        ++frame_rejects;
        continue;
      }
      // The frame survived, so the payload must be byte-identical (the
      // mangle restored the original byte) — a CRC pass with altered
      // payload bytes would be a checksum hole.
      EXPECT_EQ(frame->payload, target.valid) << target.name;
      EXPECT_TRUE(target.parse(frame->payload).ok()) << target.name;
    }
    // Sanity: the fuzz actually exercised the rejection path.
    EXPECT_GT(frame_rejects, 0) << target.name;
  }

  // Truncated frames — the common partial-write shape — also fail closed
  // for every cut point.
  const Target target = Targets().front();
  const std::string wire =
      net::EncodeFrame(net::FrameType::kFinishResult, target.valid);
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    EXPECT_EQ(net::DecodeFrame(wire.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << "cut " << cut;
  }
}

TEST(SerializationCorruptionTest, InflatedCountsAreRejected) {
  // Claiming more groups/records than the document carries must not make
  // the parser read past the end or loop.
  for (const Target& target : Targets()) {
    std::string mangled = target.valid;
    // First count on the header line after the magic (skip the "v1").
    std::size_t digit =
        mangled.find_first_of("0123456789", mangled.find('\n'));
    ASSERT_NE(digit, std::string::npos);
    mangled.replace(digit, 1, "999999");
    ExpectCleanOutcome(target, target.parse(mangled), "inflated count");
  }
}

TEST(SerializationCorruptionTest, NonFiniteSumsAreDataLoss) {
  // from_chars reads "nan" and "inf" as doubles, so the number grammar
  // alone lets them through; the group parser must refuse them and name
  // the group. Replaces the first value of the last group's fs or sc
  // section in every document kind (group set, pools, checkpoint state).
  for (const Target& target : Targets()) {
    for (const char* section : {"\nfs ", "\nsc "}) {
      for (const char* bad : {"nan", "-nan", "inf", "-inf", "NaN"}) {
        std::string mangled = target.valid;
        const std::size_t start = mangled.rfind(section);
        ASSERT_NE(start, std::string::npos) << target.name;
        const std::size_t value = start + std::strlen(section);
        const std::size_t end = mangled.find_first_of(" \n", value);
        ASSERT_NE(end, std::string::npos) << target.name;
        mangled.replace(value, end - value, bad);
        const Status status = target.parse(mangled);
        EXPECT_EQ(status.code(), StatusCode::kDataLoss)
            << target.name << " " << section + 1 << " " << bad << ": "
            << status.ToString();
        EXPECT_NE(status.message().find("non-finite"), std::string::npos)
            << status.ToString();
        EXPECT_NE(status.message().find("in group "), std::string::npos)
            << status.ToString();
      }
    }
  }
  // The group set's last group is group 2.
  std::string text = SerializeGroupSet(MakeGroups(9));
  const std::size_t fs = text.rfind("\nfs ") + 4;
  text.replace(fs, text.find(' ', fs) - fs, "nan");
  const Status status = DeserializeGroupSet(text).status();
  EXPECT_NE(status.message().find("non-finite fs value in group 2"),
            std::string::npos)
      << status.ToString();
}

// The v2 snapshot's trailer holds its length and a CRC32 of every byte
// before it, so every truncation and every single-bit flip is refused.
TEST(SerializationCorruptionTest, V2SnapshotRefusesEveryTruncationAndBitFlip) {
  for (const int inserts : {11, 2}) {
    const std::string valid = MakeStateV2(inserts);
    ASSERT_TRUE(ParseState(valid).ok()) << inserts;
    const auto expect_refused = [inserts](const Status& status,
                                          const std::string& what) {
      EXPECT_FALSE(status.ok()) << inserts << " " << what;
      EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                  status.code() == StatusCode::kInvalidArgument)
          << inserts << " " << what << ": " << status.ToString();
    };
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      expect_refused(ParseState(valid.substr(0, cut)),
                     "truncated at " + std::to_string(cut));
    }
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = valid;
        mangled[pos] = static_cast<char>(mangled[pos] ^ (1 << bit));
        expect_refused(ParseState(mangled), "bit flip at " +
                                                std::to_string(pos) + "." +
                                                std::to_string(bit));
      }
    }
  }
}

// The v2 pools and group-set files end in the snapshot's trailer, so
// every truncation and every single-bit flip is refused too, each with
// one of the two corruption codes.
TEST(SerializationCorruptionTest,
     V2StatisticsFilesRefuseEveryTruncationAndBitFlip) {
  CondensedGroupSet stamped = MakeGroups(12);
  stamped.SetBackend("mdav", 1);
  const Target targets[] = {
      {"pools", &ParsePools, MakePoolsV2(), 0},
      {"groups", &ParseGroups, SerializeGroupSetBinary(MakeGroups(7)), 0},
      {"stamped-groups", &ParseGroups, SerializeGroupSetBinary(stamped), 0}};
  for (const Target& target : targets) {
    ASSERT_TRUE(target.parse(target.valid).ok()) << target.name;
    const auto expect_refused = [&target](const Status& status,
                                          const std::string& what) {
      EXPECT_FALSE(status.ok()) << target.name << " " << what;
      EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                  status.code() == StatusCode::kInvalidArgument)
          << target.name << " " << what << ": " << status.ToString();
    };
    for (std::size_t cut = 0; cut < target.valid.size(); ++cut) {
      expect_refused(target.parse(target.valid.substr(0, cut)),
                     "truncated at " + std::to_string(cut));
    }
    for (std::size_t pos = 0; pos < target.valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = target.valid;
        mangled[pos] = static_cast<char>(mangled[pos] ^ (1 << bit));
        expect_refused(target.parse(mangled),
                       "bit flip at " + std::to_string(pos) + "." +
                           std::to_string(bit));
      }
    }
  }
}

// Writes one group-set section in d = `dim` that claims `groups` groups
// and holds one two-dimensional group with count `count`, first Fs
// value `fs0` and last Sc value `sc_last`.
void PutSection(WireWriter& out, std::uint64_t count, double fs0,
                double sc_last, std::uint32_t dim = 2,
                std::uint64_t groups = 1) {
  out.PutU32(dim);
  out.PutU64(3);
  out.PutString("condensation");
  out.PutU32(1);
  out.PutU64(groups);
  out.PutU64(count);
  for (const double value : {fs0, 1.0, 2.0, 0.5, sc_last}) {
    out.PutDouble(value);
  }
}

// A v2 group-set file whose trailer is intact, over PutSection's
// section and `extra` zero bytes after it. Checks past the CRC must
// refuse these.
std::string GroupsFile(std::uint64_t count, double fs0, double sc_last,
                       std::uint32_t dim = 2, std::uint64_t groups = 1,
                       std::size_t extra = 0) {
  WireWriter out;
  out.PutBytes("condensa-groups v2\n");
  PutSection(out, count, fs0, sc_last, dim, groups);
  out.PutBytes(std::string(extra, '\0'));
  PutTrailer(out);
  return out.Take();
}

// A v2 pools file whose trailer is intact: the header fields, then
// `with_pool` one pool (label 0) over a valid d = 2 section, then
// `extra` zero bytes.
std::string PoolsFile(std::uint8_t task, std::uint32_t feature_dim,
                      std::uint64_t pool_count, bool with_pool,
                      std::size_t extra = 0) {
  WireWriter out;
  out.PutBytes("condensa-pools v2\n");
  out.PutU8(task);
  out.PutU32(feature_dim);
  out.PutU64(pool_count);
  if (with_pool) {
    out.PutU32(0);
    out.PutU64(0);
    PutSection(out, 2, 0.5, 3.0);
  }
  out.PutBytes(std::string(extra, '\0'));
  PutTrailer(out);
  return out.Take();
}

// What the v1 readers refuse, the v2 readers refuse too, even when the
// trailer is intact: a zero count, non-finite sums, dim 0, counts the
// file cannot hold, pools that disagree on backend or dimension, and
// bytes past the last pool or group.
TEST(SerializationCorruptionTest, V2ReadersRefuseWhatV1Refuses) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(ParseGroups(GroupsFile(2, 0.5, 3.0)).ok());
  ASSERT_TRUE(ParsePools(PoolsFile(0, 2, 1, true)).ok());
  const struct {
    const char* name;
    Parser parse;
    std::string file;
    const char* message;
  } cases[] = {
      {"zero count", &ParseGroups, GroupsFile(0, 0.5, 3.0), "empty group 0"},
      {"nan fs", &ParseGroups, GroupsFile(2, nan, 3.0),
       "non-finite fs value in group 0"},
      {"inf sc", &ParseGroups, GroupsFile(2, 0.5, inf),
       "non-finite sc value in group 0"},
      {"dim 0", &ParseGroups, GroupsFile(2, 0.5, 3.0, 0),
       "malformed group-set header"},
      {"group count past the file", &ParseGroups,
       GroupsFile(2, 0.5, 3.0, 2, 2), "exceeds the bytes present"},
      {"dim past the file", &ParseGroups, GroupsFile(2, 0.5, 3.0, 1u << 31),
       "exceeds the bytes present"},
      {"bytes after the groups", &ParseGroups,
       GroupsFile(2, 0.5, 3.0, 2, 1, 1), "trailing bytes"},
      {"task out of range", &ParsePools, PoolsFile(3, 2, 0, false),
       "malformed pools header"},
      {"feature_dim 0", &ParsePools, PoolsFile(0, 0, 0, false),
       "malformed pools header"},
      {"pool count past the file", &ParsePools, PoolsFile(0, 2, 1000, false),
       "pool count exceeds the bytes present"},
      {"pool of another dim", &ParsePools, PoolsFile(0, 3, 1, true),
       "pool dimension mismatch in pool 0"},
      {"bytes after the pools", &ParsePools, PoolsFile(0, 2, 1, true, 4),
       "trailing bytes"},
  };
  for (const auto& c : cases) {
    const Status status = c.parse(c.file);
    EXPECT_FALSE(status.ok()) << c.name;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.name << ": " << status.ToString();
  }

  // Pools of one file share a backend stamp.
  CondensedPools mixed;
  mixed.feature_dim = 3;
  mixed.pools.push_back({0, 0, MakeGroups(3)});
  CondensedGroupSet stamped = MakeGroups(4);
  stamped.SetBackend("mdav", 1);
  mixed.pools.push_back({1, 0, std::move(stamped)});
  const Status status = ParsePools(SerializePools(mixed));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("must share a backend"), std::string::npos)
      << status;
}

// A bit flip anywhere in a v2 journal stops replay at the entry holding
// it and keeps every entry before it (a flip in the header drops them
// all: the journal no longer names its generation).
TEST(SerializationCorruptionTest, V2JournalBitFlipsStopAtTheFirstBadEntry) {
  const std::string dir =
      ::testing::TempDir() + "/condensa_v2_journal_fuzz";
  ASSERT_TRUE(CreateDirectories(dir).ok());
  const StatusOr<std::vector<std::string>> stale = ListDirectory(dir);
  ASSERT_TRUE(stale.ok());
  for (const std::string& name : *stale) {
    ASSERT_TRUE(RemoveFile(dir + "/" + name).ok());
  }
  const auto fingerprint = [](const DynamicCondenser& condenser) {
    return SerializeCondenserState(condenser, 0);
  };
  // Eleven inserts and a remove; prefixes[e] is the state after e entries.
  Rng rng(21);
  std::vector<Vector> records;
  for (int i = 0; i < 11; ++i) records.push_back(RandomRecord(rng));
  DynamicCondenser reference(3, {.group_size = 4});
  std::vector<std::string> prefixes = {fingerprint(reference)};
  {
    auto durable = DurableCondenser::Create(
        3, {.group_size = 4}, {.sync_every_append = false}, dir);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (const Vector& record : records) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
      prefixes.push_back(fingerprint(reference));
    }
    ASSERT_TRUE(durable->Remove(records[3]).ok());
    ASSERT_TRUE(reference.Remove(records[3]).ok());
    prefixes.push_back(fingerprint(reference));
  }
  const std::string path = dir + "/journal-000000.log";
  const std::string valid = *ReadFileToString(path);
  const std::size_t entry = JournalEntryBytes(3);
  ASSERT_EQ(valid.size(), kJournalHeaderBytes + 12 * entry);

  Rng fuzz(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mangled = valid;
    const std::size_t pos = fuzz.UniformIndex(mangled.size());
    mangled[pos] = static_cast<char>(mangled[pos] ^
                                     (1 << fuzz.UniformIndex(8)));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << mangled;
    const std::size_t kept =
        pos < kJournalHeaderBytes ? 0 : (pos - kJournalHeaderBytes) / entry;
    auto loaded = DurableCondenser::Load(dir, {.group_size = 4});
    ASSERT_TRUE(loaded.ok()) << "flip at " << pos << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(fingerprint(*loaded), prefixes[kept]) << "flip at " << pos;
  }
}

}  // namespace
}  // namespace condensa::core
