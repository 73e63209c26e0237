#include "core/checkpointing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "common/wire.h"
#include "core/backend.h"
#include "core/serialization.h"

namespace condensa::core {
namespace {

using linalg::Vector;

Vector MakeRecord(Rng& rng, std::size_t dim, double center) {
  Vector v(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    v[j] = rng.Gaussian(center, 1.0);
  }
  return v;
}

std::vector<Vector> MakeStream(std::size_t count, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.push_back(MakeRecord(rng, dim, i % 2 == 0 ? 0.0 : 6.0));
  }
  return stream;
}

// Full-state fingerprint: two condensers with equal fingerprints are
// bit-identical (the serialization renders doubles in their shortest
// round-trip form).
std::string Fingerprint(const DynamicCondenser& condenser) {
  return SerializeCondenserState(condenser, 0);
}

// A v2 journal of generation `sequence`: its header, then one insert
// entry per record.
std::string V2Journal(std::size_t sequence, std::size_t dim,
                      const std::vector<Vector>& inserts) {
  WireWriter out;
  out.PutBytes("condensa-journal v2\n");
  out.PutU64(sequence);
  out.PutCount(dim);
  for (const Vector& record : inserts) {
    AppendJournalEntry(out, 'i', record);
  }
  return out.Take();
}

// Every file in `dir` with its bytes, sorted by name.
std::vector<std::pair<std::string, std::string>> DirContents(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  const StatusOr<std::vector<std::string>> names = ListDirectory(dir);
  EXPECT_TRUE(names.ok()) << names.status().ToString();
  for (const std::string& name : *names) {
    files.emplace_back(name, *ReadFileToString(dir + "/" + name));
  }
  std::sort(files.begin(), files.end());
  return files;
}

class CheckpointingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    counter_ = 0;
  }
  void TearDown() override { FailPoint::Reset(); }

  // A fresh empty directory per call.
  std::string FreshDir() {
    std::string dir = ::testing::TempDir() + "/condensa_ckpt_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      "_" + std::to_string(counter_++);
    if (PathExists(dir)) {
      auto entries = ListDirectory(dir);
      if (entries.ok()) {
        for (const std::string& name : *entries) {
          RemoveFile(dir + "/" + name).ok();
        }
      }
    }
    CreateDirectories(dir).ok();
    return dir;
  }

  std::size_t counter_ = 0;
};

TEST_F(CheckpointingTest, StateRoundTripWithoutForming) {
  DynamicCondenser condenser(3, {.group_size = 4});
  Rng rng(11);
  ASSERT_TRUE(condenser.Bootstrap(MakeStream(20, 3, 1), rng).ok());
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 3, 0.0)).ok());

  std::size_t sequence = 0;
  auto state = DeserializeCondenserState(
      SerializeCondenserState(condenser, 42), &sequence);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(sequence, 42u);
  EXPECT_FALSE(state->forming.has_value());
  EXPECT_TRUE(state->bootstrapped);
  EXPECT_EQ(state->records_seen, 21u);

  auto rebuilt = DynamicCondenser::FromState(std::move(state).value(),
                                             {.group_size = 4});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Fingerprint(*rebuilt), Fingerprint(condenser));

  // Header counters past the int and uint32 ranges, and past exact double
  // integers: a long stream's snapshot must stay recoverable.
  for (std::size_t wide : {std::size_t{1} << 31, std::size_t{1} << 32,
                           (std::size_t{1} << 53) + 1}) {
    DynamicCondenser::State long_run;
    long_run.groups = condenser.groups();
    long_run.records_seen = wide;
    long_run.split_count = wide + 1;
    long_run.merge_count = wide + 2;
    long_run.bootstrapped = true;
    auto long_condenser =
        DynamicCondenser::FromState(std::move(long_run), {.group_size = 4});
    ASSERT_TRUE(long_condenser.ok()) << long_condenser.status();
    std::size_t wide_sequence = 0;
    auto reloaded = DeserializeCondenserState(
        SerializeCondenserState(*long_condenser, wide + 3), &wide_sequence);
    ASSERT_TRUE(reloaded.ok()) << wide << ": " << reloaded.status();
    EXPECT_EQ(wide_sequence, wide + 3);
    EXPECT_EQ(reloaded->records_seen, wide);
    EXPECT_EQ(reloaded->split_count, wide + 1);
    EXPECT_EQ(reloaded->merge_count, wide + 2);
  }
}

TEST_F(CheckpointingTest, StateRoundTripPreservesFormingBuffer) {
  DynamicCondenser condenser(2, {.group_size = 5});
  Rng rng(12);
  // Fewer than k records: all of them sit in the forming buffer.
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 1.0)).ok());
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 1.0)).ok());
  ASSERT_TRUE(condenser.forming().has_value());

  auto state = DeserializeCondenserState(
      SerializeCondenserState(condenser, 0), nullptr);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->forming.has_value());
  EXPECT_EQ(state->forming->count(), 2u);

  auto rebuilt = DynamicCondenser::FromState(std::move(state).value(),
                                             {.group_size = 5});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Fingerprint(*rebuilt), Fingerprint(condenser));

  // The buffered records must keep streaming correctly after the rebuild.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rebuilt->Insert(MakeRecord(rng, 2, 1.0)).ok());
  }
  EXPECT_GE(rebuilt->groups().num_groups(), 1u);
}

TEST_F(CheckpointingTest, CreateWritesInitialGenerationAndRefusesReuse) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(durable.ok());
  EXPECT_TRUE(PathExists(dir + "/snapshot-000000.condensa"));
  EXPECT_TRUE(PathExists(dir + "/journal-000000.log"));

  auto second = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointingTest, RecoverOnDirWithoutStateIsNotFound) {
  EXPECT_TRUE(IsNotFound(
      DurableCondenser::Recover(FreshDir(), {.group_size = 4}, {}).status()));
  EXPECT_TRUE(IsNotFound(DurableCondenser::Recover(
                             ::testing::TempDir() + "/condensa_ckpt_missing",
                             {.group_size = 4}, {})
                             .status()));
}

TEST_F(CheckpointingTest, RecoveryIsBitIdenticalToInMemoryState) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(37, 3, 21);

  DynamicCondenser reference(3, {.group_size = 4});
  {
    auto durable = DurableCondenser::Create(
        3, {.group_size = 4}, {.snapshot_interval = 10}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
  }  // "crash": the handle goes away without a final checkpoint

  auto recovered =
      DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 37u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, RecoverRefusesMismatchedBackend) {
  // Records standing in for another backend at two versions; the stream
  // never bootstraps, so their construction is never called.
  const Backend mdav{.id = "mdav", .version = 1,
                     .build = CondensationBackend().build};
  const Backend mdav_v2{.id = "mdav", .version = 2,
                        .build = CondensationBackend().build};
  const std::string dir = FreshDir();
  {
    auto durable = DurableCondenser::Create(
        3, {.group_size = 4, .backend = &mdav}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : MakeStream(19, 3, 33)) {
      ASSERT_TRUE(durable->Insert(record).ok());
    }
  }

  // Recovering under the default backend must refuse: the structure was
  // built and journaled by another grouping strategy.
  auto mismatched = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(std::string(mismatched.status().message()).find("mdav"),
            std::string::npos);

  // Same backend, wrong version: also refused.
  auto wrong_version = DurableCondenser::Recover(
      dir, {.group_size = 4, .backend = &mdav_v2}, {});
  ASSERT_FALSE(wrong_version.ok());
  EXPECT_EQ(wrong_version.status().code(), StatusCode::kFailedPrecondition);

  // The matching backend recovers cleanly and keeps the stamp.
  auto matched = DurableCondenser::Recover(
      dir, {.group_size = 4, .backend = &mdav}, {});
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->condenser().groups().backend_id(), "mdav");
  EXPECT_EQ(matched->records_seen(), 19u);

  // The snapshot's stamp names the built-in record a load runs under,
  // whatever backend the options name.
  auto loaded = DurableCondenser::Load(dir, {.group_size = 4});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options().backend, *FindBackend("mdav"));
}

TEST_F(CheckpointingTest, SnapshotIntervalRollsAndPrunesGenerations) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(
      2, {.group_size = 3}, {.snapshot_interval = 5}, dir);
  ASSERT_TRUE(durable.ok());
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(durable->Insert(MakeRecord(rng, 2, 0.0)).ok());
  }
  EXPECT_EQ(durable->snapshot_sequence(), 2u);
  EXPECT_EQ(durable->appends_since_snapshot(), 2u);

  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);  // only the live generation remains
  EXPECT_TRUE(PathExists(dir + "/snapshot-000002.condensa"));
  EXPECT_TRUE(PathExists(dir + "/journal-000002.log"));
}

TEST_F(CheckpointingTest, TornJournalTailIsTruncatedOnRecovery) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(9, 2, 31);
  DynamicCondenser reference(2, {.group_size = 3});
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
  }

  // Simulate a crash mid-append: an entry with no terminator or newline.
  const std::string journal = dir + "/journal-000000.log";
  {
    auto file = AppendFile::Open(journal);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("i 0.25 0.5").ok());
  }

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 9u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));

  // The torn bytes are gone: the journal holds its header and the nine
  // complete entries, and a second recovery replays cleanly too.
  auto content = ReadFileToString(journal);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content->size(), kJournalHeaderBytes + 9 * JournalEntryBytes(2));
  auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Fingerprint(again->condenser()), Fingerprint(reference));
}

// Load sees exactly what Recover restores, and writes nothing: the torn
// tail and the stray temp file Recover would repair stay on disk byte
// for byte.
TEST_F(CheckpointingTest, LoadMatchesRecoverAndWritesNothing) {
  const std::string dir = FreshDir();
  {
    auto durable = DurableCondenser::Create(
        2, {.group_size = 3}, {.snapshot_interval = 7}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : MakeStream(25, 2, 41)) {
      ASSERT_TRUE(durable->Insert(record).ok());
    }
  }
  const std::string journal = dir + "/journal-000003.log";
  ASSERT_TRUE(PathExists(journal));
  {
    auto file = AppendFile::Open(journal);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("i 0.5 0.5").ok());
  }
  ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot-000009.condensa.tmp.1",
                              "partial")
                  .ok());
  const auto before = DirContents(dir);

  auto loaded = DurableCondenser::Load(dir, {.group_size = 3});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(DirContents(dir), before);

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(loaded->records_seen(), 25u);
  EXPECT_EQ(loaded->records_seen(), recovered->records_seen());
  EXPECT_EQ(SerializeGroupSet(loaded->groups()),
            SerializeGroupSet(recovered->groups()));
  EXPECT_EQ(Fingerprint(*loaded), Fingerprint(recovered->condenser()));
}

// glibc strtod flags subnormals with ERANGE; replay used to take such an
// entry for a torn tail and truncate every acknowledged record from it.
TEST_F(CheckpointingTest, SubnormalJournalEntryIsReplayedNotTruncated) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(10, 2, 31);
  stream[3][0] = 5e-324;
  DynamicCondenserOptions options;
  options.group_size = 4;
  DynamicCondenser reference(2, options);
  {
    auto durable = DurableCondenser::Create(2, options, {}, dir);
    ASSERT_TRUE(durable.ok());
    Rng rng(5);
    ASSERT_TRUE(durable->Bootstrap(MakeStream(20, 2, 30), rng).ok());
    reference = durable->condenser();
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
  }
  auto recovered = DurableCondenser::Recover(dir, options, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->records_seen(), 30u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));
}

TEST(RecordLineTest, AppendsAndParsesTaggedLines) {
  const Vector record{0.1, -0.0, 5e-324, 1e22};
  std::string line;
  AppendRecordLine(line, 'i', record);
  EXPECT_EQ(line, "i 0.1 -0 5e-324 1e+22 .\n");
  Vector parsed(4);
  EXPECT_EQ(ParseRecordLine(std::string_view(line).substr(0, line.size() - 1),
                            &parsed),
            'i');
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(std::signbit(parsed[j]), std::signbit(record[j]));
    EXPECT_EQ(parsed[j], record[j]);
  }
  // The 17-digit form earlier writers produced, with any whitespace.
  EXPECT_EQ(ParseRecordLine(
                "  r\t0.10000000000000001 -0 4.9406564584124654e-324 "
                "1e+22 .  ",
                &parsed),
            'r');
  EXPECT_EQ(parsed[2], 5e-324);
}

TEST(RecordLineTest, RejectsTornAndMalformedLines) {
  Vector parsed(2);
  for (const char* bad : {"", "s", "s 1", "s 1 2", "s 1 2 . x", "s 1 2 3 .",
                          "s 1 x .", "ss 1 2 .", "s 1 2 .."}) {
    EXPECT_EQ(ParseRecordLine(bad, &parsed), '\0') << '"' << bad << '"';
  }
  EXPECT_EQ(ParseRecordLine("s 1 2 .", &parsed), 's');
  // Any one-character tag parses; the journal and the spool each refuse
  // tags that are not theirs.
  EXPECT_EQ(ParseRecordLine("x 1 2 .", &parsed), 'x');
}

// Writes a valid generation 1 by hand: the snapshot of seven records
// drawn from `seed`, and `journal` as journal-000001. Generation 2 is a
// snapshot torn mid-write (no end marker) and, if `newer_journal` is not
// empty, a journal holding records acknowledged after that snapshot's
// roll. Returns the condenser generation 1's snapshot holds.
DynamicCondenser WriteFallbackDir(const std::string& dir, std::uint64_t seed,
                                  const std::string& journal,
                                  const std::string& newer_journal) {
  DynamicCondenser condenser(2, {.group_size = 3});
  Rng rng(seed);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(condenser.Insert(MakeRecord(rng, 2, 0.0)).ok());
  }
  EXPECT_TRUE(WriteFileAtomic(dir + "/snapshot-000001.condensa",
                              SerializeCondenserState(condenser, 1))
                  .ok());
  EXPECT_TRUE(WriteFileAtomic(dir + "/journal-000001.log", journal).ok());
  EXPECT_TRUE(WriteFileAtomic(dir + "/snapshot-000002.condensa",
                              "condensa-snapshot v1\nseq 2 records 99 spl")
                  .ok());
  if (!newer_journal.empty()) {
    EXPECT_TRUE(
        WriteFileAtomic(dir + "/journal-000002.log", newer_journal).ok());
  }
  return condenser;
}

TEST_F(CheckpointingTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = FreshDir();
  const DynamicCondenser condenser =
      WriteFallbackDir(dir, 7, "condensa-journal v1 base 1\n", "");

  // Recovery falls back to generation 1, then rolls its v1 journal to a
  // v2 generation 2, whose snapshot replaces the torn one.
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_sequence(), 2u);
  EXPECT_EQ(recovered->records_seen(), 7u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(condenser));
  const auto after_first = DirContents(dir);
  ASSERT_EQ(after_first.size(), 2u);
  EXPECT_EQ(after_first[0].first, "journal-000002.log");
  EXPECT_EQ(after_first[0].second, V2Journal(2, 2, {}));
  EXPECT_EQ(after_first[1].first, "snapshot-000002.condensa");
  EXPECT_EQ(after_first[1].second, SerializeCondenserState(condenser, 2));

  {
    auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->snapshot_sequence(), 2u);
    EXPECT_EQ(Fingerprint(again->condenser()), Fingerprint(condenser));
  }
  EXPECT_EQ(DirContents(dir), after_first);
}

TEST_F(CheckpointingTest, CorruptNewestSnapshotFallsBackToOlderWithV2Journal) {
  const std::string dir = FreshDir();
  const DynamicCondenser condenser =
      WriteFallbackDir(dir, 7, V2Journal(1, 2, {}), "");

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->snapshot_sequence(), 1u);
  EXPECT_EQ(recovered->records_seen(), 7u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(condenser));
  // The unrecoverable newer snapshot is preserved: recovery never
  // destroys evidence ahead of the generation it restored, so a rerun
  // deterministically falls back to generation 1 again.
  EXPECT_TRUE(PathExists(dir + "/snapshot-000002.condensa"));
}

TEST_F(CheckpointingTest, RecoveryIsIdempotentAndOrphansNewerJournals) {
  const std::string dir = FreshDir();
  // Generation 1 has two journaled records. Generation 2's journal must
  // be set aside before the v1 roll opens a fresh journal-000002.
  const std::string orphan_payload =
      "condensa-journal v1 base 2\n"
      "i 1.5 2.5 .\n";
  WriteFallbackDir(dir, 13,
                   "condensa-journal v1 base 1\n"
                   "i 0.25 0.5 .\n"
                   "i 6.5 5.75 .\n",
                   orphan_payload);

  std::string fingerprint;
  {
    auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->snapshot_sequence(), 2u);
    EXPECT_EQ(recovered->records_seen(), 9u);  // 7 + 2 replayed
    fingerprint = Fingerprint(recovered->condenser());
  }

  // The acknowledged-but-unrestorable journal is set aside, not deleted,
  // and the roll wrote a fresh v2 generation 2 next to it.
  auto orphan = ReadFileToString(dir + "/journal-000002.log.orphan");
  ASSERT_TRUE(orphan.ok());
  EXPECT_EQ(*orphan, orphan_payload);
  auto fresh_journal = ReadFileToString(dir + "/journal-000002.log");
  ASSERT_TRUE(fresh_journal.ok()) << fresh_journal.status().ToString();
  EXPECT_EQ(*fresh_journal, V2Journal(2, 2, {}));
  auto snapshot = ReadFileToString(dir + "/snapshot-000002.condensa");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->starts_with("condensa-snapshot v2\n"));
  const auto after_first = DirContents(dir);
  ASSERT_EQ(after_first.size(), 3u);

  // Recovering again is a pure no-op: same state, same bytes on disk.
  {
    auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->snapshot_sequence(), 2u);
    EXPECT_EQ(again->records_seen(), 9u);
    EXPECT_EQ(Fingerprint(again->condenser()), fingerprint);
  }
  EXPECT_EQ(DirContents(dir), after_first);
}

TEST_F(CheckpointingTest,
       RecoveryIsIdempotentAndOrphansNewerJournalsWithV2Journal) {
  const std::string dir = FreshDir();
  const std::string orphan_payload = V2Journal(2, 2, {Vector{1.5, 2.5}});
  WriteFallbackDir(dir, 13,
                   V2Journal(1, 2, {Vector{0.25, 0.5}, Vector{6.5, 5.75}}),
                   orphan_payload);

  std::string fingerprint;
  {
    auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->snapshot_sequence(), 1u);
    EXPECT_EQ(recovered->records_seen(), 9u);  // 7 + 2 replayed
    fingerprint = Fingerprint(recovered->condenser());
  }

  // The acknowledged-but-unrestorable journal is set aside, not deleted.
  EXPECT_FALSE(PathExists(dir + "/journal-000002.log"));
  auto orphan = ReadFileToString(dir + "/journal-000002.log.orphan");
  ASSERT_TRUE(orphan.ok());
  EXPECT_EQ(*orphan, orphan_payload);

  // Snapshot the directory, byte for byte.
  const auto after_first = DirContents(dir);

  // Recovering again is a pure no-op: same state, same bytes on disk.
  {
    auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->snapshot_sequence(), 1u);
    EXPECT_EQ(again->records_seen(), 9u);
    EXPECT_EQ(Fingerprint(again->condenser()), fingerprint);
  }
  EXPECT_EQ(DirContents(dir), after_first);
}

TEST_F(CheckpointingTest, ReplayApplyFailureFailsRecoveryWithoutTruncating) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(9, 2, 41);
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
    }
  }
  const std::string journal = dir + "/journal-000000.log";
  auto before = ReadFileToString(journal);
  ASSERT_TRUE(before.ok());

  // A transient fault during replay must fail the recovery — truncating
  // at the failed entry would destroy the acknowledged records behind it.
  FailPoint::Arm("dynamic.insert",
                 {.fail_at = 5, .code = StatusCode::kInternal});
  auto failed = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  FailPoint::Reset();

  auto after = ReadFileToString(journal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // Once the fault clears, recovery replays everything.
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 9u);
}

TEST_F(CheckpointingTest, NoRecoverableSnapshotIsDataLoss) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/snapshot-000000.condensa", "garbage").ok());
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);

  // Journal without any snapshot is equally unrecoverable.
  const std::string dir2 = FreshDir();
  ASSERT_TRUE(WriteFileAtomic(dir2 + "/journal-000000.log",
                              "condensa-journal v1 base 0\n")
                  .ok());
  EXPECT_EQ(DurableCondenser::Recover(dir2, {.group_size = 3}, {})
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointingTest, OpenCreatesThenRecoversAndChecksDimension) {
  const std::string dir = FreshDir();
  {
    auto durable = DurableCondenser::Open(3, {.group_size = 4}, {}, dir);
    ASSERT_TRUE(durable.ok());
    Rng rng(3);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());
    }
  }
  auto reopened = DurableCondenser::Open(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->records_seen(), 5u);

  auto mismatched = DurableCondenser::Open(7, {.group_size = 4}, {}, dir);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointingTest, BootstrapBecomesDurableViaSnapshot) {
  const std::string dir = FreshDir();
  std::string fingerprint;
  {
    auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
    ASSERT_TRUE(durable.ok());
    Rng rng(17);
    ASSERT_TRUE(durable->Bootstrap(MakeStream(24, 3, 8), rng).ok());
    EXPECT_TRUE(durable->condenser().groups().num_groups() > 0);
    fingerprint = Fingerprint(durable->condenser());
  }
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 24u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), fingerprint);
}

TEST_F(CheckpointingTest, RemoveIsJournaledAndRecovered) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(20, 2, 13);
  DynamicCondenser reference(2, {.group_size = 3});
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
    ASSERT_TRUE(durable->Remove(stream[4]).ok());
    ASSERT_TRUE(reference.Remove(stream[4]).ok());
  }
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, FailedSplitDuringInsertDoesNotPoisonSnapshots) {
  // Regression test: DynamicCondenser::Insert adds the record to a group
  // *before* the 2k split runs, so a split failure (eigensolver) leaves
  // the in-memory structure partially mutated. DurableCondenser must
  // rebuild from disk, or a later Checkpoint persists a state (8-record
  // unsplit group) that journal replay can never reproduce.
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(8, 3, 41);
  auto durable = DurableCondenser::Create(
      3, {.group_size = 4}, {.snapshot_interval = 100}, dir);
  ASSERT_TRUE(durable.ok());
  DynamicCondenser reference(3, {.group_size = 4});
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    ASSERT_TRUE(durable->Insert(stream[i]).ok());
    ASSERT_TRUE(reference.Insert(stream[i]).ok());
  }

  // Record 8 fills the single group to 2k and triggers the split, whose
  // eigendecomposition we force to fail.
  FailPoint::Arm("eigen.jacobi", {.fail_at = 1});
  EXPECT_FALSE(durable->Insert(stream.back()).ok());
  FailPoint::Reset();

  // Memory was rebuilt to the durable prefix: 7 records, bit-identical.
  EXPECT_EQ(durable->records_seen(), 7u);
  EXPECT_EQ(Fingerprint(durable->condenser()), Fingerprint(reference));

  // A checkpoint now must persist a consistent state...
  ASSERT_TRUE(durable->Checkpoint().ok());
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));

  // ...and retrying the record succeeds with the split applied.
  ASSERT_TRUE(durable->Insert(stream.back()).ok());
  ASSERT_TRUE(reference.Insert(stream.back()).ok());
  EXPECT_EQ(reference.split_count(), 1u);
  EXPECT_EQ(Fingerprint(durable->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, InsertDimensionMismatchLeavesJournalClean) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(durable.ok());
  Rng rng(9);
  ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());
  EXPECT_EQ(durable->Insert(Vector(2)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 2u);
}

// A checkpoint directory an earlier build wrote in the v1 text format
// (tests/core/testdata/checkpoint_v1): d = 3, k = 4, a snapshot holding
// a two-record forming buffer, then a journal of nine inserts, one remove
// and an insert, ending in a torn entry.
constexpr char kV1FixtureGroups[] =
    "condensa-groups v1\n"
    "dim 3 k 4 groups 2\n"
    "group n 5\n"
    "fs 4.806639532743847 5.625841463681117 -7.881137276065435\n"
    "sc 8.547357546905207 6.638192849243614 -4.038510422680534 "
    "9.784826220644756 -6.766816482938866 16.482457101229564\n"
    "group n 5\n"
    "fs 18.693360467256152 15.874158536318884 7.381137276065434\n"
    "sc 74.95264245309481 63.17430715075639 32.288510422680545 "
    "55.09017377935527 27.266816482938886 15.892542898770458\n";

// What the fixture restores: the group set, the record count and the
// split count (the forming buffer has become the first group).
void ExpectV1FixtureState(const DynamicCondenser& condenser) {
  EXPECT_EQ(SerializeGroupSet(condenser.groups()), kV1FixtureGroups);
  EXPECT_EQ(condenser.records_seen(), 10u);
  EXPECT_EQ(condenser.split_count(), 1u);
  EXPECT_FALSE(condenser.forming().has_value());
}

TEST_F(CheckpointingTest, V1CheckpointLoadsRecoversAndRollsToV2) {
  const std::string fixture =
      std::string(CONDENSA_TESTDATA_DIR) + "/checkpoint_v1";
  const std::string dir = FreshDir();
  for (const char* name : {"snapshot-000001.condensa", "journal-000001.log"}) {
    auto bytes = ReadFileToString(fixture + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, *bytes).ok());
  }
  const std::string journal = dir + "/journal-000001.log";
  const std::string torn = *ReadFileToString(journal);
  ASSERT_TRUE(torn.ends_with("i 0.5 -1.25"));

  const auto before = DirContents(dir);
  auto loaded = DurableCondenser::Load(dir, {.group_size = 4});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectV1FixtureState(*loaded);
  EXPECT_EQ(DirContents(dir), before);

  // Recover repairs the torn tail, then rolls the v1 generation to v2 at
  // once: one v2 snapshot and an empty v2 journal, nothing of generation
  // 1 left.
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectV1FixtureState(recovered->condenser());
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(*loaded));
  EXPECT_EQ(recovered->snapshot_sequence(), 2u);
  const std::string v2_journal_header =
      std::string("condensa-journal v2\n") +
      std::string("\x02\0\0\0\0\0\0\0\x03\0\0\0", 12);
  const auto after_first = DirContents(dir);
  ASSERT_EQ(after_first.size(), 2u);
  EXPECT_EQ(after_first[0].first, "journal-000002.log");
  EXPECT_EQ(after_first[0].second, v2_journal_header);
  EXPECT_EQ(after_first[1].first, "snapshot-000002.condensa");
  EXPECT_TRUE(after_first[1].second.starts_with("condensa-snapshot v2\n"));

  // A second Recover is a no-op.
  {
    auto again = DurableCondenser::Recover(dir, {.group_size = 4}, {});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectV1FixtureState(again->condenser());
    EXPECT_EQ(Fingerprint(again->condenser()), Fingerprint(*loaded));
  }
  EXPECT_EQ(DirContents(dir), after_first);

  // Appends after the roll are v2 entries.
  ASSERT_TRUE(recovered->Insert(Vector{2.0, 1.5, 0.25}).ok());
  EXPECT_EQ(ReadFileToString(dir + "/journal-000002.log")->size(),
            kJournalHeaderBytes + JournalEntryBytes(3));
  auto rolled = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled->records_seen(), 11u);
  EXPECT_EQ(Fingerprint(rolled->condenser()),
            Fingerprint(recovered->condenser()));
}

// A v1 roll that fails fails Recover, and leaves the repaired v1
// generation in place for the next attempt.
TEST_F(CheckpointingTest, FailedV1RollFailsRecoverAndKeepsTheV1Generation) {
  const std::string fixture =
      std::string(CONDENSA_TESTDATA_DIR) + "/checkpoint_v1";
  const std::string dir = FreshDir();
  for (const char* name : {"snapshot-000001.condensa", "journal-000001.log"}) {
    auto bytes = ReadFileToString(fixture + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, *bytes).ok());
  }
  FailPoint::Arm("checkpoint.snapshot", {.fail_at = 1});
  auto failed = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_FALSE(failed.ok());
  FailPoint::Reset();
  auto names = ListDirectory(dir);
  ASSERT_TRUE(names.ok());
  std::sort(names->begin(), names->end());
  EXPECT_EQ(*names, (std::vector<std::string>{"journal-000001.log",
                                              "snapshot-000001.condensa"}));
  EXPECT_TRUE(ReadFileToString(dir + "/journal-000001.log")
                  ->starts_with("condensa-journal v1"));

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectV1FixtureState(recovered->condenser());
  EXPECT_EQ(recovered->snapshot_sequence(), 2u);
}

// Snapshots an earlier build wrote in v2, before the group codec moved
// into core/serialization: tests/core/testdata/checkpoint_v2 (d = 3,
// k = 3, bootstrapped, four groups after two splits, 15 records) and
// snapshot_v2_forming.condensa (a two-record forming buffer, not
// bootstrapped). Each re-serializes byte for byte, so the codec's move
// left the snapshot bytes unchanged, and the directory loads.
TEST_F(CheckpointingTest, V2FixtureSnapshotsReserializeByteForByte) {
  const std::string dir = std::string(CONDENSA_TESTDATA_DIR);
  for (const char* name : {"checkpoint_v2/snapshot-000005.condensa",
                           "snapshot_v2_forming.condensa"}) {
    auto bytes = ReadFileToString(dir + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::size_t sequence = 0;
    auto state = DeserializeCondenserState(*bytes, &sequence);
    ASSERT_TRUE(state.ok()) << name << ": " << state.status().ToString();
    auto condenser = DynamicCondenser::FromState(*state, {.group_size = 3});
    ASSERT_TRUE(condenser.ok()) << condenser.status().ToString();
    EXPECT_EQ(SerializeCondenserState(*condenser, sequence), *bytes) << name;
  }
  auto loaded = DurableCondenser::Load(dir + "/checkpoint_v2",
                                       {.group_size = 3});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records_seen(), 15u);
  EXPECT_EQ(loaded->groups().num_groups(), 4u);
  EXPECT_EQ(loaded->split_count(), 2u);
  EXPECT_TRUE(loaded->bootstrapped());
}

// A fresh checkpoint's snapshot holds no group, so it is shorter than a
// wide record's dimension; it must still load.
TEST_F(CheckpointingTest, EmptySnapshotOfWideRecordsRecovers) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(DurableCondenser::Create(200, {.group_size = 4}, {}, dir).ok());
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->groups().dim(), 200u);
  EXPECT_EQ(recovered->records_seen(), 0u);
}

}  // namespace
}  // namespace condensa::core
