// Crash-recovery sweep: a durable streaming condensation is crashed at
// EVERY fault boundary it crosses — each journal append, fsync, snapshot
// write, rename, journal roll, and eigensolver call — via armed
// failpoints, in both clean-error and torn-write modes (torn at the v2
// journal entry's boundaries too), and with a newest snapshot that lost
// its trailer. After every injected crash, recovery must (a) lose no
// acknowledged record, (b) be bit-identical to an in-memory condenser fed
// the same durable prefix, and (c) resume to a final structure identical
// to a run that never crashed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "core/checkpointing.h"

namespace condensa::core {
namespace {

using linalg::Vector;

constexpr std::size_t kDim = 3;
constexpr std::size_t kStreamLen = 28;

DynamicCondenserOptions CondenserOptions() { return {.group_size = 4}; }
DurabilityOptions Durability() { return {.snapshot_interval = 6}; }

// The deterministic record stream shared by every run.
const std::vector<Vector>& Stream() {
  static const std::vector<Vector>* stream = [] {
    auto* s = new std::vector<Vector>();
    Rng rng(2024);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      Vector v(kDim);
      for (std::size_t j = 0; j < kDim; ++j) {
        v[j] = rng.Gaussian(i % 2 == 0 ? 0.0 : 5.0, 1.0);
      }
      s->push_back(std::move(v));
    }
    return s;
  }();
  return *stream;
}

std::string Fingerprint(const DynamicCondenser& condenser) {
  return SerializeCondenserState(condenser, 0);
}

// Bit-exact state of an uninterrupted in-memory run over the first
// `count` records.
std::string PrefixFingerprint(std::size_t count) {
  DynamicCondenser reference(kDim, CondenserOptions());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(reference.Insert(Stream()[i]).ok());
  }
  return Fingerprint(reference);
}

void WipeDir(const std::string& dir) {
  ASSERT_TRUE(CreateDirectories(dir).ok());
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  for (const std::string& name : *entries) {
    ASSERT_TRUE(RemoveFile(dir + "/" + name).ok());
  }
}

// One end-to-end durable run; stops at the first failed operation (the
// injected crash). Returns how many Inserts were acknowledged.
std::size_t RunScenario(const std::string& dir) {
  auto durable =
      DurableCondenser::Create(kDim, CondenserOptions(), Durability(), dir);
  if (!durable.ok()) return 0;
  std::size_t acked = 0;
  for (std::size_t i = 0; i < kStreamLen; ++i) {
    if (!durable->Insert(Stream()[i]).ok()) break;
    ++acked;
  }
  durable->Checkpoint().ok();  // best-effort final snapshot
  return acked;
}

// Bytes of a v2 snapshot's trailer: its u64 length and u32 CRC32.
constexpr std::size_t kSnapshotTrailerBytes = 8 + 4;

// Models a roll that crashed after its rename reached the disk but before
// the snapshot's last bytes did: writes snapshot N+1 of the crashed
// directory's state without its trailer. Returns N+1, or 0 when the
// crash left no state to snapshot.
std::size_t PlantSnapshotWithoutTrailer(const std::string& dir) {
  auto loaded = DurableCondenser::Load(dir, CondenserOptions());
  if (!loaded.ok()) return 0;
  std::size_t newest = 0;
  const StatusOr<std::vector<std::string>> names = ListDirectory(dir);
  for (const std::string& name : *names) {
    if (name.starts_with("snapshot-") && name.ends_with(".condensa")) {
      newest = std::max<std::size_t>(newest, std::stoul(name.substr(9, 6)));
    }
  }
  const std::size_t planted = newest + 1;
  std::string bytes = SerializeCondenserState(*loaded, planted);
  bytes.resize(bytes.size() - kSnapshotTrailerBytes);
  char name[32];
  std::snprintf(name, sizeof(name), "/snapshot-%06zu.condensa", planted);
  EXPECT_TRUE(WriteFileAtomic(dir + name, bytes).ok());
  return planted;
}

struct Variant {
  std::string probe;
  FailPointSpec spec;
  std::string label;
  // Damage done to the crashed directory before recovery; returns a
  // snapshot sequence recovery must refuse (0 for none).
  std::size_t (*after_crash)(const std::string& dir) = nullptr;
};

std::vector<Variant> Variants() {
  const auto torn = [](std::size_t bytes) {
    return FailPointSpec{.mode = FailPointMode::kTornWrite,
                         .torn_bytes = bytes};
  };
  const std::size_t half = static_cast<std::size_t>(-1);
  const FailPointSpec error;
  // One push per variant: a braced list of these aggregates trips a
  // -Wmaybe-uninitialized false positive on FailPointSpec::message.
  std::vector<Variant> variants;
  const auto add = [&variants](const char* probe, FailPointSpec spec,
                               const char* label,
                               std::size_t (*after_crash)(const std::string&) =
                                   nullptr) {
    variants.push_back({probe, std::move(spec), label, after_crash});
  };
  add("checkpoint.snapshot", error, "snapshot/error");
  add("checkpoint.journal_append", error, "journal_append/error");
  add("io.atomic_write", error, "atomic_write/error");
  add("io.atomic_write", torn(half), "atomic_write/torn-half");
  add("io.atomic_write", torn(3), "atomic_write/torn-3");
  add("io.atomic_rename", error, "atomic_rename/error");
  add("io.append", error, "append/error");
  add("io.append", torn(half), "append/torn-half");
  add("io.append", torn(2), "append/torn-2");
  // v2 journal entry boundaries: the tag byte alone, and everything but
  // the CRC32.
  add("io.append", torn(1), "append/torn-1");
  add("io.append", torn(JournalEntryBytes(kDim) - 4), "append/torn-before-crc");
  add("io.append", error, "append/error+snapshot-without-trailer",
      &PlantSnapshotWithoutTrailer);
  add("io.sync", error, "sync/error");
  add("eigen.jacobi",
      {.code = StatusCode::kInternal, .message = "eigensolver diverged"},
      "eigen/non-convergence");
  add("dynamic.insert", error, "apply/error");
  return variants;
}

TEST(CrashRecoveryTest, EveryWriteBoundarySurvivesInjectedCrash) {
  const std::string dir =
      ::testing::TempDir() + "/condensa_crash_recovery";
  const std::string baseline = PrefixFingerprint(kStreamLen);

  // Phase 1: one unarmed run counts the fault boundaries the scenario
  // actually crosses, per probe.
  FailPoint::Reset();
  WipeDir(dir);
  ASSERT_EQ(RunScenario(dir), kStreamLen);
  std::map<std::string, std::size_t> boundaries;
  for (const Variant& variant : Variants()) {
    boundaries[variant.probe] = FailPoint::HitCount(variant.probe);
    ASSERT_GT(boundaries[variant.probe], 0u)
        << variant.probe << " probe never reached — dead instrumentation?";
  }

  // Phase 2: re-run the scenario once per (variant, boundary), crashing
  // at exactly that boundary.
  std::size_t crashes = 0;
  for (const Variant& variant : Variants()) {
    for (std::size_t at = 1; at <= boundaries[variant.probe]; ++at) {
      SCOPED_TRACE(variant.label + " fail_at=" + std::to_string(at));
      FailPoint::Reset();
      WipeDir(dir);
      FailPointSpec spec = variant.spec;
      spec.fail_at = at;
      FailPoint::Arm(variant.probe, spec);
      const std::size_t acked = RunScenario(dir);
      FailPoint::Reset();  // the "machine" reboots with healthy hardware
      ++crashes;
      const std::size_t refused =
          variant.after_crash != nullptr ? variant.after_crash(dir) : 0;

      auto recovered =
          DurableCondenser::Recover(dir, CondenserOptions(), Durability());
      if (IsNotFound(recovered.status())) {
        // The crash predated any durable state; nothing was acked.
        ASSERT_EQ(acked, 0u);
        recovered = DurableCondenser::Create(kDim, CondenserOptions(),
                                             Durability(), dir);
      }
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      if (refused != 0) {
        ASSERT_LT(recovered->snapshot_sequence(), refused);
      }

      // (a) no acknowledged record is lost, and (b) the recovered state
      // is bit-identical to an uninterrupted run over its prefix.
      const std::size_t durable_prefix = recovered->records_seen();
      ASSERT_GE(durable_prefix, acked);
      ASSERT_LE(durable_prefix, kStreamLen);
      ASSERT_EQ(Fingerprint(recovered->condenser()),
                PrefixFingerprint(durable_prefix));

      // (c) resuming the stream converges to the uninterrupted baseline.
      for (std::size_t i = durable_prefix; i < kStreamLen; ++i) {
        ASSERT_TRUE(recovered->Insert(Stream()[i]).ok());
      }
      ASSERT_EQ(Fingerprint(recovered->condenser()), baseline);
    }
  }
  // The sweep must actually have exercised a meaningful number of
  // distinct crash points.
  EXPECT_GT(crashes, 100u);
}

TEST(CrashRecoveryTest, RepeatedCrashesDuringRecoveryStillConverge) {
  // Crash, recover, crash again mid-resume, recover again — state must
  // never regress.
  const std::string dir =
      ::testing::TempDir() + "/condensa_crash_recovery_repeat";
  FailPoint::Reset();
  WipeDir(dir);

  FailPoint::Arm("io.append", {.fail_at = 9});
  std::size_t acked = RunScenario(dir);
  FailPoint::Reset();
  ASSERT_LT(acked, kStreamLen);

  std::size_t last_prefix = 0;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto recovered =
        DurableCondenser::Recover(dir, CondenserOptions(), Durability());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_GE(recovered->records_seen(), last_prefix);
    last_prefix = recovered->records_seen();
    // Resume, crashing a little further along each round.
    FailPoint::Arm("io.append",
                   {.fail_at = 4 + static_cast<std::size_t>(round)});
    for (std::size_t i = last_prefix; i < kStreamLen; ++i) {
      if (!recovered->Insert(Stream()[i]).ok()) break;
    }
    FailPoint::Reset();
  }

  auto final_state =
      DurableCondenser::Recover(dir, CondenserOptions(), Durability());
  ASSERT_TRUE(final_state.ok());
  ASSERT_GE(final_state->records_seen(), last_prefix);
  EXPECT_EQ(Fingerprint(final_state->condenser()),
            PrefixFingerprint(final_state->records_seen()));
}

}  // namespace
}  // namespace condensa::core
