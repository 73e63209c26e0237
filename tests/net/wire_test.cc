// Wire payload codecs: bit-exact round trips, bounds-checked reads, and
// validate-before-allocate length handling.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "core/serialization.h"
#include "linalg/vector.h"
#include "net/frame.h"
#include "runtime/pipeline.h"

namespace condensa::net {
namespace {

using linalg::Vector;

TEST(WireReaderTest, ScalarRoundTrip) {
  WireWriter writer;
  writer.PutU8(7);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutDouble(-0.0);
  writer.PutString("blob");

  WireReader reader(writer.buffer());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double d = 1.0;
  std::string s;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU16(&u16).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ExpectDone().ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(std::signbit(d));  // -0.0 survives bit-exactly
  EXPECT_EQ(s, "blob");
}

TEST(WireWriterTest, CountIsCheckedAgainstTheU32Cap) {
  constexpr std::size_t kCap = std::numeric_limits<std::uint32_t>::max();
  WireWriter writer;
  writer.PutCount(kCap);
  WireReader reader(writer.buffer());
  std::uint32_t count = 0;
  ASSERT_TRUE(reader.ReadU32(&count).ok());
  EXPECT_EQ(count, kCap);
  EXPECT_TRUE(reader.ExpectDone().ok());
  // One past the cap would wrap to 0 on the wire; it aborts instead.
  EXPECT_DEATH(writer.PutCount(kCap + 1), "");
}

TEST(WireReaderTest, ReadsPastTheEndAreDataLoss) {
  WireWriter writer;
  writer.PutU32(5);
  WireReader reader(writer.buffer());
  std::uint64_t u64 = 0;
  EXPECT_EQ(reader.ReadU64(&u64).code(), StatusCode::kDataLoss);
  // The failed read did not consume anything.
  std::uint32_t u32 = 0;
  EXPECT_TRUE(reader.ReadU32(&u32).ok());
  EXPECT_EQ(u32, 5u);
}

TEST(WireReaderTest, StringLengthValidatedBeforeAllocation) {
  // A length prefix claiming far more bytes than the buffer holds must
  // fail from the bounds check, never allocate.
  WireWriter writer;
  writer.PutU32(0x7FFFFFFFu);  // huge claimed length, no bytes behind it
  WireReader reader(writer.buffer());
  std::string s;
  EXPECT_EQ(reader.ReadString(&s).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(s.empty());
}

TEST(WireReaderTest, TrailingBytesAreRejected) {
  WireWriter writer;
  writer.PutU8(1);
  writer.PutU8(2);
  WireReader reader(writer.buffer());
  std::uint8_t u8 = 0;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  EXPECT_EQ(reader.ExpectDone().code(), StatusCode::kDataLoss);
}

TEST(WireMessageTest, HelloRoundTrip) {
  HelloMessage msg;
  msg.shard_id = 3;
  msg.dim = 17;
  msg.group_size = 25;
  msg.split_rule = 1;
  msg.snapshot_interval = 512;
  msg.sync_every_append = 1;
  msg.queue_capacity = 2048;
  msg.batch_size = 16;
  msg.seed = 0xFEEDFACEull;
  msg.backend = "mdav";
  StatusOr<HelloMessage> decoded = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard_id, msg.shard_id);
  EXPECT_EQ(decoded->dim, msg.dim);
  EXPECT_EQ(decoded->group_size, msg.group_size);
  EXPECT_EQ(decoded->split_rule, msg.split_rule);
  EXPECT_EQ(decoded->snapshot_interval, msg.snapshot_interval);
  EXPECT_EQ(decoded->sync_every_append, msg.sync_every_append);
  EXPECT_EQ(decoded->queue_capacity, msg.queue_capacity);
  EXPECT_EQ(decoded->batch_size, msg.batch_size);
  EXPECT_EQ(decoded->seed, msg.seed);
  EXPECT_EQ(decoded->backend, msg.backend);
}

TEST(WireMessageTest, HelloDefaultsToCondensationBackend) {
  HelloMessage msg;
  msg.dim = 4;
  msg.group_size = 10;
  StatusOr<HelloMessage> decoded = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->backend, "condensation");
}

TEST(WireMessageTest, HelloRejectsEmptyBackend) {
  HelloMessage msg;
  msg.dim = 4;
  msg.group_size = 10;
  msg.backend = "";
  StatusOr<HelloMessage> decoded = DecodeHello(EncodeHello(msg));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(WireMessageTest, HelloRejectsZeroOrHugeDim) {
  HelloMessage msg;
  msg.dim = 0;
  msg.group_size = 10;
  EXPECT_FALSE(DecodeHello(EncodeHello(msg)).ok());
  msg.dim = (1ull << 40);
  EXPECT_FALSE(DecodeHello(EncodeHello(msg)).ok());
}

TEST(WireMessageTest, SubmitRoundTripsRecordsBitExactly) {
  Rng rng(11);
  SubmitMessage msg;
  msg.base_sequence = 1234;
  msg.dim = 5;
  for (int i = 0; i < 9; ++i) {
    Vector record(5);
    for (std::size_t j = 0; j < 5; ++j) record[j] = rng.Gaussian();
    msg.records.push_back(record);
  }
  // Throw in the awkward bit patterns.
  Vector awkward(5);
  awkward[0] = -0.0;
  awkward[1] = std::numeric_limits<double>::denorm_min();
  awkward[2] = -std::numeric_limits<double>::max();
  awkward[3] = 1e-300;
  awkward[4] = 0.1 + 0.2;
  msg.records.push_back(awkward);

  StatusOr<SubmitMessage> decoded = DecodeSubmit(EncodeSubmit(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->base_sequence, msg.base_sequence);
  ASSERT_EQ(decoded->records.size(), msg.records.size());
  for (std::size_t i = 0; i < msg.records.size(); ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      // Bitwise, not numeric, comparison.
      std::uint64_t want, got;
      static_assert(sizeof(double) == sizeof(std::uint64_t));
      std::memcpy(&want, &msg.records[i][j], sizeof(want));
      std::memcpy(&got, &decoded->records[i][j], sizeof(got));
      EXPECT_EQ(want, got) << "record " << i << " coord " << j;
    }
  }
}

TEST(WireMessageTest, SubmitCountMustMatchPayloadExactly) {
  SubmitMessage msg;
  msg.dim = 3;
  Vector record(3);
  msg.records.push_back(record);
  std::string payload = EncodeSubmit(msg);

  // Truncating record bytes breaks the count/payload agreement.
  EXPECT_FALSE(DecodeSubmit(payload.substr(0, payload.size() - 1)).ok());
  // So does appending.
  EXPECT_FALSE(DecodeSubmit(payload + "x").ok());
}

TEST(WireMessageTest, SubmitRejectsInsaneCounts) {
  // A forged header claiming 2^20+1 records with no bytes behind it must
  // fail before any allocation proportional to the claim.
  WireWriter writer;
  writer.PutU64(0);                 // base_sequence
  writer.PutU64(3);                 // dim
  writer.PutU64((1ull << 20) + 1);  // count over the cap
  EXPECT_FALSE(DecodeSubmit(writer.buffer()).ok());
}

TEST(WireMessageTest, AcksAndHeartbeatsRoundTrip) {
  HelloAckMessage hello_ack;
  hello_ack.worker_id = "w3";
  hello_ack.durable_total = 777;
  StatusOr<HelloAckMessage> ha = DecodeHelloAck(EncodeHelloAck(hello_ack));
  ASSERT_TRUE(ha.ok());
  EXPECT_EQ(ha->worker_id, "w3");
  EXPECT_EQ(ha->durable_total, 777u);

  SubmitAckMessage submit_ack;
  submit_ack.durable_total = 4242;
  StatusOr<SubmitAckMessage> sa =
      DecodeSubmitAck(EncodeSubmitAck(submit_ack));
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(sa->durable_total, 4242u);

  HeartbeatMessage beat;
  beat.nonce = 0xABCDull;
  StatusOr<HeartbeatMessage> hb = DecodeHeartbeat(EncodeHeartbeat(beat));
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(hb->nonce, 0xABCDull);

  HeartbeatAckMessage beat_ack;
  beat_ack.nonce = 0xABCDull;
  beat_ack.durable_total = 5;
  StatusOr<HeartbeatAckMessage> hba =
      DecodeHeartbeatAck(EncodeHeartbeatAck(beat_ack));
  ASSERT_TRUE(hba.ok());
  EXPECT_EQ(hba->nonce, 0xABCDull);
  EXPECT_EQ(hba->durable_total, 5u);
}

TEST(WireMessageTest, FinishResultRoundTripsTheLedger) {
  FinishResultMessage msg;
  msg.stats.submitted = 100;
  msg.stats.accepted = 99;
  msg.stats.applied = 90;
  msg.stats.quarantined_failure = 4;
  msg.stats.spool_remaining = 5;
  msg.stats.retries = 17;
  msg.stats.breaker_trips = 2;
  msg.groups_text = "condensa-groups v1\nnot actually parsed here";
  StatusOr<std::string> payload = EncodeFinishResult(msg);
  ASSERT_TRUE(payload.ok()) << payload.status();
  StatusOr<FinishResultMessage> decoded = DecodeFinishResult(*payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats.submitted, 100u);
  EXPECT_EQ(decoded->stats.accepted, 99u);
  EXPECT_EQ(decoded->stats.applied, 90u);
  EXPECT_EQ(decoded->stats.quarantined_failure, 4u);
  EXPECT_EQ(decoded->stats.spool_remaining, 5u);
  EXPECT_EQ(decoded->stats.retries, 17u);
  EXPECT_EQ(decoded->stats.breaker_trips, 2u);
  EXPECT_EQ(decoded->groups_text, msg.groups_text);
}

TEST(WireMessageTest, FinishResultPastTheFrameCapIsResourceExhausted) {
  // A shard set too large for one frame must come back as a Status the
  // worker can report, not reach EncodeFrame's CHECK. The set is built
  // directly: at d = 34 one group serializes to about 11.5 KB, so a few
  // thousand copies pass the 64 MiB cap without any condensation.
  constexpr std::size_t kDim = 34;
  FinishResultMessage msg;
  {
    Rng rng(41);
    Vector record(kDim);
    for (std::size_t j = 0; j < kDim; ++j) {
      record[j] = rng.Gaussian(0.0, 1e3);
    }
    core::GroupStatistics group(kDim);
    group.Add(record);
    core::CondensedGroupSet set(kDim, 10);
    set.AddGroup(group);
    const std::size_t one = core::SerializeGroupSet(set).size();
    set.AddGroup(group);
    const std::size_t per_group = core::SerializeGroupSet(set).size() - one;
    while (set.num_groups() <= kMaxFramePayload / per_group) {
      set.AddGroup(group);
    }
    msg.groups_text = core::SerializeGroupSet(set);
  }
  ASSERT_GT(msg.groups_text.size(), kMaxFramePayload);
  StatusOr<std::string> oversized = EncodeFinishResult(msg);
  EXPECT_EQ(oversized.status().code(), StatusCode::kResourceExhausted);

  // The boundary: a payload of exactly kMaxFramePayload bytes still fits.
  // The ledger and the text's length prefix take the first 184 bytes.
  msg.groups_text.assign(kMaxFramePayload - 184, 'x');
  {
    StatusOr<std::string> at_cap = EncodeFinishResult(msg);
    ASSERT_TRUE(at_cap.ok()) << at_cap.status();
    EXPECT_EQ(at_cap->size(), kMaxFramePayload);
  }
  msg.groups_text.push_back('x');
  EXPECT_EQ(EncodeFinishResult(msg).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(WireMessageTest, ErrorRoundTripsEveryStatusCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    Status original(code, "something broke");
    StatusOr<ErrorMessage> decoded =
        DecodeError(EncodeError(StatusToError(original)));
    ASSERT_TRUE(decoded.ok());
    Status round = ErrorToStatus(*decoded);
    EXPECT_EQ(round.code(), code);
    EXPECT_EQ(round.message(), "something broke");
  }
}

TEST(WireMessageTest, ErrorClaimingOkIsDataLoss) {
  // A worker must never send an Error frame carrying kOk; treat it as a
  // protocol violation rather than inventing a success.
  ErrorMessage msg;
  msg.code = 0;
  msg.message = "liar";
  StatusOr<ErrorMessage> decoded = DecodeError(EncodeError(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ErrorToStatus(*decoded).code(), StatusCode::kDataLoss);
}

TEST(WireMessageTest, MangledPayloadsFailCleanly) {
  Rng rng(23);
  SubmitMessage submit;
  submit.dim = 4;
  for (int i = 0; i < 3; ++i) {
    Vector record(4);
    for (std::size_t j = 0; j < 4; ++j) record[j] = rng.Gaussian();
    submit.records.push_back(record);
  }
  const std::string payloads[] = {
      EncodeHello(HelloMessage{.dim = 4, .group_size = 10}),
      EncodeHelloAck(HelloAckMessage{.worker_id = "w0"}),
      EncodeSubmit(submit),
      *EncodeFinishResult(
          FinishResultMessage{.stats = {}, .groups_text = "body"}),
  };
  for (const std::string& payload : payloads) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      // Truncations: never crash; non-OK or benign.
      (void)DecodeHello(payload.substr(0, cut));
      (void)DecodeHelloAck(payload.substr(0, cut));
      (void)DecodeSubmit(payload.substr(0, cut));
      (void)DecodeFinishResult(payload.substr(0, cut));
    }
    for (int trial = 0; trial < 300; ++trial) {
      std::string mangled = payload;
      mangled[rng.UniformIndex(mangled.size())] =
          static_cast<char>(rng.UniformIndex(256));
      (void)DecodeHello(mangled);
      (void)DecodeSubmit(mangled);
    }
  }
}

// Randomized round trips over the bit patterns the codecs must carry
// untouched: NaN payloads of both signs, ±0, subnormals, infinities and
// raw random bits in records; full-width u64 fields; strings of
// arbitrary bytes, NUL included.
std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformIndex(8)) {
    case 0: return FromBits(0x7ff0000000000000ull | (rng.NextUint64() >> 12) |
                            1);  // NaN with a random payload
    case 1: return FromBits(0xfff8000000000000ull | (rng.NextUint64() >> 13));
    case 2: return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    case 3: return FromBits(rng.NextUint64() & 0x800fffffffffffffull);  // subnormal
    case 4: return rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                      : -std::numeric_limits<double>::infinity();
    default: return FromBits(rng.NextUint64());
  }
}

std::string RandomBytes(Rng& rng, std::size_t max_size) {
  std::string bytes(rng.UniformIndex(max_size + 1), '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformIndex(256));
  return bytes;
}

runtime::StreamPipelineStats RandomStats(Rng& rng) {
  runtime::StreamPipelineStats stats;
  for (std::size_t* field :
       {&stats.submitted, &stats.accepted, &stats.rejected, &stats.dropped,
        &stats.applied, &stats.quarantined, &stats.quarantined_dimension,
        &stats.quarantined_non_finite, &stats.quarantined_failure,
        &stats.spooled, &stats.spool_replayed, &stats.spool_remaining,
        &stats.spool_recovered, &stats.retries, &stats.breaker_trips,
        &stats.watchdog_stalls, &stats.condenser_reopens,
        &stats.queue_high_water, &stats.quarantine_write_failures,
        &stats.spool_write_failures}) {
    *field = rng.NextUint64();
  }
  return stats;
}

void ExpectSameStats(const runtime::StreamPipelineStats& got,
                     const runtime::StreamPipelineStats& want) {
  EXPECT_EQ(got.submitted, want.submitted);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.applied, want.applied);
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.quarantined_dimension, want.quarantined_dimension);
  EXPECT_EQ(got.quarantined_non_finite, want.quarantined_non_finite);
  EXPECT_EQ(got.quarantined_failure, want.quarantined_failure);
  EXPECT_EQ(got.spooled, want.spooled);
  EXPECT_EQ(got.spool_replayed, want.spool_replayed);
  EXPECT_EQ(got.spool_remaining, want.spool_remaining);
  EXPECT_EQ(got.spool_recovered, want.spool_recovered);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.breaker_trips, want.breaker_trips);
  EXPECT_EQ(got.watchdog_stalls, want.watchdog_stalls);
  EXPECT_EQ(got.condenser_reopens, want.condenser_reopens);
  EXPECT_EQ(got.queue_high_water, want.queue_high_water);
  EXPECT_EQ(got.quarantine_write_failures, want.quarantine_write_failures);
  EXPECT_EQ(got.spool_write_failures, want.spool_write_failures);
}

TEST(NetWireRandomTest, HelloRoundTripsEveryField) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    HelloMessage msg;
    msg.shard_id = rng.NextUint64();
    msg.dim = 1 + rng.UniformIndex(kMaxWireDim);
    msg.group_size = rng.NextUint64();
    msg.split_rule = static_cast<std::uint16_t>(rng.NextUint64());
    msg.snapshot_interval = rng.NextUint64();
    msg.sync_every_append = static_cast<std::uint8_t>(rng.NextUint64());
    msg.queue_capacity = rng.NextUint64();
    msg.batch_size = rng.NextUint64();
    msg.seed = rng.NextUint64();
    msg.backend = RandomBytes(rng, 24);
    // An empty id is refused (HelloRejectsEmptyBackend); a lone NUL is not.
    if (msg.backend.empty()) msg.backend.assign(1, '\0');
    auto decoded = DecodeHello(EncodeHello(msg));
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->shard_id, msg.shard_id);
    EXPECT_EQ(decoded->dim, msg.dim);
    EXPECT_EQ(decoded->group_size, msg.group_size);
    EXPECT_EQ(decoded->split_rule, msg.split_rule);
    EXPECT_EQ(decoded->snapshot_interval, msg.snapshot_interval);
    EXPECT_EQ(decoded->sync_every_append, msg.sync_every_append);
    EXPECT_EQ(decoded->queue_capacity, msg.queue_capacity);
    EXPECT_EQ(decoded->batch_size, msg.batch_size);
    EXPECT_EQ(decoded->seed, msg.seed);
    EXPECT_EQ(decoded->backend, msg.backend);
  }
}

TEST(NetWireRandomTest, SubmitRoundTripsRecordsBitExactly) {
  Rng rng(32);
  for (int trial = 0; trial < 300; ++trial) {
    SubmitMessage msg;
    msg.base_sequence = rng.NextUint64();
    msg.dim = 1 + rng.UniformIndex(6);
    for (std::size_t r = rng.UniformIndex(8); r > 0; --r) {
      Vector record(msg.dim);
      for (std::size_t d = 0; d < msg.dim; ++d) record[d] = RandomDouble(rng);
      msg.records.push_back(std::move(record));
    }
    auto decoded = DecodeSubmit(EncodeSubmit(msg));
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->base_sequence, msg.base_sequence);
    EXPECT_EQ(decoded->dim, msg.dim);
    ASSERT_EQ(decoded->records.size(), msg.records.size());
    for (std::size_t r = 0; r < msg.records.size(); ++r) {
      ASSERT_EQ(decoded->records[r].dim(), msg.dim);
      for (std::size_t d = 0; d < msg.dim; ++d) {
        EXPECT_EQ(Bits(decoded->records[r][d]), Bits(msg.records[r][d]))
            << "trial " << trial << " record " << r << " coordinate " << d;
      }
    }
  }
}

TEST(NetWireRandomTest, AcksHeartbeatsAndErrorsRoundTrip) {
  Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    HelloAckMessage hello_ack;
    hello_ack.worker_id = RandomBytes(rng, 24);
    hello_ack.durable_total = rng.NextUint64();
    auto ha = DecodeHelloAck(EncodeHelloAck(hello_ack));
    ASSERT_TRUE(ha.ok()) << ha.status().ToString();
    EXPECT_EQ(ha->worker_id, hello_ack.worker_id);
    EXPECT_EQ(ha->durable_total, hello_ack.durable_total);

    const SubmitAckMessage submit_ack{rng.NextUint64()};
    auto sa = DecodeSubmitAck(EncodeSubmitAck(submit_ack));
    ASSERT_TRUE(sa.ok()) << sa.status().ToString();
    EXPECT_EQ(sa->durable_total, submit_ack.durable_total);

    const HeartbeatMessage beat{rng.NextUint64()};
    auto hb = DecodeHeartbeat(EncodeHeartbeat(beat));
    ASSERT_TRUE(hb.ok()) << hb.status().ToString();
    EXPECT_EQ(hb->nonce, beat.nonce);

    const HeartbeatAckMessage beat_ack{rng.NextUint64(), rng.NextUint64()};
    auto hba = DecodeHeartbeatAck(EncodeHeartbeatAck(beat_ack));
    ASSERT_TRUE(hba.ok()) << hba.status().ToString();
    EXPECT_EQ(hba->nonce, beat_ack.nonce);
    EXPECT_EQ(hba->durable_total, beat_ack.durable_total);

    ErrorMessage error;
    error.code = static_cast<std::uint32_t>(rng.NextUint64());
    error.message = RandomBytes(rng, 64);
    auto e = DecodeError(EncodeError(error));
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(e->code, error.code);
    EXPECT_EQ(e->message, error.message);
  }
}

TEST(NetWireRandomTest, FinishResultRoundTripsEveryLedgerCounter) {
  Rng rng(34);
  for (int trial = 0; trial < 300; ++trial) {
    FinishResultMessage msg;
    msg.stats = RandomStats(rng);
    msg.groups_text = RandomBytes(rng, 256);
    auto payload = EncodeFinishResult(msg);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto decoded = DecodeFinishResult(*payload);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    ExpectSameStats(decoded->stats, msg.stats);
    EXPECT_EQ(decoded->groups_text, msg.groups_text);
  }
}

// Each cap round-trips at its value and is refused one above it (and
// each floor one below it).
TEST(NetWireCapTest, HelloDimensionCap) {
  HelloMessage msg;
  msg.group_size = 10;
  msg.dim = kMaxWireDim;
  auto at_cap = DecodeHello(EncodeHello(msg));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->dim, kMaxWireDim);
  msg.dim = 1;
  EXPECT_TRUE(DecodeHello(EncodeHello(msg)).ok());

  msg.dim = kMaxWireDim + 1;
  EXPECT_EQ(DecodeHello(EncodeHello(msg)).status().code(),
            StatusCode::kDataLoss);
  msg.dim = 0;
  EXPECT_EQ(DecodeHello(EncodeHello(msg)).status().code(),
            StatusCode::kDataLoss);
}

TEST(NetWireCapTest, SubmitDimensionCap) {
  SubmitMessage msg;
  msg.dim = kMaxWireDim;
  msg.records.push_back(Vector(kMaxWireDim));
  auto at_cap = DecodeSubmit(EncodeSubmit(msg));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  ASSERT_EQ(at_cap->records.size(), 1u);
  EXPECT_EQ(at_cap->records[0].dim(), kMaxWireDim);

  msg.dim = kMaxWireDim + 1;
  msg.records[0] = Vector(kMaxWireDim + 1);
  EXPECT_EQ(DecodeSubmit(EncodeSubmit(msg)).status().code(),
            StatusCode::kDataLoss);
  msg.dim = 0;
  msg.records.clear();
  EXPECT_EQ(DecodeSubmit(EncodeSubmit(msg)).status().code(),
            StatusCode::kDataLoss);
}

TEST(NetWireCapTest, SubmitRecordCountCap) {
  // One-dimensional records keep a cap-sized payload at 8 MiB.
  SubmitMessage msg;
  msg.dim = 1;
  msg.records.assign(kMaxRecordsPerSubmit, Vector(1));
  auto at_cap = DecodeSubmit(EncodeSubmit(msg));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->records.size(), kMaxRecordsPerSubmit);

  msg.records.emplace_back(1);
  const Status over = DecodeSubmit(EncodeSubmit(msg)).status();
  EXPECT_EQ(over.code(), StatusCode::kDataLoss);
  EXPECT_NE(over.message().find("exceeds the per-batch cap"),
            std::string::npos)
      << over.ToString();
}

}  // namespace
}  // namespace condensa::net
