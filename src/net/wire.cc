#include "net/wire.h"

#include "net/frame.h"

namespace condensa::net {
namespace {

// StreamPipelineStats crosses the wire as a counted list of u64 fields in
// this fixed order; the count pins the schema so a field added on one
// side cannot be silently dropped by the other.
constexpr std::uint32_t kStatsFieldCount = 22;

void EncodeStats(WireWriter& writer,
                 const runtime::StreamPipelineStats& stats) {
  writer.PutU32(kStatsFieldCount);
  writer.PutU64(stats.submitted);
  writer.PutU64(stats.accepted);
  writer.PutU64(stats.rejected);
  writer.PutU64(stats.dropped);
  writer.PutU64(stats.applied);
  writer.PutU64(stats.quarantined);
  writer.PutU64(stats.quarantined_dimension);
  writer.PutU64(stats.quarantined_non_finite);
  writer.PutU64(stats.quarantined_failure);
  writer.PutU64(stats.spooled);
  writer.PutU64(stats.spool_replayed);
  writer.PutU64(stats.spool_remaining);
  writer.PutU64(stats.spool_recovered);
  writer.PutU64(stats.retries);
  writer.PutU64(stats.breaker_trips);
  writer.PutU64(stats.watchdog_stalls);
  writer.PutU64(stats.condenser_reopens);
  writer.PutU64(stats.queue_high_water);
  writer.PutU64(stats.quarantine_write_failures);
  writer.PutU64(stats.spool_write_failures);
  writer.PutU64(0);  // reserved
  writer.PutU64(0);  // reserved
}

Status DecodeStats(WireReader& reader,
                   runtime::StreamPipelineStats* stats) {
  std::uint32_t count = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (count != kStatsFieldCount) {
    return DataLossError("stats field count mismatch: wire has " +
                         std::to_string(count) + ", this build expects " +
                         std::to_string(kStatsFieldCount));
  }
  std::uint64_t fields[kStatsFieldCount];
  for (std::uint32_t i = 0; i < count; ++i) {
    CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&fields[i]));
  }
  stats->submitted = fields[0];
  stats->accepted = fields[1];
  stats->rejected = fields[2];
  stats->dropped = fields[3];
  stats->applied = fields[4];
  stats->quarantined = fields[5];
  stats->quarantined_dimension = fields[6];
  stats->quarantined_non_finite = fields[7];
  stats->quarantined_failure = fields[8];
  stats->spooled = fields[9];
  stats->spool_replayed = fields[10];
  stats->spool_remaining = fields[11];
  stats->spool_recovered = fields[12];
  stats->retries = fields[13];
  stats->breaker_trips = fields[14];
  stats->watchdog_stalls = fields[15];
  stats->condenser_reopens = fields[16];
  stats->queue_high_water = fields[17];
  stats->quarantine_write_failures = fields[18];
  stats->spool_write_failures = fields[19];
  return OkStatus();
}

}  // namespace

std::string EncodeHello(const HelloMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.shard_id);
  writer.PutU64(msg.dim);
  writer.PutU64(msg.group_size);
  writer.PutU16(msg.split_rule);
  writer.PutU64(msg.snapshot_interval);
  writer.PutU8(msg.sync_every_append);
  writer.PutU64(msg.queue_capacity);
  writer.PutU64(msg.batch_size);
  writer.PutU64(msg.seed);
  writer.PutString(msg.backend);
  return writer.Take();
}

StatusOr<HelloMessage> DecodeHello(std::string_view payload) {
  WireReader reader(payload);
  HelloMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.shard_id));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.dim));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.group_size));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU16(&msg.split_rule));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.snapshot_interval));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU8(&msg.sync_every_append));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.queue_capacity));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.batch_size));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.seed));
  CONDENSA_RETURN_IF_ERROR(reader.ReadString(&msg.backend));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  if (msg.dim == 0 || msg.dim > kMaxWireDim) {
    return DataLossError("Hello carries implausible dim " +
                         std::to_string(msg.dim));
  }
  if (msg.backend.empty()) {
    return DataLossError("Hello carries an empty backend id");
  }
  return msg;
}

std::string EncodeHelloAck(const HelloAckMessage& msg) {
  WireWriter writer;
  writer.PutString(msg.worker_id);
  writer.PutU64(msg.durable_total);
  return writer.Take();
}

StatusOr<HelloAckMessage> DecodeHelloAck(std::string_view payload) {
  WireReader reader(payload);
  HelloAckMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadString(&msg.worker_id));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.durable_total));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string EncodeSubmit(const SubmitMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.base_sequence);
  writer.PutU64(msg.dim);
  writer.PutCount(msg.records.size());
  for (const linalg::Vector& record : msg.records) {
    for (std::size_t i = 0; i < record.dim(); ++i) {
      writer.PutDouble(record[i]);
    }
  }
  return writer.Take();
}

StatusOr<SubmitMessage> DecodeSubmit(std::string_view payload) {
  WireReader reader(payload);
  SubmitMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.base_sequence));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.dim));
  std::uint32_t count = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (msg.dim == 0 || msg.dim > kMaxWireDim) {
    return DataLossError("Submit carries implausible dim " +
                         std::to_string(msg.dim));
  }
  if (count > kMaxRecordsPerSubmit) {
    return DataLossError("Submit record count " + std::to_string(count) +
                         " exceeds the per-batch cap");
  }
  // The exact byte requirement is known up front: reject a short payload
  // before allocating any record storage.
  const std::uint64_t need =
      static_cast<std::uint64_t>(count) * msg.dim * sizeof(double);
  if (need != reader.remaining()) {
    return DataLossError("Submit payload holds " +
                         std::to_string(reader.remaining()) +
                         " record bytes, header implies " +
                         std::to_string(need));
  }
  msg.records.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    std::vector<double> values(msg.dim);
    for (std::uint64_t i = 0; i < msg.dim; ++i) {
      CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&values[i]));
    }
    msg.records.emplace_back(std::move(values));
  }
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string EncodeSubmitAck(const SubmitAckMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.durable_total);
  return writer.Take();
}

StatusOr<SubmitAckMessage> DecodeSubmitAck(std::string_view payload) {
  WireReader reader(payload);
  SubmitAckMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.durable_total));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string EncodeHeartbeat(const HeartbeatMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.nonce);
  return writer.Take();
}

StatusOr<HeartbeatMessage> DecodeHeartbeat(std::string_view payload) {
  WireReader reader(payload);
  HeartbeatMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.nonce));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string EncodeHeartbeatAck(const HeartbeatAckMessage& msg) {
  WireWriter writer;
  writer.PutU64(msg.nonce);
  writer.PutU64(msg.durable_total);
  return writer.Take();
}

StatusOr<HeartbeatAckMessage> DecodeHeartbeatAck(std::string_view payload) {
  WireReader reader(payload);
  HeartbeatAckMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.nonce));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&msg.durable_total));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

StatusOr<std::string> EncodeFinishResult(const FinishResultMessage& msg) {
  WireWriter writer;
  EncodeStats(writer, msg.stats);
  writer.PutString(msg.groups_text);
  if (writer.buffer().size() > kMaxFramePayload) {
    return ResourceExhaustedError(
        "FinishResult payload of " + std::to_string(writer.buffer().size()) +
        " bytes exceeds the frame cap of " +
        std::to_string(kMaxFramePayload) + " bytes");
  }
  return writer.Take();
}

StatusOr<FinishResultMessage> DecodeFinishResult(std::string_view payload) {
  WireReader reader(payload);
  FinishResultMessage msg;
  CONDENSA_RETURN_IF_ERROR(DecodeStats(reader, &msg.stats));
  CONDENSA_RETURN_IF_ERROR(reader.ReadString(&msg.groups_text));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string EncodeError(const ErrorMessage& msg) {
  WireWriter writer;
  writer.PutU32(msg.code);
  writer.PutString(msg.message);
  return writer.Take();
}

StatusOr<ErrorMessage> DecodeError(std::string_view payload) {
  WireReader reader(payload);
  ErrorMessage msg;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&msg.code));
  CONDENSA_RETURN_IF_ERROR(reader.ReadString(&msg.message));
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

Status ErrorToStatus(const ErrorMessage& msg) {
  const auto code = static_cast<StatusCode>(msg.code);
  switch (code) {
    case StatusCode::kOk:
      return DataLossError("peer sent Error frame with OK code: " +
                           msg.message);
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
    case StatusCode::kUnimplemented:
    case StatusCode::kDataLoss:
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return Status(code, msg.message);
  }
  return InternalError("peer sent unknown status code " +
                       std::to_string(msg.code) + ": " + msg.message);
}

ErrorMessage StatusToError(const Status& status) {
  ErrorMessage msg;
  msg.code = static_cast<std::uint32_t>(status.code());
  msg.message = status.message();
  return msg;
}

}  // namespace condensa::net
