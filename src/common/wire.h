// The one binary codec: little-endian fixed-width scalars and a CRC32.
//
// The shard fabric and query wire payloads (net/wire.h, query/wire.h),
// the v2 checkpoint files (core/checkpointing.h) and the v2 pools and
// group-set files (core/serialization.h) are all written with WireWriter
// and read with WireReader. The reader is bounds-checked:
// every read validates the remaining byte count before touching memory,
// and every length prefix is validated against the bytes actually present
// before any allocation. Decoding failures are kDataLoss.
//
// Doubles travel as their IEEE-754 bit patterns (a u64), so a value
// round-trips bit-exactly. On little-endian hosts each scalar is one
// memcpy; elsewhere it is assembled byte by byte. The bytes are the same.

#ifndef CONDENSA_COMMON_WIRE_H_
#define CONDENSA_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace condensa {

// CRC32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
std::uint32_t Crc32(std::string_view data);

// Appends fixed-width little-endian scalars and length-prefixed blobs to
// a growing buffer.
class WireWriter {
 public:
  void PutU8(std::uint8_t value);
  void PutU16(std::uint16_t value);
  void PutU32(std::uint32_t value);
  void PutU64(std::uint64_t value);
  // The double's IEEE-754 bit pattern as a u64 (bit-exact round-trip).
  void PutDouble(double value);
  // An element count or length as the u32 the decoders read. A count
  // past 2^32 - 1 would need gigabytes of elements no frame can carry, so
  // it CHECK-fails instead of wrapping.
  void PutCount(std::size_t count);
  // PutCount length prefix + raw bytes.
  void PutString(std::string_view value);
  // Raw bytes with no length prefix (magics and fixed-size fields).
  void PutBytes(std::string_view value);

  void Reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  std::size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Consumes the same encoding with bounds checks on every read. All
// methods return kDataLoss once the payload is exhausted or a length
// prefix exceeds the remaining bytes; the reader stays at its position
// after a failed read.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status ReadU8(std::uint8_t* value);
  Status ReadU16(std::uint16_t* value);
  Status ReadU32(std::uint32_t* value);
  Status ReadU64(std::uint64_t* value);
  Status ReadDouble(double* value);
  // Validates the length prefix against remaining() BEFORE allocating.
  Status ReadString(std::string* value);

  std::size_t remaining() const { return data_.size() - pos_; }
  // Decoders call this last: trailing garbage means a framing bug or
  // corruption, not a shorter message from an older peer.
  Status ExpectDone() const;

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace condensa

#endif  // CONDENSA_COMMON_WIRE_H_
