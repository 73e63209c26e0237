#include "common/wire.h"

#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace condensa {
namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

template <typename T>
void PutLittleEndian(std::string& out, T value) {
  char bytes[sizeof(T)];
  if constexpr (kLittleEndianHost) {
    std::memcpy(bytes, &value, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  }
  out.append(bytes, sizeof(T));
}

template <typename T>
T GetLittleEndian(const char* data) {
  T value = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&value, data, sizeof(T));
  } else {
    for (std::size_t i = sizeof(T); i-- > 0;) {
      value = static_cast<T>((value << 8) |
                             static_cast<unsigned char>(data[i]));
    }
  }
  return value;
}

// Slicing-by-8 tables: tables[0] is the byte-at-a-time CRC table, and
// tables[k][b] is the CRC of byte b followed by k zero bytes, so one step
// folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const CrcTables tables = BuildCrcTables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t size = data.size();
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = GetLittleEndian<std::uint32_t>(p) ^ crc;
    const std::uint32_t hi = GetLittleEndian<std::uint32_t>(p + 4);
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^
          tables[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

void WireWriter::PutU8(std::uint8_t value) {
  buffer_.push_back(static_cast<char>(value));
}

void WireWriter::PutU16(std::uint16_t value) {
  PutLittleEndian(buffer_, value);
}

void WireWriter::PutU32(std::uint32_t value) {
  PutLittleEndian(buffer_, value);
}

void WireWriter::PutU64(std::uint64_t value) {
  PutLittleEndian(buffer_, value);
}

void WireWriter::PutDouble(double value) {
  PutU64(std::bit_cast<std::uint64_t>(value));
}

void WireWriter::PutCount(std::size_t count) {
  CONDENSA_CHECK_LE(count, std::numeric_limits<std::uint32_t>::max());
  PutU32(static_cast<std::uint32_t>(count));
}

void WireWriter::PutString(std::string_view value) {
  PutCount(value.size());
  PutBytes(value);
}

void WireWriter::PutBytes(std::string_view value) {
  buffer_.append(value.data(), value.size());
}

Status WireReader::ReadU8(std::uint8_t* value) {
  if (remaining() < 1) {
    return DataLossError("wire payload exhausted reading u8");
  }
  *value = static_cast<std::uint8_t>(data_[pos_]);
  pos_ += 1;
  return OkStatus();
}

Status WireReader::ReadU16(std::uint16_t* value) {
  if (remaining() < 2) {
    return DataLossError("wire payload exhausted reading u16");
  }
  *value = GetLittleEndian<std::uint16_t>(data_.data() + pos_);
  pos_ += 2;
  return OkStatus();
}

Status WireReader::ReadU32(std::uint32_t* value) {
  if (remaining() < 4) {
    return DataLossError("wire payload exhausted reading u32");
  }
  *value = GetLittleEndian<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return OkStatus();
}

Status WireReader::ReadU64(std::uint64_t* value) {
  if (remaining() < 8) {
    return DataLossError("wire payload exhausted reading u64");
  }
  *value = GetLittleEndian<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return OkStatus();
}

Status WireReader::ReadDouble(double* value) {
  std::uint64_t bits = 0;
  CONDENSA_RETURN_IF_ERROR(ReadU64(&bits));
  *value = std::bit_cast<double>(bits);
  return OkStatus();
}

Status WireReader::ReadString(std::string* value) {
  std::uint32_t length = 0;
  const std::size_t saved = pos_;
  CONDENSA_RETURN_IF_ERROR(ReadU32(&length));
  if (length > remaining()) {
    pos_ = saved;
    return DataLossError("wire string length " + std::to_string(length) +
                         " exceeds remaining payload (" +
                         std::to_string(remaining()) + " bytes)");
  }
  value->assign(data_.data() + pos_, length);
  pos_ += length;
  return OkStatus();
}

Status WireReader::ExpectDone() const {
  if (pos_ != data_.size()) {
    return DataLossError("wire payload has " +
                         std::to_string(data_.size() - pos_) +
                         " trailing bytes");
  }
  return OkStatus();
}

}  // namespace condensa
