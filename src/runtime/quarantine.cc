#include "runtime/quarantine.h"

#include <string_view>
#include <utility>

#include "common/string_util.h"

namespace condensa::runtime {
namespace {

constexpr char kMagic[] = "# condensa-quarantine v1";

std::string Sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return out;
}

bool ParseReason(std::string_view name, QuarantineReason* reason) {
  for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
    QuarantineReason candidate = static_cast<QuarantineReason>(i);
    if (name == QuarantineReasonName(candidate)) {
      *reason = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kDimensionMismatch:
      return "dimension-mismatch";
    case QuarantineReason::kNonFinite:
      return "non-finite";
    case QuarantineReason::kRepeatedFailure:
      return "repeated-failure";
  }
  return "unknown";
}

StatusOr<QuarantineWriter> QuarantineWriter::Open(const std::string& path,
                                                  std::size_t dim) {
  const bool fresh = !PathExists(path);
  CONDENSA_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(path));
  QuarantineWriter writer(std::move(file), path);
  if (fresh) {
    std::string header = kMagic;
    header += " dim ";
    header += std::to_string(dim);
    header += '\n';
    CONDENSA_RETURN_IF_ERROR(writer.file_.Append(header));
    CONDENSA_RETURN_IF_ERROR(writer.file_.Sync());
  }
  return writer;
}

Status QuarantineWriter::Write(const linalg::Vector& record,
                               QuarantineReason reason,
                               const std::string& detail) {
  std::string line = QuarantineReasonName(reason);
  line += '\t';
  line += Sanitize(detail);
  line += '\t';
  for (std::size_t j = 0; j < record.dim(); ++j) {
    if (j > 0) line += ',';
    AppendDouble(line, record[j]);
  }
  line += '\n';
  std::lock_guard<std::mutex> lock(*mu_);
  CONDENSA_RETURN_IF_ERROR(file_.Append(line));
  CONDENSA_RETURN_IF_ERROR(file_.Sync());
  ++counts_[static_cast<std::size_t>(reason)];
  return OkStatus();
}

std::size_t QuarantineWriter::count() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::size_t total = 0;
  for (std::size_t c : counts_) total += c;
  return total;
}

std::size_t QuarantineWriter::count(QuarantineReason reason) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return counts_[static_cast<std::size_t>(reason)];
}

StatusOr<std::vector<QuarantineWriter::Entry>> QuarantineWriter::ReadAll(
    const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  std::string_view rest = content;
  if (rest.empty() || !StartsWith(NextLine(&rest), kMagic)) {
    return DataLossError(path + " is not a condensa-quarantine v1 file");
  }
  std::vector<Entry> entries;
  std::size_t line_number = 1;
  while (!rest.empty()) {
    const std::string_view line = NextLine(&rest);
    ++line_number;
    if (line.empty()) continue;
    const std::size_t tab1 = line.find('\t');
    const std::size_t tab2 =
        tab1 == std::string_view::npos ? std::string_view::npos
                                       : line.find('\t', tab1 + 1);
    if (tab2 == std::string_view::npos) {
      return DataLossError(path + ": malformed entry at line " +
                           std::to_string(line_number));
    }
    Entry entry;
    if (!ParseReason(line.substr(0, tab1), &entry.reason)) {
      return DataLossError(path + ": unknown reason at line " +
                           std::to_string(line_number));
    }
    entry.detail = line.substr(tab1 + 1, tab2 - tab1 - 1);
    // Comma-separated values; a trailing comma ends the list.
    std::string_view values = line.substr(tab2 + 1);
    while (!values.empty()) {
      const std::size_t comma = values.find(',');
      double value = 0.0;
      if (!ParseDouble(values.substr(0, comma), &value)) {
        return DataLossError(path + ": bad value at line " +
                             std::to_string(line_number));
      }
      entry.values.push_back(value);
      values.remove_prefix(comma == std::string_view::npos ? values.size()
                                                           : comma + 1);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace condensa::runtime
