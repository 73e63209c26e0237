#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace condensa {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* value) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) return false;
  std::string buffer(stripped);
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buffer.c_str(), &end);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) {
    return false;
  }
  *value = parsed;
  return true;
}

bool ParseInt(std::string_view text, int* value) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) return false;
  std::string buffer(stripped);
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(buffer.c_str(), &end, 10);
  if (errno != 0 || end != buffer.c_str() + buffer.size()) {
    return false;
  }
  if (parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

bool ParseSize(std::string_view text, std::size_t* value) {
  std::string_view stripped = StripWhitespace(text);
  const char* end = stripped.data() + stripped.size();
  std::size_t parsed = 0;
  auto [stop, error] = std::from_chars(stripped.data(), end, parsed);
  if (error != std::errc() || stop != end) return false;
  *value = parsed;
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace condensa
