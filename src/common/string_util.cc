#include "common/string_util.h"

#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace condensa {

namespace {

// std::isspace in the "C" locale: space, \t, \n, \v, \f, \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && IsSpace(text[begin])) ++begin;
  std::size_t end = text.size();
  while (end > begin && IsSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::string_view NextToken(std::string_view* text) {
  std::size_t begin = 0;
  while (begin < text->size() && IsSpace((*text)[begin])) ++begin;
  std::size_t end = begin;
  while (end < text->size() && !IsSpace((*text)[end])) ++end;
  const std::string_view token = text->substr(begin, end - begin);
  text->remove_prefix(end);
  return token;
}

std::string_view NextField(std::string_view* text, char separator) {
  const std::size_t end = text->find(separator);
  const std::string_view field = text->substr(0, end);
  text->remove_prefix(end == std::string_view::npos ? text->size()
                                                    : end + 1);
  return field;
}

void AppendDouble(std::string& out, double value) {
  // The longest shortest form is 24 chars: -2.2250738585072014e-308.
  char buffer[32];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, written.ptr);
}

bool ParseDouble(std::string_view text, double* value) {
  std::string_view number = StripWhitespace(text);
  // from_chars refuses the leading '+' strtod took; drop one, but "+-1"
  // stays malformed.
  if (!number.empty() && number.front() == '+') {
    number.remove_prefix(1);
    if (!number.empty() && number.front() == '-') return false;
  }
  const char* end = number.data() + number.size();
  double parsed = 0.0;
  const std::from_chars_result result =
      std::from_chars(number.data(), end, parsed);
  if (result.ec != std::errc() || result.ptr != end) return false;
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
