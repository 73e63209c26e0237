// Small string helpers shared by the CSV reader and bench table printers.

#ifndef CONDENSA_COMMON_STRING_UTIL_H_
#define CONDENSA_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace condensa {

// Splits `text` on `delimiter`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> Split(std::string_view text, char delimiter);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Parses a double; returns false on malformed or trailing garbage.
bool ParseDouble(std::string_view text, double* value);

// Parses a decimal int; returns false on malformed or out-of-range input.
bool ParseInt(std::string_view text, int* value);

// Parses a non-negative decimal integer across the full size_t range (the
// counters the persisted formats write with std::to_string(size_t));
// returns false on a sign, malformed input or overflow.
bool ParseSize(std::string_view text, std::size_t* value);

// Joins `parts` with `separator`: {"a","b"} + ", " -> "a, b".
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

// Returns true if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

}  // namespace condensa

#endif  // CONDENSA_COMMON_STRING_UTIL_H_
