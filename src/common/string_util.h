// Small string helpers shared by the text codecs (CSV, group sets, pools,
// snapshots, journal, spool, quarantine) and bench table printers.
//
// AppendDouble and ParseDouble are the one number codec of every text
// format: AppendDouble writes the shortest form that parses back to the
// same bits, and ParseDouble reads it (and the older %.17g form) back
// without a temporary string.

#ifndef CONDENSA_COMMON_STRING_UTIL_H_
#define CONDENSA_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace condensa {

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Returns the next whitespace-separated token of `*text` and advances
// `*text` past it; returns an empty view when only whitespace is left.
std::string_view NextToken(std::string_view* text);

// Returns the text of `*text` before the first `separator` (all of
// `*text` when it has none) and advances `*text` past the separator.
std::string_view NextField(std::string_view* text, char separator);

// Returns the first line of `*text` without its '\n' (all of `*text`
// when it has none) and advances `*text` past the newline.
inline std::string_view NextLine(std::string_view* text) {
  return NextField(text, '\n');
}

// Appends the shortest decimal form of `value` that parses back to the
// same bits (std::to_chars): 0.1 -> "0.1", 1e22 -> "1e+22", -0 -> "-0",
// and nan/inf for the non-finite values.
void AppendDouble(std::string& out, double value);

// Parses a decimal double (std::from_chars) after stripping surrounding
// whitespace and at most one leading '+'; subnormals parse exactly.
// Returns false on empty, malformed or trailing input, on hex, and on a
// value that overflows or underflows to zero (1e400, 1e-400). Accepts
// nan and inf; callers that need finite values check.
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
