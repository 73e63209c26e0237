#include "data/csv.h"

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <set>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/string_util.h"

namespace condensa::data {
namespace {

// Resolves a possibly-negative column index against `width`.
StatusOr<std::size_t> ResolveColumn(int column, std::size_t width) {
  long resolved = column;
  if (resolved < 0) {
    resolved += static_cast<long>(width);
  }
  if (resolved < 0 || resolved >= static_cast<long>(width)) {
    return InvalidArgumentError("column index out of range");
  }
  return static_cast<std::size_t>(resolved);
}

// Walks the non-blank lines of a CSV document and splits each into field
// views. Fields point into the document, except a quoted field holding an
// escaped quote ("") or text after its closing quote: that one is
// unescaped into `scratch_`, whose capacity covers the whole line so the
// views into it stay valid until the next line. A copy resumes at the
// same line; fields() is meaningful only after Next() returned true.
class RowCursor {
 public:
  RowCursor(std::string_view content, const CsvReadOptions& options)
      : rest_(content),
        delimiter_(options.delimiter),
        allow_quoting_(options.allow_quoting) {}

  // Advances to the next non-blank line and splits it; false at the end.
  bool Next() {
    while (!rest_.empty()) {
      const std::string_view line = StripWhitespace(NextLine(&rest_));
      ++line_number_;
      if (line.empty()) continue;
      Split(line);
      return true;
    }
    return false;
  }

  const std::vector<std::string_view>& fields() const { return fields_; }
  // 1-based number of the current line in the document.
  std::size_t line_number() const { return line_number_; }

 private:
  // RFC-4180 quoting: a field that begins with '"' runs to the matching
  // quote, with "" as an escaped quote, and keeps any text after it up to
  // the next delimiter; delimiters inside quotes do not split.
  void Split(std::string_view line) {
    fields_.clear();
    scratch_.clear();
    scratch_.reserve(line.size());
    std::size_t pos = 0;
    while (true) {
      if (allow_quoting_ && pos < line.size() && line[pos] == '"') {
        pos = SplitQuoted(line, pos);
      } else {
        const std::size_t end = std::min(line.find(delimiter_, pos),
                                         line.size());
        fields_.push_back(line.substr(pos, end - pos));
        pos = end;
      }
      if (pos >= line.size()) return;
      ++pos;  // the delimiter
    }
  }

  // Splits the quoted field opening at `open`; returns the offset just
  // past it (a delimiter or the end of the line).
  std::size_t SplitQuoted(std::string_view line, std::size_t open) {
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string_view::npos) {  // unterminated: rest of line
      fields_.push_back(line.substr(open + 1));
      return line.size();
    }
    if (close + 1 == line.size() || line[close + 1] == delimiter_) {
      fields_.push_back(line.substr(open + 1, close - open - 1));
      return close + 1;
    }
    const std::size_t start = scratch_.size();
    bool in_quotes = true;
    std::size_t i = open + 1;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (in_quotes && c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          scratch_ += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (!in_quotes && c == delimiter_) {
        break;
      } else {
        scratch_ += c;
      }
    }
    fields_.push_back(std::string_view(scratch_).substr(start));
    return i;
  }

  std::string_view rest_;
  char delimiter_;
  bool allow_quoting_;
  std::size_t line_number_ = 0;
  std::vector<std::string_view> fields_;
  std::string scratch_;
};

enum class ColumnKind { kNumeric, kCategorical, kLabel };

}  // namespace

StatusOr<CsvReadResult> ReadCsvFromString(std::string_view content,
                                          const CsvReadOptions& options) {
  RowCursor cursor(content, options);
  std::vector<std::string> header;  // empty unless options.has_header
  if (options.has_header && cursor.Next()) {
    header.assign(cursor.fields().begin(), cursor.fields().end());
  }
  const RowCursor data_begin = cursor;
  if (!cursor.Next()) {
    return InvalidArgumentError("CSV contains no data rows");
  }
  const std::size_t width = cursor.fields().size();

  // Resolve special columns.
  bool has_label = options.task != TaskType::kUnlabeled;
  std::vector<ColumnKind> kinds(width, ColumnKind::kNumeric);
  std::size_t label_col = 0;
  if (has_label) {
    CONDENSA_ASSIGN_OR_RETURN(label_col,
                              ResolveColumn(options.label_column, width));
    kinds[label_col] = ColumnKind::kLabel;
  }
  std::set<std::size_t> categorical;
  for (int column : options.categorical_columns) {
    CONDENSA_ASSIGN_OR_RETURN(std::size_t resolved,
                              ResolveColumn(column, width));
    if (has_label && resolved == label_col) {
      return InvalidArgumentError(
          "label column cannot also be categorical");
    }
    if (!categorical.insert(resolved).second) {
      return InvalidArgumentError("duplicate categorical column");
    }
    kinds[resolved] = ColumnKind::kCategorical;
  }

  CsvReadResult result;

  // Discover categorical vocabularies in first-seen order with a first
  // pass over the rows (rows with the wrong width are handled in the
  // build pass).
  std::map<std::size_t, std::map<std::string, std::size_t, std::less<>>>
      category_ids;
  if (!categorical.empty()) {
    for (std::size_t c : categorical) {
      result.categorical_values[c] = {};
      category_ids[c] = {};
    }
    RowCursor rows = data_begin;
    while (rows.Next()) {
      if (rows.fields().size() != width) continue;
      for (auto& [c, ids] : category_ids) {
        const std::string_view value = StripWhitespace(rows.fields()[c]);
        if (ids.find(value) == ids.end()) {
          ids.emplace(value, ids.size());
          result.categorical_values[c].emplace_back(value);
        }
      }
    }
  }

  // Feature layout: numeric columns contribute one dimension each,
  // categorical columns one dimension per distinct value.
  std::size_t feature_dim = 0;
  for (std::size_t c = 0; c < width; ++c) {
    if (kinds[c] == ColumnKind::kLabel) continue;
    feature_dim += kinds[c] == ColumnKind::kCategorical
                       ? result.categorical_values[c].size()
                       : 1;
  }
  if (feature_dim == 0) {
    return InvalidArgumentError("CSV has no feature columns");
  }
  result.dataset = Dataset(feature_dim, options.task);

  // Feature names from the header (categorical expand to "name=value").
  if (header.size() == width) {
    std::vector<std::string> names;
    names.reserve(feature_dim);
    for (std::size_t c = 0; c < width; ++c) {
      if (kinds[c] == ColumnKind::kLabel) continue;
      std::string base(StripWhitespace(header[c]));
      if (kinds[c] == ColumnKind::kCategorical) {
        for (const std::string& value : result.categorical_values[c]) {
          names.push_back(base + "=" + value);
        }
      } else {
        names.push_back(base);
      }
    }
    CONDENSA_RETURN_IF_ERROR(result.dataset.SetFeatureNames(std::move(names)));
  }

  // Build records.
  std::map<std::string, int, std::less<>> label_ids;
  cursor = data_begin;
  while (cursor.Next()) {
    const std::vector<std::string_view>& row = cursor.fields();
    if (row.size() != width) {
      if (options.strict) {
        return DataLossError("row " + std::to_string(cursor.line_number()) +
                             " has inconsistent column count");
      }
      ++result.skipped_rows;
      continue;
    }

    linalg::Vector record(feature_dim);
    bool row_ok = true;
    std::size_t out_index = 0;
    for (std::size_t c = 0; c < width; ++c) {
      if (kinds[c] == ColumnKind::kLabel) continue;
      if (kinds[c] == ColumnKind::kCategorical) {
        const auto& ids = category_ids[c];
        const std::size_t id = ids.find(StripWhitespace(row[c]))->second;
        for (std::size_t v = 0; v < ids.size(); ++v) {
          record[out_index++] = v == id ? 1.0 : 0.0;
        }
        continue;
      }
      double value;
      // "nan"/"inf" parse as valid doubles but would silently poison
      // every aggregate downstream; treat them like any other bad cell.
      if (!ParseDouble(row[c], &value) || !std::isfinite(value)) {
        row_ok = false;
        break;
      }
      record[out_index++] = value;
    }
    if (!row_ok) {
      if (options.strict) {
        return DataLossError("row " + std::to_string(cursor.line_number()) +
                             " has a non-numeric or non-finite feature value");
      }
      ++result.skipped_rows;
      continue;
    }

    switch (options.task) {
      case TaskType::kUnlabeled: {
        result.dataset.Add(std::move(record));
        break;
      }
      case TaskType::kClassification: {
        const std::string_view key = StripWhitespace(row[label_col]);
        auto it = label_ids.find(key);
        if (it == label_ids.end()) {
          const int next_label_id = static_cast<int>(label_ids.size());
          it = label_ids.emplace(key, next_label_id).first;
        }
        result.dataset.Add(std::move(record), it->second);
        break;
      }
      case TaskType::kRegression: {
        double target;
        if (!ParseDouble(row[label_col], &target) ||
            !std::isfinite(target)) {
          if (options.strict) {
            return DataLossError("row " +
                                 std::to_string(cursor.line_number()) +
                                 " has a non-numeric or non-finite target");
          }
          ++result.skipped_rows;
          continue;
        }
        result.dataset.Add(std::move(record), target);
        break;
      }
    }
  }
  result.label_ids.insert(label_ids.begin(), label_ids.end());
  return result;
}

StatusOr<CsvReadResult> ReadCsv(const std::string& path,
                                const CsvReadOptions& options) {
  CONDENSA_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ReadCsvFromString(content, options);
}

std::string WriteCsvToString(const Dataset& dataset) {
  const bool classification = dataset.task() == TaskType::kClassification;
  const bool regression = dataset.task() == TaskType::kRegression;
  std::string out;
  // Upper bound: a double's shortest form is at most 24 chars and an int
  // label at most 11, each plus its separator; the untouched tail of a
  // large reservation is never paged in.
  out.reserve(dataset.size() * (dataset.dim() + 1) * 25);
  if (!dataset.feature_names().empty()) {
    for (std::size_t c = 0; c < dataset.dim(); ++c) {
      if (c > 0) out += ',';
      out += dataset.feature_names()[c];
    }
    if (classification) out += ",label";
    if (regression) out += ",target";
    out += '\n';
  }
  char label[16];
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const linalg::Vector& record = dataset.record(i);
    for (std::size_t c = 0; c < record.dim(); ++c) {
      if (c > 0) out += ',';
      AppendDouble(out, record[c]);
    }
    if (classification) {
      out += ',';
      out.append(label, std::to_chars(label, label + sizeof(label),
                                      dataset.label(i))
                            .ptr);
    } else if (regression) {
      out += ',';
      AppendDouble(out, dataset.target(i));
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  const std::string content = WriteCsvToString(dataset);
  // A path that exists but is not a regular file (a device such as
  // /dev/null, a pipe, a symlink) is written in place: renaming over it
  // would replace the node itself.
  struct stat info;
  if (::lstat(path.c_str(), &info) == 0 && !S_ISREG(info.st_mode)) {
    std::ofstream file(path);
    if (!file) {
      return InvalidArgumentError("cannot open " + path + " for writing");
    }
    file << content;
    if (!file) {
      return DataLossError("short write to " + path);
    }
    return OkStatus();
  }
  return ReplaceFile(path, content);
}

}  // namespace condensa::data
