// CSV import/export for Dataset.
//
// The benches run on synthetic UCI-profile data by default, but real UCI
// files (ionosphere.data, ecoli.data, pima-indians-diabetes.data,
// abalone.data) can be dropped in via this reader: non-numeric label columns
// are mapped to dense integer ids automatically.

#ifndef CONDENSA_DATA_CSV_H_
#define CONDENSA_DATA_CSV_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace condensa::data {

struct CsvReadOptions {
  char delimiter = ',';
  // RFC-4180-style quoting: a field starting with '"' extends to the
  // matching closing quote; "" inside is an escaped quote. Delimiters
  // inside quotes do not split. (Newlines inside quoted fields are not
  // supported — records are line-based.)
  bool allow_quoting = true;
  bool has_header = false;
  // Column carrying the label/target; negative counts from the end
  // (-1 = last column). Ignored for kUnlabeled.
  int label_column = -1;
  // How to interpret the label column.
  TaskType task = TaskType::kClassification;
  // Columns holding categorical (string) features, by original column
  // index (negative counts from the end). Each is one-hot expanded into
  // one 0/1 dimension per distinct value, in first-seen order — e.g. the
  // UCI Abalone sex attribute. Must not include the label column.
  std::vector<int> categorical_columns;
  // When true, non-numeric or non-finite (NaN/Inf) feature and target
  // values fail the read with kDataLoss; when false the offending row is
  // skipped and counted in CsvReadResult::skipped_rows.
  bool strict = true;
};

struct CsvReadResult {
  Dataset dataset = Dataset(0);
  // For classification: maps the original label strings to the dense ids
  // stored in the dataset, in first-seen order.
  std::map<std::string, int> label_ids;
  // Per categorical column (keyed by resolved column index): the distinct
  // values, in the order of their one-hot dimensions.
  std::map<std::size_t, std::vector<std::string>> categorical_values;
  // Rows dropped in non-strict mode.
  std::size_t skipped_rows = 0;
};

// Parses `path`. Every column except the label column must be numeric.
StatusOr<CsvReadResult> ReadCsv(const std::string& path,
                                const CsvReadOptions& options);

// Parses CSV from an in-memory string (same semantics as ReadCsv).
StatusOr<CsvReadResult> ReadCsvFromString(std::string_view content,
                                          const CsvReadOptions& options);

// Writes `dataset` to `path`; labels/targets become the last column. When
// the dataset has feature names a header row is emitted.
//
// The bytes go to `<path>.tmp.<pid>` in the same directory, which is then
// renamed over `path` (ReplaceFile in common/io.h), so a crash never
// leaves a truncated release that looks whole; every error removes the
// temp file and leaves `path` as it was. Nothing is fsync'd: a release
// can be re-derived from the saved pools and the seed, and
// WriteFileAtomic's two fsyncs would double the I/O calls of a condense
// run. A path that exists but is not a regular file (/dev/null, a pipe)
// is written in place, since renaming over it would replace the node.
Status WriteCsv(const Dataset& dataset, const std::string& path);

// Renders `dataset` as a CSV string (same format as WriteCsv).
std::string WriteCsvToString(const Dataset& dataset);

}  // namespace condensa::data

#endif  // CONDENSA_DATA_CSV_H_
