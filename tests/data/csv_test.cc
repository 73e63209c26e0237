#include "data/csv.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"

namespace condensa::data {
namespace {

TEST(CsvReadTest, ClassificationWithStringLabels) {
  const std::string content =
      "1.0,2.0,good\n"
      "3.0,4.0,bad\n"
      "5.0,6.0,good\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 3u);
  EXPECT_EQ(result->dataset.dim(), 2u);
  EXPECT_EQ(result->label_ids.at("good"), 0);
  EXPECT_EQ(result->label_ids.at("bad"), 1);
  EXPECT_EQ(result->dataset.label(0), 0);
  EXPECT_EQ(result->dataset.label(1), 1);
  EXPECT_EQ(result->dataset.label(2), 0);
  EXPECT_DOUBLE_EQ(result->dataset.record(1)[1], 4.0);
}

TEST(CsvReadTest, RegressionLastColumn) {
  const std::string content = "1.0,10.5\n2.0,11.5\n";
  CsvReadOptions options;
  options.task = TaskType::kRegression;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.task(), TaskType::kRegression);
  EXPECT_DOUBLE_EQ(result->dataset.target(1), 11.5);
}

TEST(CsvReadTest, UnlabeledKeepsAllColumns) {
  const std::string content = "1,2,3\n4,5,6\n";
  CsvReadOptions options;
  options.task = TaskType::kUnlabeled;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.dim(), 3u);
  EXPECT_DOUBLE_EQ(result->dataset.record(1)[2], 6.0);
}

TEST(CsvReadTest, HeaderParsedIntoFeatureNames) {
  const std::string content =
      "height,weight,label\n"
      "1.0,2.0,a\n";
  CsvReadOptions options;
  options.has_header = true;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.feature_names().size(), 2u);
  EXPECT_EQ(result->dataset.feature_names()[0], "height");
  EXPECT_EQ(result->dataset.feature_names()[1], "weight");
}

TEST(CsvReadTest, LabelColumnByPositiveIndex) {
  const std::string content = "a,1.0,2.0\nb,3.0,4.0\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  options.label_column = 0;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.dim(), 2u);
  EXPECT_EQ(result->label_ids.at("b"), 1);
  EXPECT_DOUBLE_EQ(result->dataset.record(1)[0], 3.0);
}

TEST(CsvReadTest, SkipsBlankLines) {
  const std::string content = "1.0,a\n\n  \n2.0,b\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 2u);
}

TEST(CsvReadTest, CustomDelimiter) {
  const std::string content = "1.0;2.0;x\n";
  CsvReadOptions options;
  options.delimiter = ';';
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.dim(), 2u);
}

TEST(CsvReadTest, QuotedLabelWithEmbeddedDelimiter) {
  const std::string content =
      "1.0,2.0,\"good, mostly\"\n"
      "3.0,4.0,bad\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 2u);
  EXPECT_EQ(result->label_ids.count("good, mostly"), 1u);
}

TEST(CsvReadTest, EscapedQuotesInsideQuotedField) {
  const std::string content = "1.0,\"she said \"\"hi\"\"\"\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->label_ids.count("she said \"hi\""), 1u);
}

TEST(CsvReadTest, SplittingKeepsEmptyFields) {
  for (bool quoting : {true, false}) {
    CsvReadOptions options;
    options.task = TaskType::kClassification;
    options.allow_quoting = quoting;
    // A trailing delimiter ends in an empty field: here, an empty label.
    auto result = ReadCsvFromString("1,2,\n3,4,x\n", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->dataset.dim(), 2u);
    EXPECT_EQ(result->dataset.size(), 2u);
    EXPECT_EQ(result->label_ids.count(""), 1u);

    // An empty feature cell between delimiters is a non-numeric value.
    options.strict = false;
    auto lenient = ReadCsvFromString("1,,a\n3,4,b\n", options);
    ASSERT_TRUE(lenient.ok());
    EXPECT_EQ(lenient->dataset.size(), 1u);
    EXPECT_EQ(lenient->skipped_rows, 1u);

    // A line without the delimiter is one field.
    options.task = TaskType::kUnlabeled;
    auto single = ReadCsvFromString("5\n6\n", options);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->dataset.dim(), 1u);
    EXPECT_EQ(single->dataset.size(), 2u);
  }
}

TEST(CsvReadTest, QuotedFieldKeepsTextAfterClosingQuote) {
  // RFC-4180 leniency: text after the closing quote joins the field, and
  // an unterminated quote runs to the end of the line.
  const std::string content =
      "1.0,\"ab\"cd\n"
      "2.0,\"x\"\"y\"z\n"
      "3.0,\"open, to the end\n"
      "4.0,\"\"\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->dataset.size(), 4u);
  EXPECT_EQ(result->label_ids.count("abcd"), 1u);
  EXPECT_EQ(result->label_ids.count("x\"yz"), 1u);
  EXPECT_EQ(result->label_ids.count("open, to the end"), 1u);
  EXPECT_EQ(result->label_ids.count(""), 1u);
  EXPECT_EQ(result->dataset.label(3), 3);
}

TEST(CsvReadTest, QuotedNumericFieldParses) {
  const std::string content = "\"1.5\",\"2.5\",a\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[1], 2.5);
}

TEST(CsvReadTest, QuotingCanBeDisabled) {
  // Without quote handling the embedded comma splits the field, leaving a
  // non-numeric feature ("\"a"); strict mode must reject the row.
  const std::string content = "1.0,\"a,b\"\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  options.allow_quoting = false;
  options.strict = true;
  EXPECT_FALSE(ReadCsvFromString(content, options).ok());

  options.strict = false;
  auto lenient = ReadCsvFromString(content, options);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->dataset.size(), 0u);
  EXPECT_EQ(lenient->skipped_rows, 1u);
}

TEST(CsvReadTest, StrictModeFailsOnBadValue) {
  const std::string content = "1.0,a\noops,b\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  options.strict = true;
  EXPECT_FALSE(ReadCsvFromString(content, options).ok());
}

TEST(CsvReadTest, LenientModeSkipsBadRows) {
  const std::string content = "1.0,a\noops,b\n2.0,c\n3.0,4.0,extra\n";
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  options.strict = false;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 2u);
  EXPECT_EQ(result->skipped_rows, 2u);
}

TEST(CsvReadTest, StrictModeRejectsNonFiniteValues) {
  // "nan"/"inf" parse as valid doubles, but one of them in an aggregate
  // poisons every statistic computed from it — strict mode must refuse.
  CsvReadOptions options;
  options.task = TaskType::kUnlabeled;
  options.strict = true;
  for (const char* bad : {"nan", "inf", "-inf", "NaN", "Infinity"}) {
    const std::string content = "1.0,2.0\n3.0," + std::string(bad) + "\n";
    auto result = ReadCsvFromString(content, options);
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(result.status().message().find("non-finite"),
              std::string::npos)
        << bad;
  }
}

TEST(CsvReadTest, LenientModeSkipsNonFiniteRows) {
  const std::string content = "1.0,2.0\n3.0,nan\ninf,4.0\n5.0,6.0\n";
  CsvReadOptions options;
  options.task = TaskType::kUnlabeled;
  options.strict = false;
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 2u);
  EXPECT_EQ(result->skipped_rows, 2u);
}

TEST(CsvReadTest, NonFiniteRegressionTargetHandledByStrictness) {
  const std::string content = "1.0,2.0\n3.0,inf\n";
  CsvReadOptions options;
  options.task = TaskType::kRegression;
  options.strict = true;
  auto strict = ReadCsvFromString(content, options);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  options.strict = false;
  auto lenient = ReadCsvFromString(content, options);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->dataset.size(), 1u);
  EXPECT_EQ(lenient->skipped_rows, 1u);
}

TEST(CsvReadTest, EmptyContentFails) {
  CsvReadOptions options;
  EXPECT_FALSE(ReadCsvFromString("", options).ok());
  EXPECT_FALSE(ReadCsvFromString("\n\n", options).ok());
}

TEST(CsvReadTest, SingleColumnClassificationFails) {
  // Label column consumes the only column: no features left.
  CsvReadOptions options;
  options.task = TaskType::kClassification;
  EXPECT_FALSE(ReadCsvFromString("a\nb\n", options).ok());
}

TEST(CsvCategoricalTest, OneHotExpansionBasic) {
  // Abalone-style: first column categorical (sex), rest numeric.
  const std::string content =
      "M,0.5,10.5\n"
      "F,0.4,9.0\n"
      "I,0.2,4.5\n"
      "M,0.6,12.0\n";
  CsvReadOptions options;
  options.task = data::TaskType::kRegression;
  options.categorical_columns = {0};
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  // Dim: 3 one-hot (M, F, I in first-seen order) + 1 numeric feature.
  EXPECT_EQ(result->dataset.dim(), 4u);
  ASSERT_EQ(result->categorical_values.at(0).size(), 3u);
  EXPECT_EQ(result->categorical_values.at(0)[0], "M");
  EXPECT_EQ(result->categorical_values.at(0)[1], "F");
  EXPECT_EQ(result->categorical_values.at(0)[2], "I");
  // Row 0: M -> (1,0,0), then 0.5.
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[1], 0.0);
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[2], 0.0);
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[3], 0.5);
  // Row 2: I -> (0,0,1).
  EXPECT_DOUBLE_EQ(result->dataset.record(2)[2], 1.0);
  EXPECT_DOUBLE_EQ(result->dataset.target(2), 4.5);
}

TEST(CsvCategoricalTest, HeaderNamesExpand) {
  const std::string content =
      "sex,len,rings\n"
      "M,0.5,10\n"
      "F,0.4,9\n";
  CsvReadOptions options;
  options.has_header = true;
  options.task = data::TaskType::kRegression;
  options.categorical_columns = {0};
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.feature_names().size(), 3u);
  EXPECT_EQ(result->dataset.feature_names()[0], "sex=M");
  EXPECT_EQ(result->dataset.feature_names()[1], "sex=F");
  EXPECT_EQ(result->dataset.feature_names()[2], "len");
}

TEST(CsvCategoricalTest, NegativeIndexAndValidation) {
  const std::string content = "0.5,M,a\n0.4,F,b\n";
  CsvReadOptions options;
  options.task = data::TaskType::kClassification;  // label = last column
  options.categorical_columns = {-2};              // the middle column
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.dim(), 3u);  // 1 numeric + 2 one-hot

  // Categorical overlapping the label column is rejected.
  CsvReadOptions bad = options;
  bad.categorical_columns = {-1};
  EXPECT_FALSE(ReadCsvFromString(content, bad).ok());

  // Duplicate categorical columns are rejected.
  CsvReadOptions dup = options;
  dup.categorical_columns = {1, -2};
  EXPECT_FALSE(ReadCsvFromString(content, dup).ok());

  // Out-of-range column is rejected.
  CsvReadOptions oob = options;
  oob.categorical_columns = {7};
  EXPECT_FALSE(ReadCsvFromString(content, oob).ok());
}

TEST(CsvCategoricalTest, PipelineFeedsCondensation) {
  // End-to-end: categorical CSV -> one-hot dataset -> it is numeric, so
  // it condenses like any other dataset.
  const std::string content =
      "A,1.0,x\nB,2.0,x\nA,1.5,y\nB,2.5,y\nA,0.5,x\nB,3.0,y\n";
  CsvReadOptions options;
  options.task = data::TaskType::kClassification;
  options.categorical_columns = {0};
  auto result = ReadCsvFromString(content, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.dim(), 3u);
  EXPECT_EQ(result->dataset.size(), 6u);
  EXPECT_TRUE(result->dataset.Validate().ok());
}

TEST(CsvReadTest, MissingFileReportsNotFound) {
  CsvReadOptions options;
  auto result = ReadCsv("/nonexistent/path/file.csv", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsNotFound(result.status()));
}

TEST(CsvRoundTripTest, ClassificationSurvivesWriteRead) {
  Dataset ds(2, TaskType::kClassification);
  ds.Add(linalg::Vector{1.25, -3.5}, 0);
  ds.Add(linalg::Vector{0.0, 7.125}, 2);
  ASSERT_TRUE(ds.SetFeatureNames({"x", "y"}).ok());

  std::string csv = WriteCsvToString(ds);
  CsvReadOptions options;
  options.has_header = true;
  options.task = TaskType::kClassification;
  auto result = ReadCsvFromString(csv, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.size(), 2u);
  EXPECT_DOUBLE_EQ(result->dataset.record(0)[0], 1.25);
  EXPECT_DOUBLE_EQ(result->dataset.record(1)[1], 7.125);
  // Labels remapped densely in first-seen order: 0 -> 0, 2 -> 1.
  EXPECT_EQ(result->dataset.label(0), 0);
  EXPECT_EQ(result->dataset.label(1), 1);
}

TEST(CsvRoundTripTest, RegressionSurvivesWriteReadViaFile) {
  Dataset ds(1, TaskType::kRegression);
  ds.Add(linalg::Vector{1.5}, 9.25);
  ds.Add(linalg::Vector{2.5}, 10.75);

  const std::string path = ::testing::TempDir() + "/condensa_csv_test.csv";
  ASSERT_TRUE(WriteCsv(ds, path).ok());

  CsvReadOptions options;
  options.task = TaskType::kRegression;
  auto result = ReadCsv(path, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.size(), 2u);
  EXPECT_DOUBLE_EQ(result->dataset.target(0), 9.25);
  EXPECT_DOUBLE_EQ(result->dataset.record(1)[0], 2.5);
  std::remove(path.c_str());
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Values glibc strtod flags with ERANGE; a strict read used to refuse a
// release that WriteCsv wrote.
TEST(CsvRoundTripTest, SubnormalValuesSurviveStrictRead) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  Dataset ds(2, TaskType::kRegression);
  ds.Add(linalg::Vector{tiny, -DBL_MIN / 3}, 1.0);
  ds.Add(linalg::Vector{1.5, std::nextafter(DBL_MIN, 0.0)}, tiny);

  CsvReadOptions options;
  options.task = TaskType::kRegression;
  auto result = ReadCsvFromString(WriteCsvToString(ds), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->dataset.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(Bits(result->dataset.record(i)[j]), Bits(ds.record(i)[j]));
    }
    EXPECT_EQ(Bits(result->dataset.target(i)), Bits(ds.target(i)));
  }
}

// A release written with 17 significant digits (the writer's earlier
// form) loads to the same bits as the shortest form.
TEST(CsvRoundTripTest, SeventeenDigitFileLoadsToSameBits) {
  const std::vector<double> values = {0.1, -2.0 / 3.0, 1e22, 5e-324,
                                      DBL_MAX, -0.0};
  Dataset ds(values.size(), TaskType::kClassification);
  ds.Add(linalg::Vector(values), 7);
  std::string legacy;
  for (double value : values) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g,", value);
    legacy += buffer;
  }
  legacy += "7\n";
  const std::string shortest = WriteCsvToString(ds);
  EXPECT_LT(shortest.size(), legacy.size());

  CsvReadOptions options;
  options.task = TaskType::kClassification;
  auto from_legacy = ReadCsvFromString(legacy, options);
  auto from_shortest = ReadCsvFromString(shortest, options);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
  ASSERT_TRUE(from_shortest.ok()) << from_shortest.status().ToString();
  for (std::size_t j = 0; j < values.size(); ++j) {
    EXPECT_EQ(Bits(from_legacy->dataset.record(0)[j]), Bits(values[j]));
    EXPECT_EQ(Bits(from_shortest->dataset.record(0)[j]), Bits(values[j]));
  }
}

TEST(CsvWriteTest, NoHeaderWithoutFeatureNames) {
  Dataset ds(1);
  ds.Add(linalg::Vector{4.0});
  EXPECT_EQ(WriteCsvToString(ds), "4\n");
}

// A write torn mid-file, or one whose rename fails, leaves the previous
// release byte for byte and no temp file behind.
TEST(CsvWriteTest, FailedWriteKeepsThePreviousFile) {
  const std::string dir = ::testing::TempDir() + "/condensa_csv_torn";
  ASSERT_TRUE(CreateDirectories(dir).ok());
  const std::string path = dir + "/release.csv";
  Dataset first(1);
  first.Add(linalg::Vector{4.0});
  ASSERT_TRUE(WriteCsv(first, path).ok());
  Dataset second(1);
  for (int i = 0; i < 100; ++i) second.Add(linalg::Vector{0.5 * i});

  for (const FailPointSpec& spec :
       {FailPointSpec{.mode = FailPointMode::kTornWrite},
        FailPointSpec{.code = StatusCode::kDataLoss}}) {
    FailPoint::Reset();
    FailPoint::Arm(spec.mode == FailPointMode::kTornWrite ? "io.atomic_write"
                                                           : "io.atomic_rename",
                   spec);
    EXPECT_FALSE(WriteCsv(second, path).ok());
    FailPoint::Reset();
    EXPECT_EQ(*ReadFileToString(path), "4\n");
    const StatusOr<std::vector<std::string>> names = ListDirectory(dir);
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(*names, std::vector<std::string>{"release.csv"});
  }
  ASSERT_TRUE(WriteCsv(second, path).ok());
  EXPECT_EQ(*ReadFileToString(path), WriteCsvToString(second));
}

// Paths that are not regular files are written in place: a character
// device stays a character device.
TEST(CsvWriteTest, DeviceOutputIsWrittenInPlace) {
  Dataset ds(1);
  ds.Add(linalg::Vector{4.0});
  ASSERT_TRUE(WriteCsv(ds, "/dev/null").ok());
  struct stat info;
  ASSERT_EQ(::stat("/dev/null", &info), 0);
  EXPECT_TRUE(S_ISCHR(info.st_mode));
}

}  // namespace
}  // namespace condensa::data
