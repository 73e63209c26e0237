#include "bench/bench_report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/io.h"
#include "obs/metrics.h"

namespace condensa::bench {
namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN literals.
    return "null";
  }
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  // Shortest precision that round-trips the value exactly.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

}  // namespace

StatusOr<std::string> WriteBenchReport(const BenchReport& report) {
  if (report.name.empty()) {
    return InvalidArgumentError("bench report needs a name");
  }
  for (const std::vector<double>& row : report.rows) {
    if (row.size() != report.row_schema.size()) {
      return InvalidArgumentError("bench report row width != schema width");
    }
  }

  std::string out = "{\n";
  out += "  \"bench\": \"" + JsonEscape(report.name) + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"elapsed_seconds\": " + FormatDouble(report.elapsed_seconds) +
         ",\n";

  out += "  \"scalars\": {";
  for (std::size_t i = 0; i < report.scalars.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(report.scalars[i].first);
    out += "\": ";
    out += FormatDouble(report.scalars[i].second);
  }
  out += "},\n";

  out += "  \"rows\": {\"schema\": [";
  for (std::size_t i = 0; i < report.row_schema.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(report.row_schema[i]);
    out += '"';
  }
  out += "], \"data\": [";
  for (std::size_t r = 0; r < report.rows.size(); ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (std::size_t c = 0; c < report.rows[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += FormatDouble(report.rows[r][c]);
    }
    out += "]";
  }
  out += "]},\n";

  out += "  \"metrics\": " + obs::DefaultRegistry().DumpJson() + "\n";
  out += "}\n";

  const char* dir = std::getenv("CONDENSA_BENCH_OUT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + report.name + ".json"
                         : "BENCH_" + report.name + ".json";
  CONDENSA_RETURN_IF_ERROR(WriteFileAtomic(path, out));
  return path;
}

BenchReporter::BenchReporter(std::string name) {
  report_.name = std::move(name);
}

void BenchReporter::AddScalar(std::string key, double value) {
  report_.scalars.emplace_back(std::move(key), value);
}

void BenchReporter::SetRowSchema(std::vector<std::string> columns) {
  report_.row_schema = std::move(columns);
}

void BenchReporter::AddRow(std::vector<double> row) {
  report_.rows.push_back(std::move(row));
}

bool BenchReporter::Finish() {
  report_.elapsed_seconds = timer_.ElapsedSeconds();
  StatusOr<std::string> path = WriteBenchReport(report_);
  if (!path.ok()) {
    std::fprintf(stderr, "bench report: %s\n",
                 path.status().ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "bench report: wrote %s\n", path->c_str());
  return true;
}

}  // namespace condensa::bench
