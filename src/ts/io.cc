#include "ts/io.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/string_util.h"

namespace eadrl::ts {

StatusOr<Series> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrCat("LoadCsv: cannot open ", path));
  }

  math::Vec values;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line_number <= options.skip_rows) continue;
    // Strip trailing carriage return (Windows CSVs).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    // Split to the requested column.
    size_t col = 0;
    size_t start = 0;
    std::string field;
    while (true) {
      size_t end = line.find(options.delimiter, start);
      std::string current = line.substr(
          start, end == std::string::npos ? std::string::npos : end - start);
      if (col == options.value_column) {
        field = current;
        break;
      }
      if (end == std::string::npos) {
        return Status::InvalidArgument(
            StrCat("LoadCsv: line ", line_number, " has no column ",
                   options.value_column));
      }
      start = end + 1;
      ++col;
    }

    // The whole field must be one number (whitespace around it aside), and
    // a finite one: strtod reads "nan" and "inf" literally, overflows
    // "1e999" to inf, and stops at the first non-number character of
    // "12abc" -- none of which is a series value.
    char* parse_end = nullptr;
    const double v = std::strtod(field.c_str(), &parse_end);
    while (std::isspace(static_cast<unsigned char>(*parse_end))) ++parse_end;
    if (parse_end == field.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument(
          StrCat("LoadCsv: unparsable value '", field, "' at line ",
                 line_number));
    }
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          StrCat("LoadCsv: non-finite value '", field, "' at line ",
                 line_number));
    }
    values.push_back(v);
  }
  if (values.empty()) {
    return Status::InvalidArgument(StrCat("LoadCsv: no values in ", path));
  }

  std::string name = options.name;
  if (name.empty()) {
    size_t slash = path.find_last_of('/');
    name = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  return Series(name, std::move(values), options.frequency,
                options.seasonal_period);
}

Status SaveCsv(const Series& series, const std::string& path) {
  for (size_t i = 0; i < series.size(); ++i) {
    if (!std::isfinite(series[i])) {
      return Status::InvalidArgument(
          StrCat("SaveCsv: non-finite value at index ", i));
    }
  }
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument(StrCat("SaveCsv: cannot open ", path));
  }
  out << series.name() << "\n" << std::setprecision(17);
  for (size_t i = 0; i < series.size(); ++i) out << series[i] << "\n";
  if (!out) {
    return Status::Internal(StrCat("SaveCsv: write failed for ", path));
  }
  return Status::Ok();
}

}  // namespace eadrl::ts
