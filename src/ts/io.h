#ifndef EADRL_TS_IO_H_
#define EADRL_TS_IO_H_

#include <string>

#include "common/status.h"
#include "ts/series.h"

namespace eadrl::ts {

/// Options for loading a series from a delimited text file.
struct CsvOptions {
  char delimiter = ',';
  /// Zero-based column holding the values.
  size_t value_column = 0;
  /// Number of leading lines to skip (e.g. 1 for a header row).
  size_t skip_rows = 0;
  /// Name given to the loaded series (defaults to the file name).
  std::string name;
  std::string frequency;
  size_t seasonal_period = 0;
};

/// Loads a univariate series from a CSV/TSV file. Empty lines are skipped;
/// unparsable values produce an InvalidArgument status naming the line.
StatusOr<Series> LoadCsv(const std::string& path, const CsvOptions& options);

/// Writes a series as a single-column CSV (one value per line, header with
/// the series name). Values are written at 17 significant digits, so
/// LoadCsv reads back every value bit for bit; a non-finite value, which
/// LoadCsv refuses, is an InvalidArgument and nothing is written.
Status SaveCsv(const Series& series, const std::string& path);

}  // namespace eadrl::ts

#endif  // EADRL_TS_IO_H_
