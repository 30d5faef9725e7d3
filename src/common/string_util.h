#ifndef EADRL_COMMON_STRING_UTIL_H_
#define EADRL_COMMON_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <vector>

namespace eadrl {

/// Concatenates the stream representation of the arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  static_cast<void>((out << ... << args));
  return out.str();
}

/// Joins elements with a separator using their stream representation.
template <typename T>
std::string StrJoin(const std::vector<T>& v, const std::string& sep) {
  std::ostringstream out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << sep;
    out << v[i];
  }
  return out.str();
}

/// Formats a double with fixed precision (for table output).
std::string FormatDouble(double v, int precision);

/// Appends `s` to `*out` with JSON string escaping (quote, backslash and
/// control characters; the caller writes the surrounding quotes). Shared by
/// MetricRegistry::ToJson, the exporter, the SLO and drill-down reports and
/// the Chrome trace exporter so every serializer escapes identically.
void AppendJsonEscaped(std::string* out, const std::string& s);

/// Convenience wrapper around AppendJsonEscaped.
std::string JsonEscaped(const std::string& s);

/// Appends `v` as a JSON number: the shortest text that parses back to the
/// same double (std::to_chars), or `null` for NaN and infinities, which JSON
/// cannot spell. The one number writer of every JSON document the project
/// emits (metric snapshots, exporter sections, SLO and drill-down reports,
/// trace attributes).
void AppendJsonNumber(std::string* out, double v);

/// Formats a unix timestamp (seconds since the epoch) as ISO-8601 UTC with
/// millisecond precision, e.g. "2026-08-05T12:00:00.123Z". Used by the
/// default log sink.
std::string FormatIso8601Utc(double unix_seconds);

/// Current wall clock, seconds since the epoch.
double UnixNowSeconds();

/// Left/right-pads a string with spaces to the given width.
std::string PadLeft(const std::string& s, size_t width);
std::string PadRight(const std::string& s, size_t width);

}  // namespace eadrl

#endif  // EADRL_COMMON_STRING_UTIL_H_
