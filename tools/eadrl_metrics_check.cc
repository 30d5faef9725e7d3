// eadrl_metrics_check: validates a metrics snapshot written by
// eadrl::obs::MetricsExporter (the --export-metrics flag of eadrl_serve).
//
// JSON snapshots must parse strictly (common/json.h), carry a "schema"
// string starting with "eadrl-metrics-", a numeric "sequence" and
// "unix_seconds", and at least one of "metrics" / "sections" as a non-empty
// object. Prometheus snapshots are checked line by line against the text
// exposition grammar: '#' comment lines ("# TYPE <name> <kind>" must be
// well-formed), blank lines, or samples of the form `name value` /
// `name{label="v",...} value` with a legal metric name and a non-NaN value.
// Every sample must belong to the family named by the latest `# TYPE` line
// (a histogram's `_bucket`, `_sum` and `_count` series included), and no
// (name, label set) series may appear twice — the two shapes a label value
// that escaped its quotes would forge.
//
// Usage:
//   eadrl_metrics_check [--format json|prom|auto] [--require NAME]... FILE
//
// --require NAME demands that NAME appears in the document: in prom mode as
// a metric name or a prefix of one, in JSON mode as an object key anywhere in
// the parsed tree (a substring of a key or value does not count). check.sh's
// slo-smoke stage uses it to prove the SLO series made it into the export.
//
// Exit status: 0 clean, 1 validation failure, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using eadrl::json::Value;

int Fail(const std::string& what) {
  std::fprintf(stderr, "eadrl_metrics_check: %s\n", what.c_str());
  return 1;
}

bool IsMetricNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (!IsMetricNameChar(name[i], i == 0)) return false;
  }
  return true;
}

/// One exposition line that is not a comment or blank:
///   name[{key="value",...}] <float>
/// On success `*series` is the name plus the label pairs in sorted order
/// (values kept escaped), the series' identity whatever the label order.
bool ValidSampleLine(const std::string& line, std::string* name,
                     std::string* series) {
  size_t i = 0;
  while (i < line.size() && IsMetricNameChar(line[i], i == 0)) ++i;
  *name = line.substr(0, i);
  if (!ValidMetricName(*name)) return false;
  std::vector<std::string> labels;
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      // key="value" with backslash escapes inside the quotes, then ',' or
      // the closing brace.
      const size_t start = i;
      while (i < line.size() && IsMetricNameChar(line[i], i == start)) ++i;
      if (i == start || i + 1 >= line.size() || line[i] != '=' ||
          line[i + 1] != '"') {
        return false;
      }
      for (i += 2; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\') ++i;  // skip the escaped char
      }
      if (i >= line.size()) return false;
      labels.push_back(line.substr(start, ++i - start));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return false;
    ++i;
  }
  std::sort(labels.begin(), labels.end());
  *series = *name;
  for (const std::string& label : labels) *series += '\n' + label;
  if (i >= line.size() || (line[i] != ' ' && line[i] != '\t')) return false;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  char* end = nullptr;
  const double v = std::strtod(line.c_str() + i, &end);
  if (end == line.c_str() + i) return false;
  while (*end == ' ' || *end == '\t') ++end;
  if (*end != '\0') return false;
  return !std::isnan(v);  // +Inf bucket bounds are legal sample values.
}

/// True when a sample called `name` belongs to the family declared by
/// `# TYPE <family> <kind>`.
bool InFamily(const std::string& name, const std::string& family,
              const std::string& kind) {
  if (name == family) return true;
  if (kind != "histogram") return false;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    if (name == family + suffix) return true;
  }
  return false;
}

int CheckPrometheus(const std::string& text,
                    const std::vector<std::string>& required) {
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  size_t samples = 0;
  std::vector<std::string> names;
  std::string family;
  std::string kind;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (line[0] == '#') {
      // "# TYPE <name> <kind>" comments must at least name a legal metric.
      std::istringstream c(line);
      std::string hash, kw, name, type;
      c >> hash >> kw;
      if (kw == "TYPE") {
        if (!(c >> name >> type) || !ValidMetricName(name)) {
          return Fail(where + "malformed # TYPE comment");
        }
        names.push_back(name);
        family = name;
        kind = type;
      }
      continue;
    }
    std::string name;
    std::string series;
    if (!ValidSampleLine(line, &name, &series)) {
      return Fail(where + "not a valid exposition sample: " + line);
    }
    if (!InFamily(name, family, kind)) {
      return Fail(where + "sample " + name + " outside the # TYPE family " +
                  (family.empty() ? "(none)" : family));
    }
    if (!seen.insert(series).second) {
      return Fail(where + "duplicate series: " + line);
    }
    names.push_back(name);
    ++samples;
  }
  if (samples == 0) return Fail("no samples in exposition");
  for (const std::string& want : required) {
    bool found = false;
    for (const std::string& name : names) {
      if (name == want || name.rfind(want, 0) == 0) {
        found = true;
        break;
      }
    }
    if (!found) return Fail("required metric missing: " + want);
  }
  std::printf("eadrl_metrics_check: ok (%zu samples)\n", samples);
  return 0;
}

/// True when `key` names an object member anywhere in the tree under `v`.
bool HasKey(const Value& v, const std::string& key) {
  if (v.is_object()) {
    for (const auto& [name, child] : v.AsObject()) {
      if (name == key || HasKey(child, key)) return true;
    }
  } else if (v.is_array()) {
    for (const Value& child : v.AsArray()) {
      if (HasKey(child, key)) return true;
    }
  }
  return false;
}

int CheckJson(const std::string& text,
              const std::vector<std::string>& required) {
  auto parsed = eadrl::json::Parse(text);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const Value& root = parsed.value();
  if (!root.is_object()) return Fail("top level is not an object");

  const Value* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString().rfind("eadrl-metrics-", 0) != 0) {
    return Fail("missing or unrecognized \"schema\"");
  }
  const Value* sequence = root.Find("sequence");
  if (sequence == nullptr || !sequence->is_number()) {
    return Fail("missing numeric \"sequence\"");
  }
  const Value* unix_seconds = root.Find("unix_seconds");
  if (unix_seconds == nullptr || !unix_seconds->is_number()) {
    return Fail("missing numeric \"unix_seconds\"");
  }
  const Value* metrics = root.Find("metrics");
  const Value* sections = root.Find("sections");
  const bool has_metrics =
      metrics != nullptr && metrics->is_object() && !metrics->AsObject().empty();
  const bool has_sections = sections != nullptr && sections->is_object() &&
                            !sections->AsObject().empty();
  if (metrics != nullptr && !metrics->is_object()) {
    return Fail("\"metrics\" is not an object");
  }
  if (sections != nullptr && !sections->is_object()) {
    return Fail("\"sections\" is not an object");
  }
  if (!has_metrics && !has_sections) {
    return Fail("neither \"metrics\" nor \"sections\" has content");
  }
  for (const std::string& want : required) {
    if (!HasKey(root, want)) return Fail("required key missing: " + want);
  }
  std::printf("eadrl_metrics_check: ok (%s, sequence %.0f)\n",
              schema->AsString().c_str(), sequence->AsNumber());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "auto";
  std::vector<std::string> required;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--format") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --format\n");
        return 2;
      }
      format = argv[++i];
      if (format != "json" && format != "prom" && format != "auto") {
        std::fprintf(stderr, "--format must be json, prom or auto\n");
        return 2;
      }
    } else if (flag == "--require") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --require\n");
        return 2;
      }
      required.push_back(argv[++i]);
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr,
                   "usage: eadrl_metrics_check [--format json|prom|auto] "
                   "[--require NAME]... FILE\n");
      return 2;
    } else if (path.empty()) {
      path = flag;
    } else {
      std::fprintf(stderr, "more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: eadrl_metrics_check [--format json|prom|auto] "
                 "[--require NAME]... FILE\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "eadrl_metrics_check: cannot read %s\n",
                 path.c_str());
    return 2;
  }
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();

  if (format == "auto") {
    format = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0
                 ? "json"
                 : "prom";
  }
  return format == "json" ? CheckJson(text, required)
                          : CheckPrometheus(text, required);
}
