#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace eadrl::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal flat-JSON-object parser used to golden-check the JSON-lines shape:
// accepts {"key":value,...} with string / number / null values and returns
// the raw value text per key. Any syntax violation fails the parse.
// ---------------------------------------------------------------------------

bool ParseFlatJsonObject(const std::string& line,
                         std::map<std::string, std::string>* out) {
  out->clear();
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[i]))) {
      ++i;
    }
  };
  auto parse_string = [&](std::string* s) {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        if (i >= line.size()) return false;
        switch (line[i]) {
          case '"': *s += '"'; break;
          case '\\': *s += '\\'; break;
          case 'n': *s += '\n'; break;
          case 'r': *s += '\r'; break;
          case 't': *s += '\t'; break;
          case 'u':
            if (i + 4 >= line.size()) return false;
            i += 4;  // keep the escape opaque; shape check only.
            *s += '?';
            break;
          default: return false;
        }
      } else {
        *s += line[i];
      }
      ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote.
    return true;
  };
  auto parse_number_or_null = [&](std::string* v) {
    size_t start = i;
    if (line.compare(i, 4, "null") == 0) {
      i += 4;
      *v = "null";
      return true;
    }
    while (i < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[i])) ||
            line[i] == '-' || line[i] == '+' || line[i] == '.' ||
            line[i] == 'e' || line[i] == 'E')) {
      ++i;
    }
    if (i == start) return false;
    *v = line.substr(start, i - start);
    // The numeric text must round-trip through strtod completely.
    char* end = nullptr;
    std::strtod(v->c_str(), &end);
    return end == v->c_str() + v->size();
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return true;
  while (true) {
    skip_ws();
    std::string key, value;
    if (!parse_string(&key)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(&value)) return false;
    } else if (!parse_number_or_null(&value)) {
      return false;
    }
    (*out)[key] = value;
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  if (i >= line.size() || line[i] != '}') return false;
  ++i;
  skip_ws();
  return i == line.size();
}

// ---------------------------------------------------------------------------
// Counter / Gauge.
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
  c.Inc();
  c.Inc(2.5);
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
}

TEST(ObsCounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncs = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.Value(), static_cast<double>(kThreads * kIncs));
}

TEST(ObsGaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10.0);
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
  g.Add(-2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 7.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

TEST(ObsHistogramTest, BucketAssignment) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);    // bucket 0: (-inf, 1]
  h.Observe(1.0);    // bucket 0: upper bounds are inclusive ("le").
  h.Observe(1.5);    // bucket 1: (1, 2]
  h.Observe(3.0);    // bucket 2: (2, 4]
  h.Observe(100.0);  // overflow bucket.
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 3.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), snap.sum / 5.0);
}

TEST(ObsHistogramTest, QuantileInterpolationIsSane) {
  Histogram h(Histogram::LinearBounds(0.1, 0.1, 10));  // 0.1 .. 1.0
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i) / 1000.0);  // uniform on (0, 1].
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.Quantile(0.5), 0.5, 0.06);
  EXPECT_NEAR(snap.Quantile(0.9), 0.9, 0.06);
  EXPECT_GE(snap.Quantile(1.0), snap.Quantile(0.5));
  EXPECT_LE(snap.Quantile(0.0), snap.Quantile(0.5));
}

TEST(ObsHistogramTest, QuantileClampsToObservedRange) {
  Histogram h({1.0, 2.0});
  h.Observe(1000.0);  // only the open-ended overflow bucket is hit.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 1000.0);
  EXPECT_TRUE(std::isfinite(snap.Quantile(1.0)));
}

TEST(ObsHistogramTest, EmptyHistogram) {
  Histogram h({1.0});
  EXPECT_EQ(h.Count(), 0u);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

TEST(ObsHistogramTest, ConcurrentObservationsAreLossless) {
  Histogram h(Histogram::ExponentialBounds(1e-3, 2.0, 10));
  constexpr int kThreads = 4;
  constexpr int kObs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.Observe(1e-3 * static_cast<double>(1 + ((i + t) % 512)));
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kObs));
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsHistogramTest, BoundHelpers) {
  std::vector<double> exp = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  std::vector<double> lin = Histogram::LinearBounds(0.0, 0.5, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[2], 1.0);
}

// ---------------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, SameNameAndLabelsReturnsSamePointer) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("requests", {{"method", "predict"}});
  Counter* b = reg.GetCounter("requests", {{"method", "predict"}});
  EXPECT_EQ(a, b);
}

TEST(ObsRegistryTest, LabelOrderIsInsensitive) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("c", {{"x", "1"}, {"y", "2"}});
  Counter* b = reg.GetCounter("c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
}

TEST(ObsRegistryTest, DifferentLabelsAreDistinctMetrics) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("c", {{"m", "a"}});
  Counter* b = reg.GetCounter("c", {{"m", "b"}});
  Counter* unlabeled = reg.GetCounter("c2");
  EXPECT_NE(a, b);
  EXPECT_NE(a, unlabeled);
  a->Inc();
  EXPECT_DOUBLE_EQ(a->Value(), 1.0);
  EXPECT_DOUBLE_EQ(b->Value(), 0.0);
}

TEST(ObsRegistryTest, JsonSnapshot) {
  MetricRegistry reg;
  reg.GetCounter("hits", {{"path", "/predict"}})->Inc(3);
  reg.GetGauge("temp")->Set(21.5);
  reg.GetHistogram("lat", {0.1, 1.0})->Observe(0.05);

  std::string json = reg.ToJson();
  std::map<std::string, std::string> ignored;
  // The registry JSON is nested, so only spot-check its contents here; the
  // flat-object parser is exercised on telemetry lines below.
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("path=/predict"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsRegistryTest, JsonSnapshotKeepsFullPrecision) {
  MetricRegistry reg;
  reg.GetCounter("big_total")->Inc(1234567);
  reg.GetGauge("ratio")->Set(0.1234567891);
  Histogram* hist = reg.GetHistogram("lat_seconds");
  hist->Observe(0.1);
  hist->Observe(0.2);
  const double sum = hist->Snapshot().sum;  // 0.30000000000000004

  auto parsed = json::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto value = [&](const char* family, const char* field) {
    const json::Value* f = parsed->Find(family);
    EXPECT_NE(f, nullptr) << family;
    if (f == nullptr) return -1.0;
    return f->AsObject()[0].second.Find(field)->AsNumber();
  };
  // Six significant digits would read 1.23457e+06 and 0.123457.
  EXPECT_EQ(value("big_total", "value"), 1234567.0);
  EXPECT_EQ(value("ratio", "value"), 0.1234567891);
  EXPECT_EQ(value("lat_seconds", "sum"), sum);
}

TEST(ObsRegistryTest, ResetDropsMetrics) {
  MetricRegistry reg;
  reg.GetCounter("x")->Inc();
  reg.Reset();
  EXPECT_DOUBLE_EQ(reg.GetCounter("x")->Value(), 0.0);
}

// ---------------------------------------------------------------------------
// ScopedTimer.
// ---------------------------------------------------------------------------

TEST(ObsScopedTimerTest, WritesOutAndObserves) {
  Histogram h(Histogram::DefaultLatencyBounds());
  double seconds = -1.0;
  {
    ScopedTimer timer(&h, &seconds);
  }
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(h.Count(), 1u);
}

TEST(ObsScopedTimerTest, StopIsIdempotent) {
  Histogram h(Histogram::DefaultLatencyBounds());
  ScopedTimer timer(&h);
  double first = timer.Stop();
  double second = timer.Stop();
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(h.Count(), 1u);  // destructor must not double-record.
}

// ---------------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------------

TEST(ObsTelemetryTest, DisabledByDefault) {
  EXPECT_FALSE(TelemetryEnabled());
  EXPECT_EQ(GetTelemetrySink(), nullptr);
  // Emitting with no sink is a no-op, not a crash.
  EADRL_TELEMETRY("noop", {"value", 1.0});
}

TEST(ObsTelemetryTest, SetAndUnsetSink) {
  CollectingSink sink;
  SetTelemetrySink(&sink);
  EXPECT_TRUE(TelemetryEnabled());
  EADRL_TELEMETRY("ping", {"n", size_t{7}});
  SetTelemetrySink(nullptr);
  EXPECT_FALSE(TelemetryEnabled());
  EADRL_TELEMETRY("dropped", {"n", 1});

  std::vector<TelemetryEvent> events = sink.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].kind, "ping");
  ASSERT_EQ(events[0].fields.size(), 1u);
  EXPECT_EQ(events[0].fields[0].inum, 7);
  EXPECT_GT(events[0].unix_seconds, 0.0);
}

TEST(ObsTelemetryTest, JsonLinesShapeParses) {
  std::ostringstream out;
  JsonLinesSink sink(&out);
  SetTelemetrySink(&sink);
  EADRL_TELEMETRY("episode", {"episode", 3}, {"reward", 0.75},
                  {"name", "EA-DRL"});
  EADRL_TELEMETRY("weird", {"text", "quote\" slash\\ line\nend"},
                  {"nan", std::nan("")});
  SetTelemetrySink(nullptr);

  std::istringstream in(out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::map<std::string, std::string> obj;
    ASSERT_TRUE(ParseFlatJsonObject(line, &obj)) << line;
    EXPECT_EQ(obj.count("ts"), 1u);
    EXPECT_EQ(obj.count("unix"), 1u);
    EXPECT_EQ(obj.count("kind"), 1u);
  }
  EXPECT_EQ(lines, 2u);

  // Golden check of one serialized event (fixed timestamp).
  TelemetryEvent event;
  event.kind = "golden";
  event.unix_seconds = 0.5;
  event.fields.emplace_back("a", 1);
  event.fields.emplace_back("b", "x");
  EXPECT_EQ(EventToJson(event),
            "{\"ts\":\"1970-01-01T00:00:00.500Z\",\"unix\":0.5,"
            "\"kind\":\"golden\",\"a\":1,\"b\":\"x\"}");
}

TEST(ObsTelemetryTest, Iso8601Formatting) {
  EXPECT_EQ(FormatIso8601Utc(0.0), "1970-01-01T00:00:00.000Z");
  EXPECT_EQ(FormatIso8601Utc(1e9 + 0.25), "2001-09-09T01:46:40.250Z");
}

TEST(ObsTelemetryScopeTest, AmbientFieldsAppendedWhileScopeAlive) {
  CollectingSink sink;
  SetTelemetrySink(&sink);
  {
    TelemetryScope outer("dataset", "bike");
    EADRL_TELEMETRY("one", {"n", 1});
    {
      TelemetryScope inner("run", "a");
      EADRL_TELEMETRY("two", {"n", 2});
    }
    EADRL_TELEMETRY("three", {"n", 3});
  }
  EADRL_TELEMETRY("four", {"n", 4});
  SetTelemetrySink(nullptr);

  std::vector<TelemetryEvent> events = sink.TakeEvents();
  ASSERT_EQ(events.size(), 4u);
  // Context fields are appended after the event's own fields, outer first.
  ASSERT_EQ(events[0].fields.size(), 2u);
  EXPECT_STREQ(events[0].fields[1].key, "dataset");
  EXPECT_EQ(events[0].fields[1].str, "bike");
  ASSERT_EQ(events[1].fields.size(), 3u);
  EXPECT_STREQ(events[1].fields[1].key, "dataset");
  EXPECT_STREQ(events[1].fields[2].key, "run");
  EXPECT_EQ(events[1].fields[2].str, "a");
  ASSERT_EQ(events[2].fields.size(), 2u);
  ASSERT_EQ(events[3].fields.size(), 1u);
}

TEST(ObsRegistryTest, JsonSnapshotEscapesAwkwardNamesAndLabels) {
  MetricRegistry reg;
  reg.GetCounter("hits\"quoted\"\nline", {{"path", "a,b\"c\\d"}})->Inc(2);

  // The whole snapshot must stay parseable JSON despite the hostile name.
  auto parsed = json::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* family = parsed->Find("hits\"quoted\"\nline");
  ASSERT_NE(family, nullptr);
  ASSERT_TRUE(family->is_object());
  ASSERT_EQ(family->AsObject().size(), 1u);
  // The signature key round-trips the raw label value.
  EXPECT_NE(family->AsObject()[0].first.find("a,b\"c\\d"), std::string::npos);
  EXPECT_DOUBLE_EQ(
      family->AsObject()[0].second.Find("value")->AsNumber(), 2.0);
}

TEST(ObsRegistryTest, PrometheusExposition) {
  MetricRegistry reg;
  reg.GetCounter("weird.name-total")->Inc(3);
  reg.GetGauge("temp", {{"room", "a\"b\\c\nd"}})->Set(21.5);
  // Binary-exact bounds and observations keep the %.17g goldens stable.
  Histogram* hist = reg.GetHistogram("lat_seconds", {0.125, 1.0});
  hist->Observe(0.0625);
  hist->Observe(0.5);
  hist->Observe(6.0);

  const std::string prom = reg.ToPrometheus();
  // Metric names are sanitized to the exposition charset.
  EXPECT_NE(prom.find("# TYPE weird_name_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("weird_name_total 3\n"), std::string::npos);
  // Label values escape backslash, quote and newline.
  EXPECT_NE(prom.find("temp{room=\"a\\\"b\\\\c\\nd\"} 21.5\n"),
            std::string::npos)
      << prom;
  // Histogram buckets are cumulative and end in +Inf; _sum/_count follow.
  EXPECT_NE(prom.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"0.125\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_sum 6.5625\n"), std::string::npos);
}

TEST(ObsTelemetryTest, FileSinkFlushLeavesNoTruncatedFinalLine) {
  const std::string path =
      ::testing::TempDir() + "/eadrl_obs_flush_test.jsonl";
  std::remove(path.c_str());
  {
    JsonLinesSink sink(path);
    ASSERT_TRUE(sink.ok());
    SetTelemetrySink(&sink);
    EADRL_TELEMETRY("first", {"n", 1});
    EADRL_TELEMETRY("second", {"text", "line\nbreak"});
    SetTelemetrySink(nullptr);
    sink.Flush();

    // After Flush the file must contain only complete, parseable lines —
    // a consumer tailing the file never sees a truncated record.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream contents;
    contents << in.rdbuf();
    const std::string text = contents.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream lines(text);
    std::string line;
    size_t n = 0;
    while (std::getline(lines, line)) {
      ++n;
      std::map<std::string, std::string> obj;
      EXPECT_TRUE(ParseFlatJsonObject(line, &obj)) << line;
    }
    EXPECT_EQ(n, 2u);
  }
  std::remove(path.c_str());
}

TEST(ObsTelemetryScopeTest, ScopeUnwindsOnException) {
  ASSERT_TRUE(TelemetryContext().empty());
  try {
    TelemetryScope scope("dataset", "bike");
    ASSERT_EQ(TelemetryContext().size(), 1u);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // Stack unwinding must pop the scope's ambient field.
  EXPECT_TRUE(TelemetryContext().empty());
}

TEST(ObsTelemetryScopeTest, ScopedContextUnwindsOnException) {
  TelemetryScope outer("dataset", "taxi");
  try {
    ScopedTelemetryContext override_ctx(
        {TelemetryField{"run", "worker"}});
    ASSERT_EQ(TelemetryContext().size(), 1u);
    EXPECT_EQ(TelemetryContext()[0].str, "worker");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The override is rolled back to the ambient context it replaced.
  ASSERT_EQ(TelemetryContext().size(), 1u);
  EXPECT_EQ(TelemetryContext()[0].str, "taxi");
}

TEST(ObsTelemetryScopeTest, SnapshotAndOverrideRestorePreviousContext) {
  TelemetryScope scope("dataset", "taxi");
  std::vector<TelemetryField> snapshot = TelemetryContext();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_STREQ(snapshot[0].key, "dataset");
  EXPECT_EQ(snapshot[0].str, "taxi");

  {
    ScopedTelemetryContext override_ctx({});
    EXPECT_TRUE(TelemetryContext().empty());
  }
  // The previous ambient context is restored when the override dies.
  ASSERT_EQ(TelemetryContext().size(), 1u);
  EXPECT_EQ(TelemetryContext()[0].str, "taxi");
}

}  // namespace
}  // namespace eadrl::obs
