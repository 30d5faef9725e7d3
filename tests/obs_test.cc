#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eadrl::obs {
namespace {

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
  // Spot-check the contents; the document is parsed in full by
  // JsonSnapshotEscapesAwkwardNamesAndLabels below.
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
// Span attributes: the one push channel. An attribute is kept only by an
// armed span, and every attribute reaches the trace export.
// ---------------------------------------------------------------------------

const SpanAttr* FindAttr(const FinishedSpan& span, const char* key) {
  for (const SpanAttr& attr : span.attrs) {
    if (std::string(attr.key) == key) return &attr;
  }
  return nullptr;
}

TEST(ObsSpanAttrTest, KeptOnlyWhileABufferIsInstalled) {
  EXPECT_FALSE(TracingEnabled());
  {
    // No buffer: the span is unarmed and SetAttr is a no-op, not a crash.
    Span span("ping");
    EXPECT_FALSE(span.armed());
    span.SetAttr("value", 1.0);
  }
  TraceBuffer buffer;
  SetTraceBuffer(&buffer);
  {
    Span span("ping");
    EXPECT_TRUE(span.armed());
    span.SetAttr("n", size_t{7});
  }
  SetTraceBuffer(nullptr);
  {
    Span span("dropped");
    span.SetAttr("n", 1);
  }

  const std::vector<FinishedSpan> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "ping");
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_STREQ(spans[0].attrs[0].key, "n");
  EXPECT_EQ(spans[0].attrs[0].type, SpanAttr::Type::kInt);
  EXPECT_EQ(spans[0].attrs[0].inum, 7);
}

TEST(ObsSpanAttrTest, AwkwardValuesExportAsValidJson) {
  TraceBuffer buffer;
  SetTraceBuffer(&buffer);
  {
    Span span("weird");
    span.SetAttr("text", "quote\" slash\\ line\nend");
    span.SetAttr("nan", std::numeric_limits<double>::quiet_NaN());
    span.SetAttr("ok", true);
  }
  SetTraceBuffer(nullptr);
  const std::vector<FinishedSpan> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_NE(FindAttr(spans[0], "ok"), nullptr);
  EXPECT_EQ(FindAttr(spans[0], "ok")->inum, 1);

  auto parsed = json::Parse(buffer.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* args = nullptr;
  for (const json::Value& event : parsed->Find("traceEvents")->AsArray()) {
    if (event.Find("ph")->AsString() == "X") args = event.Find("args");
  }
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("text")->AsString(), "quote\" slash\\ line\nend");
  // A non-finite attribute exports as null rather than breaking the JSON.
  ASSERT_NE(args->Find("nan"), nullptr);
  EXPECT_TRUE(args->Find("nan")->is_null());
  EXPECT_DOUBLE_EQ(args->Find("ok")->AsNumber(), 1.0);
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

}  // namespace
}  // namespace eadrl::obs
