// MetricsExporter (src/obs/exporter.h): atomic-rename snapshot writes (no
// .tmp residue, always a complete document), format selection by path,
// section rendering in both formats, a full-precision timestamp, the
// on-export hook, periodic background exports, and the final flush on Stop.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace eadrl::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

TEST(ExporterTest, FormatForPath) {
  EXPECT_EQ(MetricsExporter::FormatForPath("out.json"),
            MetricsExporter::Format::kJson);
  EXPECT_EQ(MetricsExporter::FormatForPath("out.prom"),
            MetricsExporter::Format::kPrometheus);
  EXPECT_EQ(MetricsExporter::FormatForPath("metrics"),
            MetricsExporter::Format::kPrometheus);
}

TEST(ExporterTest, ExportOnceWritesAtomicallyNoTmpResidue) {
  const std::string path = ::testing::TempDir() + "/exporter_once.json";
  std::remove(path.c_str());
  MetricRegistry registry;
  registry.GetCounter("exporter_test_total")->Inc(7.0);

  MetricsExporter::Options options;
  options.path = path;
  options.registry = &registry;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.ExportOnce());
  EXPECT_EQ(exporter.exports(), 1u);
  EXPECT_EQ(exporter.failures(), 0u);
  EXPECT_FALSE(FileExists(path + ".tmp"));  // renamed away, never left.

  auto parsed = json::Parse(ReadFile(path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& root = parsed.value();
  ASSERT_NE(root.Find("schema"), nullptr);
  EXPECT_EQ(root.Find("schema")->AsString().rfind("eadrl-metrics-", 0), 0u);
  ASSERT_NE(root.Find("sequence"), nullptr);
  ASSERT_NE(root.Find("unix_seconds"), nullptr);
  const json::Value* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("exporter_test_total"), nullptr);
  std::remove(path.c_str());
}

TEST(ExporterTest, SectionsRenderInBothFormats) {
  MetricsExporter::Options options;
  options.path = "unused.prom";
  MetricsExporter exporter(options);
  exporter.AddSection(
      {"demo", [] { return std::string("{\"answer\":42}"); },
       [](std::string* out) {
         out->append("# TYPE demo_answer gauge\ndemo_answer 42\n");
       }});

  const std::string js =
      exporter.RenderSnapshot(MetricsExporter::Format::kJson);
  auto parsed = json::Parse(js);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* sections = parsed.value().Find("sections");
  ASSERT_NE(sections, nullptr);
  const json::Value* demo = sections->Find("demo");
  ASSERT_NE(demo, nullptr);
  ASSERT_NE(demo->Find("answer"), nullptr);
  EXPECT_DOUBLE_EQ(demo->Find("answer")->AsNumber(), 42.0);

  const std::string prom =
      exporter.RenderSnapshot(MetricsExporter::Format::kPrometheus);
  EXPECT_NE(prom.find("demo_answer 42"), std::string::npos);
}

TEST(ExporterTest, JsonTimestampKeepsSubsecondResolution) {
  MetricsExporter::Options options;
  options.path = "unused.json";
  MetricsExporter exporter(options);
  exporter.AddSection({"demo", [] { return std::string("{}"); }, nullptr});

  const double before = UnixNowSeconds();
  const std::string js =
      exporter.RenderSnapshot(MetricsExporter::Format::kJson);
  const double after = UnixNowSeconds();
  auto parsed = json::Parse(js);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* unix_seconds = parsed.value().Find("unix_seconds");
  ASSERT_NE(unix_seconds, nullptr);
  // Six significant digits (1.79229e+09) would be hours off.
  EXPECT_GE(unix_seconds->AsNumber(), before - 1.0) << js;
  EXPECT_LE(unix_seconds->AsNumber(), after + 1.0) << js;
}

TEST(ExporterTest, OnExportHookRunsPerExport) {
  const std::string path = ::testing::TempDir() + "/exporter_hook.prom";
  MetricsExporter::Options options;
  options.path = path;
  MetricsExporter exporter(options);
  int hook_runs = 0;
  exporter.SetOnExport([&hook_runs] { ++hook_runs; });
  exporter.AddSection({"s", nullptr, [](std::string* out) {
                         out->append("# TYPE s gauge\ns 1\n");
                       }});
  ASSERT_TRUE(exporter.ExportOnce());
  ASSERT_TRUE(exporter.ExportOnce());
  EXPECT_EQ(hook_runs, 2);
  std::remove(path.c_str());
}

TEST(ExporterTest, BackgroundThreadExportsPeriodicallyAndFlushesOnStop) {
  const std::string path = ::testing::TempDir() + "/exporter_periodic.json";
  std::remove(path.c_str());
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("periodic_total");

  MetricsExporter::Options options;
  options.path = path;
  options.interval_seconds = 0.02;
  options.registry = &registry;
  MetricsExporter exporter(options);
  exporter.Start();
  // Let several intervals elapse while the metric moves.
  for (int i = 0; i < 10; ++i) {
    counter->Inc();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  exporter.Stop();
  const uint64_t exports = exporter.exports();
  EXPECT_GE(exports, 2u);  // several ticks plus the final flush.
  EXPECT_EQ(exporter.failures(), 0u);
  // Stop is idempotent and the final document reflects final totals.
  exporter.Stop();
  EXPECT_EQ(exporter.exports(), exports);

  auto parsed = json::Parse(ReadFile(path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* family = metrics->Find("periodic_total");
  ASSERT_NE(family, nullptr);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(ExporterTest, UnwritablePathCountsFailures) {
  MetricsExporter::Options options;
  options.path = "/nonexistent-dir-for-sure/metrics.prom";
  MetricsExporter exporter(options);
  exporter.AddSection({"s", nullptr, [](std::string* out) {
                         out->append("# TYPE s gauge\ns 1\n");
                       }});
  EXPECT_FALSE(exporter.ExportOnce());
  EXPECT_EQ(exporter.failures(), 1u);
  EXPECT_EQ(exporter.exports(), 0u);
}

}  // namespace
}  // namespace eadrl::obs
