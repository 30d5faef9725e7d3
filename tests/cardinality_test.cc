// Labeled drill-down cardinality guard (src/obs/cardinality.h): the label
// set must stay hard-bounded under adversarial churn — fresh tails reject
// new labels into `overflow`, stale tails are displaced (`evictions`), the
// top-K snapshot orders by windowed activity, and caller-controlled label
// values cannot forge series in the exposition.

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/cardinality.h"

namespace eadrl::obs {
namespace {

std::atomic<uint64_t> g_now_ns{0};

uint64_t FakeNow() { return g_now_ns.load(std::memory_order_relaxed); }

void SetNowSeconds(double seconds) {
  g_now_ns.store(static_cast<uint64_t>(seconds * 1e9),
                 std::memory_order_relaxed);
}

LabeledWindowedFamilyOptions TestOptions(size_t max_labels) {
  LabeledWindowedFamilyOptions options;
  options.name = "test_family_seconds";
  options.label_key = "tenant";
  options.max_labels = max_labels;
  options.window.buckets = 4;
  options.window.tick_seconds = 1.0;
  options.window.now_ns = &FakeNow;  // stale span = 4 s on the fake clock.
  return options;
}

TEST(CardinalityTest, FreshTailOverflowsInsteadOfEvicting) {
  SetNowSeconds(0.0);
  LabeledWindowedFamily family(TestOptions(4));
  for (const char* label : {"a", "b", "c", "d"}) family.Observe(label, 0.01);
  EXPECT_EQ(family.TrackedLabels(), 4u);

  // At the cap with every slot fresh: a new label must NOT tear down an
  // active tenant's window — it is counted and dropped.
  family.Observe("e", 0.01);
  EXPECT_EQ(family.TrackedLabels(), 4u);
  EXPECT_EQ(family.Overflow(), 1u);
  EXPECT_EQ(family.Evictions(), 0u);
  const LabeledWindowedFamilySnapshot snap = family.Snapshot();
  for (const LabeledWindowSnapshot& row : snap.top) {
    EXPECT_NE(row.label, "e");
  }
}

TEST(CardinalityTest, StaleTailIsDisplaced) {
  SetNowSeconds(0.0);
  LabeledWindowedFamily family(TestOptions(2));
  family.Observe("old", 0.01);
  family.Observe("warm", 0.01);

  // 10 s later both are stale (> the 4 s window span); "warm" gets a fresh
  // observation, so the LRU tail is "old" — the new label displaces it.
  SetNowSeconds(10.0);
  family.Observe("warm", 0.02);
  family.Observe("fresh", 0.03);
  EXPECT_EQ(family.TrackedLabels(), 2u);
  EXPECT_EQ(family.Evictions(), 1u);
  EXPECT_EQ(family.Overflow(), 0u);

  const LabeledWindowedFamilySnapshot snap = family.Snapshot();
  ASSERT_EQ(snap.top.size(), 2u);
  for (const LabeledWindowSnapshot& row : snap.top) {
    EXPECT_NE(row.label, "old");
  }
}

TEST(CardinalityTest, TopKOrdersByWindowedActivity) {
  SetNowSeconds(0.0);
  LabeledWindowedFamily family(TestOptions(8));
  for (int i = 0; i < 5; ++i) family.Observe("busy", 0.01);
  for (int i = 0; i < 3; ++i) family.Observe("medium", 0.01);
  family.Observe("quiet", 0.01);

  const LabeledWindowedFamilySnapshot all = family.Snapshot();
  ASSERT_EQ(all.top.size(), 3u);
  EXPECT_EQ(all.top[0].label, "busy");
  EXPECT_EQ(all.top[1].label, "medium");
  EXPECT_EQ(all.top[2].label, "quiet");
  EXPECT_EQ(all.top[0].window.count, 5u);
  EXPECT_EQ(all.top[0].cumulative_count, 5u);

  const LabeledWindowedFamilySnapshot top2 = family.Snapshot(2);
  ASSERT_EQ(top2.top.size(), 2u);
  EXPECT_EQ(top2.tracked_labels, 3u);  // guard counters cover all slots.
  EXPECT_EQ(top2.top[0].label, "busy");
}

TEST(CardinalityTest, BoundedUnderTenThousandLabelChurn) {
  SetNowSeconds(0.0);
  const size_t kCap = 8;
  LabeledWindowedFamily family(TestOptions(kCap));
  for (int i = 0; i < 10000; ++i) {
    // The clock creeps forward ~1 ms per distinct label, so slots go stale
    // in waves: the run exercises both the overflow and the eviction path.
    SetNowSeconds(0.001 * i);
    family.Observe("tenant-" + std::to_string(i), 0.01);
  }
  EXPECT_LE(family.TrackedLabels(), kCap);
  EXPECT_GT(family.Overflow(), 0u);
  EXPECT_GT(family.Evictions(), 0u);
  // Every observation either claimed one of the kCap seats, displaced a
  // stale slot, or overflowed — nothing else can happen at the cap.
  EXPECT_EQ(kCap + family.Evictions() + family.Overflow(), 10000u);
}

TEST(CardinalityTest, Renderings) {
  SetNowSeconds(0.0);
  LabeledWindowedFamily family(TestOptions(4));
  family.Observe("a", 0.010);
  family.Observe("a", 0.020);
  family.Observe("b", 0.030);

  const std::string js = family.ToJsonValue();
  auto parsed = json::Parse(js);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("tracked"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("tracked")->AsNumber(), 2.0);
  const json::Value* top = root.Find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_TRUE(top->is_array());
  ASSERT_EQ(top->AsArray().size(), 2u);

  std::string prom;
  family.AppendPrometheus(&prom);
  EXPECT_NE(prom.find("test_family_seconds_rate"), std::string::npos);
  EXPECT_NE(prom.find("test_family_seconds_p99"), std::string::npos);
  EXPECT_NE(prom.find("tenant=\"a\""), std::string::npos);
  EXPECT_NE(prom.find("test_family_seconds_overflow_total"),
            std::string::npos);
}

TEST(CardinalityTest, PrometheusEscapesHostileLabelValues) {
  SetNowSeconds(0.0);
  LabeledWindowedFamily family(TestOptions(4));
  // Tenant ids are caller-controlled. Written raw, this one would close the
  // label block and forge an `evil_metric` series on a line of its own.
  family.Observe("acme\"} 1\nevil_metric{x=\"", 0.01);

  std::string prom;
  family.AppendPrometheus(&prom);
  EXPECT_NE(prom.find(R"({tenant="acme\"} 1\nevil_metric{x=\""})"),
            std::string::npos)
      << prom;
  size_t samples = 0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NE(line.rfind("evil_metric", 0), 0u) << line;
    if (!line.empty() && line[0] != '#') ++samples;
  }
  // _rate and _p99 for the one tenant, then _tracked, _overflow_total and
  // _evictions_total.
  EXPECT_EQ(samples, 5u) << prom;
}

}  // namespace
}  // namespace eadrl::obs
