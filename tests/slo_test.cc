// SLO tracking (src/obs/slo.h): burn-rate math, multi-window breach/recover
// edges driven by an injected fake clock, error-budget accounting, latency
// vs ratio objectives, and the edge counts' contract (exactly one count per
// edge, exported in both renderings).

#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/slo.h"

namespace eadrl::obs {
namespace {

std::atomic<uint64_t> g_now_ns{0};

uint64_t FakeNow() { return g_now_ns.load(std::memory_order_relaxed); }

void SetNowSeconds(double seconds) {
  g_now_ns.store(static_cast<uint64_t>(seconds * 1e9),
                 std::memory_order_relaxed);
}

WindowOptions FakeWindow(size_t buckets, double tick_seconds) {
  WindowOptions options;
  options.buckets = buckets;
  options.tick_seconds = tick_seconds;
  options.now_ns = &FakeNow;
  return options;
}

/// Tracker with one latency objective (50 ms @ 90%) and one ratio objective
/// (99.9% availability); long window 4 s, short window 2 s, both on the fake
/// clock.
SloTrackerOptions TestOptions() {
  SloTrackerOptions options;
  options.objectives.push_back({"latency", 0.05, 0.9});
  options.objectives.push_back({"availability", 0.0, 0.999});
  options.burn_threshold = 2.0;
  options.long_window = FakeWindow(4, 1.0);
  options.short_window = FakeWindow(2, 1.0);
  return options;
}

class SloTest : public ::testing::Test {
 protected:
  void SetUp() override { SetNowSeconds(0.0); }
};

TEST_F(SloTest, NoDataNoBreach) {
  SloTracker tracker(TestOptions());
  tracker.Evaluate();
  const SloReport report = tracker.Report();
  ASSERT_EQ(report.objectives.size(), 2u);
  EXPECT_FALSE(report.AnyBreached());
  EXPECT_EQ(report.TotalBreaches(), 0u);
  EXPECT_DOUBLE_EQ(report.objectives[0].burn_rate_long, 0.0);
  EXPECT_EQ(report.objectives[0].recoveries, 0u);
}

TEST_F(SloTest, BreachFiresOnceAndRecoversWhenWindowsDrain) {
  SloTracker tracker(TestOptions());
  // Every request blows the 50 ms threshold: error rate 1.0 against a 0.1
  // budget is a 10x burn in both windows — well past the 2x threshold.
  for (int i = 0; i < 20; ++i) tracker.RecordLatency(0, 0.2);
  tracker.Evaluate();
  tracker.Evaluate();  // the edge must not re-fire while still breached.

  SloReport report = tracker.Report();
  EXPECT_TRUE(report.objectives[0].breached);
  EXPECT_EQ(report.objectives[0].breaches, 1u);
  EXPECT_GE(report.objectives[0].burn_rate_long, 2.0);
  EXPECT_GE(report.objectives[0].burn_rate_short, 2.0);
  EXPECT_EQ(report.objectives[0].recoveries, 0u);
  // The availability objective saw no traffic and must stay quiet.
  EXPECT_FALSE(report.objectives[1].breached);
  EXPECT_EQ(report.objectives[1].breaches, 0u);
  std::string prom;
  tracker.AppendPrometheus(&prom);
  EXPECT_NE(prom.find("eadrl_slo_breaches_total{objective=\"latency\"} 1\n"),
            std::string::npos)
      << prom;

  // Slide both windows past all recorded outcomes: burn drops to zero and
  // the recover edge fires exactly once.
  SetNowSeconds(30.0);
  tracker.Evaluate();
  tracker.Evaluate();
  report = tracker.Report();
  EXPECT_FALSE(report.objectives[0].breached);
  EXPECT_EQ(report.objectives[0].breaches, 1u);
  EXPECT_EQ(report.objectives[0].recoveries, 1u);
  const std::string js = tracker.ToJsonValue();
  EXPECT_NE(js.find("\"breaches\":1,\"recoveries\":1"), std::string::npos)
      << js;
}

TEST_F(SloTest, ShortWindowGatesTheBreach) {
  // Bad outcomes land only in the long window's older ticks: by the time we
  // evaluate, the short window is clean, so no breach despite a hot long
  // window — the "is it still happening" gate.
  SloTracker tracker(TestOptions());
  for (int i = 0; i < 20; ++i) tracker.RecordLatency(0, 0.2);
  // Advance past the short window (2 s) but stay inside the long (4 s).
  SetNowSeconds(2.5);
  for (int i = 0; i < 5; ++i) tracker.RecordLatency(0, 0.001);
  tracker.Evaluate();
  const SloReport report = tracker.Report();
  EXPECT_FALSE(report.objectives[0].breached);
  EXPECT_GE(report.objectives[0].burn_rate_long, 2.0);
  EXPECT_LT(report.objectives[0].burn_rate_short, 2.0);
  EXPECT_EQ(report.objectives[0].breaches, 0u);
}

TEST_F(SloTest, RatioObjectiveAndBudgetAccounting) {
  SloTrackerOptions options = TestOptions();
  options.objectives[1].target = 0.9;  // budget 0.1 for round numbers.
  SloTracker tracker(options);
  for (int i = 0; i < 5; ++i) tracker.Record(1, true);
  for (int i = 0; i < 5; ++i) tracker.Record(1, false);
  tracker.Evaluate();
  const SloReport report = tracker.Report();
  EXPECT_EQ(report.objectives[1].good, 5u);
  EXPECT_EQ(report.objectives[1].bad, 5u);
  // Error rate 0.5 over budget 0.1: five lifetimes of budget consumed and a
  // 5x burn in both windows.
  EXPECT_NEAR(report.objectives[1].budget_consumed, 5.0, 1e-9);
  EXPECT_NEAR(report.objectives[1].burn_rate_long, 5.0, 1e-9);
  EXPECT_TRUE(report.objectives[1].breached);
}

TEST_F(SloTest, LatencyClassification) {
  SloTracker tracker(TestOptions());
  tracker.RecordLatency(0, 0.01);   // under threshold: good.
  tracker.RecordLatency(0, 0.049);  // still good.
  tracker.RecordLatency(0, 0.2);    // bad.
  const SloReport report = tracker.Report();
  EXPECT_EQ(report.objectives[0].good, 2u);
  EXPECT_EQ(report.objectives[0].bad, 1u);
}

TEST_F(SloTest, HighThresholdNeverFires) {
  SloTrackerOptions options = TestOptions();
  // Budget 0.1, threshold 1000x: an error rate of 100 is impossible, so even
  // an all-bad stream must not page.
  options.burn_threshold = 1000.0;
  SloTracker tracker(options);
  for (int i = 0; i < 50; ++i) tracker.RecordLatency(0, 1.0);
  tracker.Evaluate();
  EXPECT_FALSE(tracker.Report().AnyBreached());
  EXPECT_EQ(tracker.Report().TotalBreaches(), 0u);
}

TEST_F(SloTest, RenderingsNameEveryObjective) {
  SloTracker tracker(TestOptions());
  tracker.RecordLatency(0, 0.2);
  tracker.Record(1, true);
  tracker.Evaluate();

  const std::string js = tracker.ToJsonValue();
  EXPECT_NE(js.find("\"latency\""), std::string::npos);
  EXPECT_NE(js.find("\"availability\""), std::string::npos);

  std::string prom;
  tracker.AppendPrometheus(&prom);
  EXPECT_NE(prom.find("eadrl_slo_burn_rate"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_slo_budget_consumed"), std::string::npos);
  EXPECT_NE(prom.find("objective=\"latency\""), std::string::npos);
}

}  // namespace
}  // namespace eadrl::obs
