// Hammers the live-observability hot paths from thread-pool workers:
// windowed counters/histograms rotating on tiny real-clock ticks while being
// observed and snapshotted, the labeled drill-down family under label churn,
// SLO record/evaluate from many threads, and a running MetricsExporter
// racing the writers. Cumulative totals are exact by contract and asserted;
// windowed totals are racy by design (bounded one-observation skew per
// rotation) and only sanity-bounded. The real teeth are under
// tools/check.sh's tsan stage, where any data race here becomes a report.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/cardinality.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "par/parallel.h"
#include "par/thread_pool.h"

namespace eadrl::obs {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kTasks = 64;
constexpr size_t kOpsPerTask = 400;

/// Real monotonic clock with ~0.5 ms ticks: rotations happen constantly
/// while workers observe, so this run exercises the observe/rotate race.
WindowOptions TinyTickWindow() {
  WindowOptions options;
  options.buckets = 4;
  options.tick_seconds = 0.0005;
  return options;
}

TEST(WindowRaceTest, WindowedCounterCumulativeExactUnderContention) {
  par::ThreadPool pool(kThreads);
  Counter counter(TinyTickWindow());
  par::ParallelFor(
      0, kTasks,
      [&](size_t) {
        for (size_t i = 0; i < kOpsPerTask; ++i) {
          counter.Inc();
          if (i % 64 == 0) (void)counter.Snapshot();
        }
      },
      {1, &pool});
  const CounterSnapshot snap = counter.Snapshot();
  EXPECT_EQ(counter.Value(), static_cast<double>(kTasks * kOpsPerTask));
  // Windowed total can lag cumulative (old sub-windows expired) but a slot
  // can never invent observations beyond the bounded rotation skew.
  EXPECT_LE(snap.total, counter.Value() + static_cast<double>(kThreads));
}

TEST(WindowRaceTest, WindowedHistogramCumulativeExactUnderContention) {
  par::ThreadPool pool(kThreads);
  Histogram hist(TinyTickWindow(), {});
  par::ParallelFor(
      0, kTasks,
      [&](size_t task) {
        for (size_t i = 0; i < kOpsPerTask; ++i) {
          hist.Observe(1e-5 * static_cast<double>(task + 1));
          if (i % 64 == 0) (void)hist.Snapshot();
        }
      },
      {1, &pool});
  EXPECT_EQ(hist.Count(), kTasks * kOpsPerTask);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_LE(snap.count, kTasks * kOpsPerTask + kThreads);
}

TEST(WindowRaceTest, LabeledFamilyBoundedUnderConcurrentChurn) {
  par::ThreadPool pool(kThreads);
  LabeledWindowedFamilyOptions options;
  options.name = "race_family";
  options.label_key = "tenant";
  options.max_labels = 16;
  options.window = TinyTickWindow();
  LabeledWindowedFamily family(options);
  par::ParallelFor(
      0, kTasks,
      [&](size_t task) {
        for (size_t i = 0; i < kOpsPerTask; ++i) {
          // A mix of stable labels (always tracked) and churning one-shot
          // labels (drive the overflow/eviction paths).
          family.Observe("stable-" + std::to_string(task % 8), 0.001);
          if (i % 16 == 0) {
            family.Observe(
                "churn-" + std::to_string(task * kOpsPerTask + i), 0.001);
          }
          if (i % 128 == 0) (void)family.Snapshot(4);
        }
      },
      {1, &pool});
  EXPECT_LE(family.TrackedLabels(), 16u);
}

TEST(WindowRaceTest, SloRecordEvaluateFromManyThreads) {
  par::ThreadPool pool(kThreads);
  SloTrackerOptions options;
  options.objectives.push_back({"latency", 0.01, 0.99});
  options.objectives.push_back({"availability", 0.0, 0.999});
  options.long_window = TinyTickWindow();
  options.short_window = TinyTickWindow();
  SloTracker tracker(options);
  par::ParallelFor(
      0, kTasks,
      [&](size_t task) {
        for (size_t i = 0; i < kOpsPerTask; ++i) {
          tracker.RecordLatency(0, (i % 3 == 0) ? 0.5 : 0.001);
          tracker.Record(1, i % 7 != 0);
          if (i % 32 == 0) tracker.Evaluate();
        }
        (void)task;
      },
      {1, &pool});
  tracker.Evaluate();
  const SloReport report = tracker.Report();
  EXPECT_EQ(report.objectives[0].good + report.objectives[0].bad,
            kTasks * kOpsPerTask);
  EXPECT_EQ(report.objectives[1].good + report.objectives[1].bad,
            kTasks * kOpsPerTask);
}

TEST(WindowRaceTest, ExporterRacesLiveWriters) {
  const std::string path = ::testing::TempDir() + "/window_race_metrics.prom";
  par::ThreadPool pool(kThreads);
  Counter counter(TinyTickWindow());
  Histogram hist(TinyTickWindow(), {});
  LabeledWindowedFamilyOptions fam_options;
  fam_options.name = "race_export_family";
  fam_options.max_labels = 8;
  fam_options.window = TinyTickWindow();
  LabeledWindowedFamily family(fam_options);

  MetricsExporter::Options options;
  options.path = path;
  options.interval_seconds = 0.002;  // export as fast as possible.
  MetricsExporter exporter(options);
  exporter.AddSection({"race", nullptr, [&](std::string* out) {
                         AppendPrometheusType(out, "race_rate", "gauge");
                         AppendPrometheusSample(out, "race_rate", {},
                                                counter.Snapshot().Rate());
                         AppendPrometheusType(out, "race_p99", "gauge");
                         AppendPrometheusSample(
                             out, "race_p99", {},
                             hist.Snapshot().Quantile(0.99));
                         family.AppendPrometheus(out, 4);
                       }});
  exporter.Start();
  par::ParallelFor(
      0, kTasks,
      [&](size_t task) {
        for (size_t i = 0; i < kOpsPerTask; ++i) {
          counter.Inc();
          hist.Observe(1e-4);
          family.Observe("t-" + std::to_string(task % 12), 1e-4);
        }
      },
      {1, &pool});
  exporter.Stop();
  EXPECT_GE(exporter.exports(), 1u);
  EXPECT_EQ(exporter.failures(), 0u);
  EXPECT_EQ(counter.Value(), static_cast<double>(kTasks * kOpsPerTask));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eadrl::obs
