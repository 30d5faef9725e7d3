// Hammers the obs hot paths (Counter, Gauge, Histogram, MetricRegistry,
// span attributes) from thread-pool workers. The assertions check exact
// final values where the API promises them; the real teeth are under
// tools/check.sh (EADRL_SANITIZE=thread), where any data race in these
// paths becomes a TSan report.

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "par/thread_pool.h"

namespace eadrl::obs {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kOpsPerTask = 500;
constexpr size_t kTasks = 64;

TEST(ParObsRaceTest, CounterUnderContentionIsExact) {
  par::ThreadPool pool(kThreads);
  Counter counter;
  par::ParallelFor(
      0, kTasks,
      [&](size_t) {
        for (size_t i = 0; i < kOpsPerTask; ++i) counter.Inc();
      },
      {1, &pool});
  EXPECT_EQ(counter.Value(), static_cast<double>(kTasks * kOpsPerTask));
}

TEST(ParObsRaceTest, GaugeAddUnderContentionIsExact) {
  par::ThreadPool pool(kThreads);
  Gauge gauge;
  par::ParallelFor(
      0, kTasks,
      [&](size_t) {
        for (size_t i = 0; i < kOpsPerTask; ++i) gauge.Add(1.0);
      },
      {1, &pool});
  EXPECT_EQ(gauge.Value(), static_cast<double>(kTasks * kOpsPerTask));
}

TEST(ParObsRaceTest, HistogramUnderContentionKeepsExactCountSumMinMax) {
  par::ThreadPool pool(kThreads);
  Histogram hist(Histogram::LinearBounds(1.0, 1.0, 8));
  // Task t observes values t+1 .. t+kOpsPerTask; every value is an integer
  // so the sum is exact in double arithmetic.
  par::ParallelFor(
      0, kTasks,
      [&](size_t t) {
        for (size_t i = 1; i <= kOpsPerTask; ++i) {
          hist.Observe(static_cast<double>(t + i));
        }
      },
      {1, &pool});

  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kTasks * kOpsPerTask);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, static_cast<double>(kTasks - 1 + kOpsPerTask));
  double expected_sum = 0.0;
  for (size_t t = 0; t < kTasks; ++t) {
    for (size_t i = 1; i <= kOpsPerTask; ++i) {
      expected_sum += static_cast<double>(t + i);
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ParObsRaceTest, FirstObservationRaceCannotLoseMinOrMax) {
  // Regression for the seeding race: when many threads race the very first
  // Observe, the +-inf sentinel scheme must still end with the global
  // extremes, never a later observation clobbering a tighter one.
  for (int round = 0; round < 20; ++round) {
    par::ThreadPool pool(kThreads);
    Histogram hist(Histogram::DefaultLatencyBounds());
    par::ParallelFor(
        0, kTasks,
        [&](size_t t) { hist.Observe(static_cast<double>(t)); }, {1, &pool});
    HistogramSnapshot snap = hist.Snapshot();
    EXPECT_EQ(snap.min, 0.0) << "round " << round;
    EXPECT_EQ(snap.max, static_cast<double>(kTasks - 1)) << "round " << round;
    EXPECT_EQ(snap.count, kTasks);
  }
}

TEST(ParObsRaceTest, RegistryLookupsFromWorkersReturnTheSameMetric) {
  par::ThreadPool pool(kThreads);
  MetricRegistry registry;
  std::vector<Counter*> seen(kTasks, nullptr);
  par::ParallelFor(
      0, kTasks,
      [&](size_t t) {
        Counter* c = registry.GetCounter("race_total", {{"kind", "test"}});
        c->Inc();
        seen[t] = c;
        // Mixed-type traffic on other families at the same time.
        registry.GetGauge("race_gauge")->Set(static_cast<double>(t));
        registry.GetHistogram("race_seconds")
            ->Observe(static_cast<double>(t) * 1e-3);
      },
      {1, &pool});
  for (size_t t = 1; t < kTasks; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), static_cast<double>(kTasks));
  EXPECT_EQ(registry.GetHistogram("race_seconds")->Count(), kTasks);
  // Serialization racing further writes must not crash or corrupt.
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("race_total"), std::string::npos);
}

TEST(ParObsRaceTest, SpansFromWorkersRecordEveryAttribute) {
  par::ThreadPool pool(kThreads);
  TraceBuffer buffer;
  SetTraceBuffer(&buffer);
  par::ParallelFor(
      0, kTasks,
      [&](size_t t) {
        Span span("race_span");
        span.SetAttr("task", t);
        span.SetAttr("ok", true);
      },
      {1, &pool});
  SetTraceBuffer(nullptr);
  std::vector<bool> seen(kTasks, false);
  for (const FinishedSpan& s : buffer.Snapshot()) {
    if (std::strcmp(s.name, "race_span") != 0) continue;
    ASSERT_EQ(s.attrs.size(), 2u);
    const size_t task = static_cast<size_t>(s.attrs[0].inum);
    ASSERT_LT(task, kTasks);
    EXPECT_FALSE(seen[task]) << "task recorded twice";
    seen[task] = true;
  }
  for (size_t t = 0; t < kTasks; ++t) EXPECT_TRUE(seen[t]) << t;
}

TEST(ParObsRaceTest, SpansReachTheSubmittersSpanAcrossWorkers) {
  // A span opened on a pool worker -- including a doubly-nested task -- must
  // reach the submitter's span through its parent links, so the work of
  // concurrent datasets stays attributable to its dataset_run.
  TraceBuffer buffer;
  SetTraceBuffer(&buffer);
  uint64_t root_id = 0;
  {
    // A worker records its par_task span after the task's completion is
    // visible to the waiter; destroying the pool joins the workers, so
    // every span has been recorded before the buffer is uninstalled.
    par::ThreadPool pool(kThreads);
    Span root("dataset_run");
    root.SetAttr("dataset", "ds1");
    root_id = root.span_id();
    par::ParallelFor(
        0, 8,
        [&](size_t outer) {
          par::ParallelFor(
              0, 4,
              [&](size_t inner) {
                Span span("ctx_span");
                span.SetAttr("outer", outer);
                span.SetAttr("inner", inner);
              },
              {1, &pool});
        },
        {1, &pool});
  }
  SetTraceBuffer(nullptr);
  const std::vector<FinishedSpan> spans = buffer.Snapshot();
  std::map<uint64_t, const FinishedSpan*> by_id;
  for (const FinishedSpan& s : spans) by_id.emplace(s.span_id, &s);
  size_t ctx_spans = 0;
  for (const FinishedSpan& s : spans) {
    if (std::strcmp(s.name, "ctx_span") != 0) continue;
    ++ctx_spans;
    uint64_t parent = s.parent_id;
    while (parent != 0 && parent != root_id) {
      ASSERT_EQ(by_id.count(parent), 1u) << "dangling parent";
      parent = by_id.at(parent)->parent_id;
    }
    EXPECT_EQ(parent, root_id);
  }
  EXPECT_EQ(ctx_spans, 32u);
}

TEST(ParObsRaceTest, PoolOwnMetricsStayConsistentUnderLoad) {
  // The pool instruments itself; drive it hard and check the self-metrics
  // agree with the work actually done.
  Counter* submitted =
      MetricRegistry::Default().GetCounter("eadrl_par_tasks_submitted_total");
  const double before = submitted->Value();
  std::atomic<size_t> ran{0};
  {
    par::ThreadPool pool(kThreads);
    par::ParallelFor(0, kTasks, [&](size_t) { ran.fetch_add(1); },
                     {1, &pool});
  }
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(submitted->Value() - before, static_cast<double>(kTasks));
  // The depth gauge is last-write-wins: a worker that computed its depth
  // before the final decrement may publish after it, so only bound it.
  Gauge* depth = MetricRegistry::Default().GetGauge("eadrl_par_queue_depth");
  EXPECT_GE(depth->Value(), 0.0);
  EXPECT_LE(depth->Value(), static_cast<double>(kTasks));
}

}  // namespace
}  // namespace eadrl::obs
