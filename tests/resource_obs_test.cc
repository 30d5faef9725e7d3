#include "obs/resource.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "par/thread_pool.h"

namespace eadrl::obs {
namespace {

TEST(SampleResources, ReportsALiveProcess) {
  const ResourceSample sample = SampleResources();
  EXPECT_GT(sample.peak_rss_bytes, 0u);
  EXPECT_GT(sample.current_rss_bytes, 0u);
  // No peak >= current assertion: the kernel's high-water mark (ru_maxrss)
  // is only refreshed at accounting points, so statm's live resident count
  // can briefly exceed it.
  EXPECT_GE(sample.user_cpu_seconds + sample.system_cpu_seconds, 0.0);
}

TEST(SampleResources, PeakRssIsMonotoneUnderDeliberateAllocation) {
  const ResourceSample before = SampleResources();
  // Touch every page so the allocation is actually resident, not just
  // reserved address space.
  constexpr size_t kBytes = 48u << 20;
  std::vector<char> ballast(kBytes);
  for (size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;
  const ResourceSample during = SampleResources();
  EXPECT_GE(during.peak_rss_bytes, before.peak_rss_bytes);
  // The high-water mark must have seen the ballast (minus a generous
  // allowance for pages the process had already peaked at).
  EXPECT_GE(during.peak_rss_bytes, before.current_rss_bytes + kBytes / 2);
  ballast.clear();
  ballast.shrink_to_fit();
  // Monotone even after the memory is returned: it is a high-water mark.
  const ResourceSample after = SampleResources();
  EXPECT_GE(after.peak_rss_bytes, during.peak_rss_bytes);
}

TEST(AllocCounters, ThreadStatsCountEveryReport) {
  const AllocStats before = ThreadAllocStats();
  CountAlloc(100);
  CountAlloc(28);
  const AllocStats after = ThreadAllocStats();
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_EQ(after.bytes - before.bytes, 128u);
}

TEST(AllocCounters, TotalsIncludeExitedThreads) {
  const AllocStats before = TotalAllocStats();
  std::thread worker([] {
    for (int i = 0; i < 5; ++i) CountAlloc(1000);
  });
  worker.join();
  const AllocStats after = TotalAllocStats();
  EXPECT_GE(after.count - before.count, 5u);
  EXPECT_GE(after.bytes - before.bytes, 5000u);
}

TEST(AllocCounters, TotalsCoverLiveThreadsToo) {
  const AllocStats before = TotalAllocStats();
  CountAlloc(64);
  const AllocStats after = TotalAllocStats();
  EXPECT_GE(after.count - before.count, 1u);
  EXPECT_GE(after.bytes - before.bytes, 64u);
}

TEST(UpdateResourceMetrics, PublishesGaugesIntoTheGivenRegistry) {
  MetricRegistry registry;
  CountAlloc(512);
  UpdateResourceMetrics(&registry);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("eadrl_peak_rss_bytes"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_rss_bytes"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_page_faults{kind=\"minor\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("eadrl_ctx_switches"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_cpu_seconds{mode=\"user\"}"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_alloc_count_total"), std::string::npos);
  EXPECT_NE(prom.find("eadrl_alloc_bytes_total"), std::string::npos);
  EXPECT_GT(registry.GetGauge("eadrl_alloc_bytes_total")->Value(), 0.0);
}

/// Span-attribution tests: arm spans against a local buffer and read the
/// profiler aggregates back via SpanProfileSnapshot.
class SpanAllocAttributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buffer_ = std::make_unique<TraceBuffer>();
    SetTraceBuffer(buffer_.get());
  }
  void TearDown() override { SetTraceBuffer(nullptr); }

  static SpanProfileRow RowFor(const std::string& name) {
    for (const SpanProfileRow& row : SpanProfileSnapshot()) {
      if (row.name == name) return row;
    }
    return {};
  }

  std::unique_ptr<TraceBuffer> buffer_;
};

TEST_F(SpanAllocAttributionTest, SelfAllocationsExcludeChildren) {
  {
    Span parent("attr_parent_span");
    CountAlloc(100);
    {
      Span child("attr_child_span");
      CountAlloc(1000);
      CountAlloc(1000);
    }
    CountAlloc(100);
  }
  const SpanProfileRow parent = RowFor("attr_parent_span");
  const SpanProfileRow child = RowFor("attr_child_span");
  EXPECT_EQ(parent.count, 1u);
  EXPECT_EQ(parent.alloc_count, 2u);
  EXPECT_EQ(parent.alloc_bytes, 200u);
  EXPECT_EQ(child.count, 1u);
  EXPECT_EQ(child.alloc_count, 2u);
  EXPECT_EQ(child.alloc_bytes, 2000u);
}

TEST_F(SpanAllocAttributionTest, WorkerSpansOwnPoolTaskAllocations) {
  // Allocations made by a task on a pool worker must land on the span the
  // worker opens, not on the submitting thread's span: the worker's
  // thread-local counters never mix with the submitter's.
  par::ThreadPool pool(2);
  {
    Span submitter("attr_submitter_span");
    par::TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      group.Run([] {
        Span task("attr_task_span");
        CountAlloc(4096);
      });
    }
    group.Wait();
  }
  const SpanProfileRow task = RowFor("attr_task_span");
  const SpanProfileRow submitter = RowFor("attr_submitter_span");
  EXPECT_EQ(task.count, 4u);
  EXPECT_EQ(task.alloc_count, 4u);
  EXPECT_EQ(task.alloc_bytes, 4u * 4096u);
  EXPECT_EQ(submitter.count, 1u);
  // The submitter itself reported nothing. (A serial pool would run the
  // tasks inline under a ScopedTraceParent mask, which also keeps them off
  // the submitter's self share.)
  EXPECT_EQ(submitter.alloc_count, 0u);
  EXPECT_EQ(submitter.alloc_bytes, 0u);
}

TEST_F(SpanAllocAttributionTest, SerialPoolMasksHelperAllocations) {
  // Thread count 1 = zero workers: Submit runs inline on the caller, where
  // ScopedTraceParent masks the live span. The task's allocations must stay
  // attributed to the task's own span, not leak into the enclosing one.
  par::ThreadPool pool(1);
  {
    Span submitter("attr_serial_outer_span");
    par::TaskGroup group(&pool);
    group.Run([] {
      Span task("attr_serial_task_span");
      CountAlloc(512);
    });
    group.Wait();
  }
  EXPECT_EQ(RowFor("attr_serial_task_span").alloc_bytes, 512u);
  EXPECT_EQ(RowFor("attr_serial_outer_span").alloc_bytes, 0u);
}

TEST_F(SpanAllocAttributionTest, AllocAttrsAppearInFinishedSpans) {
  {
    Span span("attr_export_span");
    CountAlloc(2048);
  }
  SetTraceBuffer(nullptr);
  bool found = false;
  for (const FinishedSpan& span : buffer_->Snapshot()) {
    if (std::string(span.name) != "attr_export_span") continue;
    found = true;
    bool saw_bytes = false;
    for (const SpanAttr& attr : span.attrs) {
      if (std::string(attr.key) == "alloc_bytes") saw_bytes = true;
    }
    EXPECT_TRUE(saw_bytes) << "span should carry alloc attrs";
  }
  EXPECT_TRUE(found);
}

TEST_F(SpanAllocAttributionTest, ProfileReportListsAllocations) {
  {
    Span span("attr_report_span");
    CountAlloc(4096);
  }
  const std::string report = FormatSpanProfileReport();
  EXPECT_NE(report.find("attr_report_span"), std::string::npos);
  EXPECT_NE(report.find("alloc_bytes"), std::string::npos);
  EXPECT_NE(report.find("4096"), std::string::npos);
}

}  // namespace
}  // namespace eadrl::obs
