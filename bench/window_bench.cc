// Windowed-observability benchmarks (google-benchmark): the live-metrics
// hot paths that sit on every served request — a windowed Counter::Inc and
// Histogram::Observe on the fast (no-rotation) path and across constant
// rotations, labeled drill-down observes at and past the cardinality cap,
// SloTracker record + evaluate, and snapshotting while a writer would
// normally be live. The cumulative Counter/Histogram baselines sit alongside
// so the cost of "live" over "cumulative" is a direct A/B in the same suite.
// The BM_Windowed* names predate the merge of the windowed and cumulative
// types and are kept so BENCH snapshots stay comparable.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/cardinality.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace {

using eadrl::obs::Counter;
using eadrl::obs::Histogram;
using eadrl::obs::LabeledWindowedFamily;
using eadrl::obs::LabeledWindowedFamilyOptions;
using eadrl::obs::SloTracker;
using eadrl::obs::SloTrackerOptions;
using eadrl::obs::WindowOptions;

// Fake clock so rotation frequency is a benchmark parameter, not a property
// of how fast the host happens to run.
std::atomic<uint64_t> g_now_ns{0};

uint64_t FakeNow() { return g_now_ns.load(std::memory_order_relaxed); }

WindowOptions FakeWindow() {
  WindowOptions options;
  options.buckets = 10;
  options.tick_seconds = 1.0;
  options.now_ns = &FakeNow;
  return options;
}

void BM_CounterIncBaseline(benchmark::State& state) {
  Counter counter;
  for (auto _ : state) counter.Inc();
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncBaseline);

void BM_WindowedCounterInc(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  Counter counter(FakeWindow());
  for (auto _ : state) counter.Inc();
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedCounterInc);

void BM_WindowedCounterIncRotating(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  Counter counter(FakeWindow());
  uint64_t now = 0;
  for (auto _ : state) {
    // Advance a full tick every 8 increments: rotation is on the measured
    // path instead of being amortized away.
    now += 125'000'000;
    g_now_ns.store(now, std::memory_order_relaxed);
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedCounterIncRotating);

void BM_HistogramObserveBaseline(benchmark::State& state) {
  Histogram hist(Histogram::ExponentialBounds(1e-6, 2.0, 24));
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;
  }
  benchmark::DoNotOptimize(hist.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserveBaseline);

void BM_WindowedHistogramObserve(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  Histogram hist(FakeWindow(), {});
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;
  }
  benchmark::DoNotOptimize(hist.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedHistogramObserve);

void BM_WindowedHistogramSnapshot(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  Histogram hist(FakeWindow(), {});
  // Past the exact-sample budget: snapshot merges bucket tails, the
  // steady-state shape for a busy service.
  for (int i = 0; i < 4096; ++i) hist.Observe(1e-4 * (1 + i % 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Snapshot().Quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedHistogramSnapshot);

void BM_LabeledFamilyObserveTracked(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  LabeledWindowedFamilyOptions options;
  options.name = "bench_family";
  options.max_labels = 64;
  options.window = FakeWindow();
  LabeledWindowedFamily family(options);
  std::vector<std::string> labels;
  for (int t = 0; t < 32; ++t) labels.push_back("t-" + std::to_string(t));
  size_t i = 0;
  for (auto _ : state) {
    family.Observe(labels[i % labels.size()], 1e-4);
    ++i;
  }
  benchmark::DoNotOptimize(family.TrackedLabels());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LabeledFamilyObserveTracked);

void BM_LabeledFamilyObserveOverflowing(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  LabeledWindowedFamilyOptions options;
  options.name = "bench_family";
  options.max_labels = 8;
  options.window = FakeWindow();
  LabeledWindowedFamily family(options);
  // Pre-fill the cap with fresh labels, then hammer the reject path — the
  // cost a tenant storm pays per dropped label.
  for (int t = 0; t < 8; ++t) family.Observe("seat-" + std::to_string(t), 1e-4);
  uint64_t i = 0;
  for (auto _ : state) {
    family.Observe("storm-" + std::to_string(i++ % 1024), 1e-4);
  }
  benchmark::DoNotOptimize(family.Overflow());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LabeledFamilyObserveOverflowing);

void BM_SloRecordLatency(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  SloTrackerOptions options;
  options.objectives.push_back({"latency", 0.05, 0.99});
  options.objectives.push_back({"availability", 0.0, 0.999});
  options.long_window = FakeWindow();
  options.short_window = FakeWindow();
  SloTracker tracker(options);
  size_t i = 0;
  for (auto _ : state) {
    tracker.RecordLatency(0, (i++ % 10 == 0) ? 0.2 : 0.001);
  }
  benchmark::DoNotOptimize(tracker.Report().objectives[0].good);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SloRecordLatency);

void BM_SloEvaluate(benchmark::State& state) {
  g_now_ns.store(0, std::memory_order_relaxed);
  SloTrackerOptions options;
  options.objectives.push_back({"latency", 0.05, 0.99});
  options.objectives.push_back({"availability", 0.0, 0.999});
  options.long_window = FakeWindow();
  options.short_window = FakeWindow();
  SloTracker tracker(options);
  for (int i = 0; i < 1000; ++i) {
    tracker.RecordLatency(0, (i % 10 == 0) ? 0.2 : 0.001);
    tracker.Record(1, i % 50 != 0);
  }
  for (auto _ : state) {
    tracker.Evaluate();
    benchmark::DoNotOptimize(tracker);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SloEvaluate);

}  // namespace

BENCHMARK_MAIN();
