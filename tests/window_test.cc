// Windowed metrics (Counter/Histogram built with WindowOptions, see
// src/obs/metrics.h): rotation at tick boundaries under an injected fake
// clock, full-window expiry, early-window rate normalization, the
// exact-when-small quantile path (parity against a sorted-vector
// order-statistic reference), snapshot merging, and parity between a
// cumulative metric and a windowed one whose window covers every
// observation — the two are one type.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"

namespace eadrl::obs {
namespace {

// Injected clock: tests move time explicitly; WindowOptions::now_ns is a
// plain function pointer, so the seam is a process-global.
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

/// Exact linearly-interpolated order statistic over `values` — the reference
/// the exact-quantile path must match.
double ReferenceQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Windowed Counter.
// ---------------------------------------------------------------------------

TEST(WindowedCounterTest, RotatesAtTickBoundaries) {
  SetNowSeconds(0.0);
  Counter counter(FakeWindow(4, 1.0));

  SetNowSeconds(0.5);
  counter.Inc(5.0);
  CounterSnapshot snap = counter.Snapshot();
  EXPECT_DOUBLE_EQ(snap.total, 5.0);
  EXPECT_DOUBLE_EQ(counter.Value(), 5.0);
  // Only the first sub-window is resident: the rate reflects 1 tick, not 4.
  EXPECT_DOUBLE_EQ(snap.window_seconds, 1.0);
  EXPECT_DOUBLE_EQ(snap.Rate(), 5.0);

  SetNowSeconds(1.5);  // epoch 1: a new sub-window opens, epoch 0 stays live.
  counter.Inc(3.0);
  snap = counter.Snapshot();
  EXPECT_DOUBLE_EQ(snap.total, 8.0);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 2.0);

  // Advance to epoch 4: the window covers epochs 1..4, so epoch 0's 5.0
  // slides out while the cumulative total keeps it.
  SetNowSeconds(4.25);
  snap = counter.Snapshot();
  EXPECT_DOUBLE_EQ(snap.total, 3.0);
  EXPECT_DOUBLE_EQ(counter.Value(), 8.0);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 4.0);
}

TEST(WindowedCounterTest, WholeWindowExpiresAfterQuietSpell) {
  SetNowSeconds(0.0);
  Counter counter(FakeWindow(4, 1.0));
  counter.Inc(10.0);
  // A gap of >= buckets ticks invalidates every slot at once (the full-reset
  // rotation path), even though no Inc arrived to trigger rotation.
  SetNowSeconds(100.0);
  const CounterSnapshot snap = counter.Snapshot();
  EXPECT_DOUBLE_EQ(snap.total, 0.0);
  EXPECT_DOUBLE_EQ(counter.Value(), 10.0);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 4.0);
}

TEST(WindowedCounterTest, SubSecondTicks) {
  SetNowSeconds(0.0);
  Counter counter(FakeWindow(10, 0.1));
  for (int i = 0; i < 8; ++i) {
    SetNowSeconds(0.1 * i);
    counter.Inc();
  }
  const CounterSnapshot snap = counter.Snapshot();
  EXPECT_DOUBLE_EQ(snap.total, 8.0);
  EXPECT_NEAR(snap.window_seconds, 0.8, 1e-9);
  EXPECT_NEAR(snap.Rate(), 10.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Windowed Histogram.
// ---------------------------------------------------------------------------

TEST(WindowedHistogramTest, ExactQuantilesWhenSmall) {
  SetNowSeconds(0.0);
  Histogram hist(FakeWindow(5, 1.0), {});
  eadrl::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) {
    // Spread across 3 sub-windows so the exact path must stitch slots.
    SetNowSeconds(static_cast<double>(i % 3));
    const double v = rng.Uniform() * 0.25;
    values.push_back(v);
    hist.Observe(v);
  }
  SetNowSeconds(2.5);
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, 40u);
  ASSERT_EQ(snap.samples.size(), 40u);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), ReferenceQuantile(values, q))
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.min,
                   *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(snap.max,
                   *std::max_element(values.begin(), values.end()));
}

TEST(WindowedHistogramTest, FallsBackToBucketsPastSampleBudget) {
  SetNowSeconds(0.0);
  Histogram hist(FakeWindow(5, 1.0), {});
  eadrl::Rng rng(11);
  double mn = 1e300;
  double mx = -1e300;
  for (int i = 0; i < 700; ++i) {
    const double v = 1e-4 + rng.Uniform() * 0.1;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    hist.Observe(v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 700u);
  EXPECT_TRUE(snap.samples.empty());
  const double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, mn);
  EXPECT_LE(p50, mx);
  EXPECT_EQ(hist.Count(), 700u);
}

TEST(WindowedHistogramTest, WindowSlidesPastOldObservations) {
  SetNowSeconds(0.0);
  Histogram hist(FakeWindow(3, 1.0), {});
  hist.Observe(1.0);
  hist.Observe(2.0);
  SetNowSeconds(1.5);
  hist.Observe(8.0);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3u);

  SetNowSeconds(3.5);  // window = epochs 1..3: the two epoch-0 values expire.
  snap = hist.Snapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 8.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  EXPECT_EQ(hist.Count(), 3u);

  SetNowSeconds(50.0);  // everything expires.
  snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(snap.samples.empty());
}

// ---------------------------------------------------------------------------
// HistogramSnapshot: the exact-small path and merge algebra.
// ---------------------------------------------------------------------------

TEST(HistogramSnapshotTest, PlainHistogramExactSmallParity) {
  Histogram hist(Histogram::DefaultLatencyBounds());
  eadrl::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Uniform() * 2.0;
    values.push_back(v);
    hist.Observe(v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.samples.size(), 100u);
  for (const double q : {0.0, 0.1, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), ReferenceQuantile(values, q))
        << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Cumulative == windowed over a window that covers every observation.
// ---------------------------------------------------------------------------

/// Feeds `n` observations to a cumulative histogram and to a windowed one
/// whose 4 s window holds them all (spread over its four sub-windows, so the
/// slot merge is exercised), then requires equal snapshots. Values are
/// multiples of 1/1024, so sums are exact in any addition order.
void ExpectHistogramParity(size_t n) {
  SetNowSeconds(0.0);
  const std::vector<double> bounds = Histogram::ExponentialBounds(0.01, 2.0, 12);
  Histogram cumulative(bounds);
  Histogram windowed(FakeWindow(4, 1.0), bounds);
  eadrl::Rng rng(23);
  for (size_t i = 0; i < n; ++i) {
    SetNowSeconds(static_cast<double>(4 * i / n));
    const double v = std::floor(rng.Uniform() * 4096.0 + 1.0) / 1024.0;
    cumulative.Observe(v);
    windowed.Observe(v);
  }
  SetNowSeconds(3.5);
  const HistogramSnapshot a = cumulative.Snapshot();
  const HistogramSnapshot b = windowed.Snapshot();
  EXPECT_EQ(cumulative.Count(), n);
  EXPECT_EQ(windowed.Count(), n);
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, n);
  EXPECT_EQ(b.count, n);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  std::vector<double> sa = a.samples;
  std::vector<double> sb = b.samples;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), n <= HistogramSnapshot::kExactQuantileSamples ? n : 0);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
  // Only the windowed view has a span, so only it has a rate.
  EXPECT_EQ(a.window_seconds, 0.0);
  EXPECT_EQ(a.Rate(), 0.0);
  EXPECT_DOUBLE_EQ(b.window_seconds, 4.0);
  EXPECT_DOUBLE_EQ(b.Rate(), static_cast<double>(n) / 4.0);
}

TEST(CumulativeWindowedParityTest, HistogramWithinSampleBudget) {
  ExpectHistogramParity(200);
}

TEST(CumulativeWindowedParityTest, HistogramBeyondSampleBudget) {
  ExpectHistogramParity(1000);
}

TEST(CumulativeWindowedParityTest, Counter) {
  SetNowSeconds(0.0);
  Counter cumulative;
  Counter windowed(FakeWindow(4, 1.0));
  eadrl::Rng rng(29);
  for (int i = 0; i < 400; ++i) {
    SetNowSeconds(0.01 * i);  // ticks 0..3, all inside the 4 s window.
    const double delta = std::floor(rng.Uniform() * 64.0) / 16.0;
    cumulative.Inc(delta);
    windowed.Inc(delta);
  }
  const CounterSnapshot a = cumulative.Snapshot();
  const CounterSnapshot b = windowed.Snapshot();
  EXPECT_EQ(cumulative.Value(), b.total);
  EXPECT_EQ(windowed.Value(), b.total);
  EXPECT_EQ(a.total, cumulative.Value());
  EXPECT_EQ(a.window_seconds, 0.0);
  EXPECT_EQ(a.Rate(), 0.0);
  EXPECT_DOUBLE_EQ(b.window_seconds, 4.0);
}

}  // namespace
}  // namespace eadrl::obs
