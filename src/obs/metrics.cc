#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/string_util.h"

namespace eadrl::obs {
namespace {

constexpr size_t kSlotSampleCap = HistogramSnapshot::kExactQuantileSamples;

void AtomicMin(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value > cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

uint64_t TickNanos(double tick_seconds) {
  EADRL_CHECK_GT(tick_seconds, 0.0);
  const double ns = tick_seconds * 1e9;
  return ns < 1.0 ? 1 : static_cast<uint64_t>(std::llround(ns));
}

std::string LabelSignature(const Labels& sorted) {
  std::string sig;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) sig += ",";
    sig += sorted[i].first + "=" + sorted[i].second;
  }
  return sig;
}

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; anything else is
// mapped to '_' so an arbitrary registry name still exposes cleanly.
void AppendPrometheusName(std::string* out, const std::string& name) {
  if (name.empty()) *out += '_';
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    *out += ok ? c : '_';
  }
}

std::string PrometheusNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  const std::to_chars_result end = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  return std::string(buf, end.ptr);
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// SlidingWindow.
// ---------------------------------------------------------------------------

namespace internal_metrics {

SlidingWindow::SlidingWindow(const WindowOptions& options)
    : opt_(options), tick_ns_(TickNanos(options.tick_seconds)) {
  EADRL_CHECK_GT(opt_.buckets, 0u);
  first_epoch_ = NowNs() / tick_ns_;
  cur_epoch_.store(first_epoch_, std::memory_order_relaxed);
}

size_t SlidingWindow::SlotAt(uint64_t now_ns) const {
  const uint64_t epoch = now_ns / tick_ns_;
  if (epoch != cur_epoch_.load(std::memory_order_acquire)) {
    std::lock_guard<chk::OrderedMutex> lock(window_mu_);
    RotateTo(epoch);
  }
  return static_cast<size_t>(epoch % opt_.buckets);
}

double SlidingWindow::RotateForSnapshot() const {
  RotateTo(NowNs() / tick_ns_);
  const uint64_t elapsed =
      cur_epoch_.load(std::memory_order_relaxed) - first_epoch_ + 1;
  const uint64_t resident =
      std::min<uint64_t>(elapsed, static_cast<uint64_t>(opt_.buckets));
  return static_cast<double>(resident) * static_cast<double>(tick_ns_) * 1e-9;
}

void SlidingWindow::RotateTo(uint64_t epoch) const {
  uint64_t cur = cur_epoch_.load(std::memory_order_relaxed);
  if (epoch <= cur) return;
  const size_t n = opt_.buckets;
  if (epoch - cur >= n) {
    // The whole window slid past: every slot is stale.
    for (size_t i = 0; i < n; ++i) ResetSlot(i);
  } else {
    while (cur < epoch) {
      ++cur;
      ResetSlot(static_cast<size_t>(cur % n));
    }
  }
  cur_epoch_.store(epoch, std::memory_order_release);
}

}  // namespace internal_metrics

// ---------------------------------------------------------------------------
// Counter.
// ---------------------------------------------------------------------------

Counter::Counter(const WindowOptions& window)
    : SlidingWindow(window), slots_(num_slots()) {}

void Counter::IncAt(uint64_t now_ns, double delta) {
  total_.fetch_add(delta, std::memory_order_relaxed);
  if (windowed()) {
    slots_[SlotAt(now_ns)].fetch_add(delta, std::memory_order_relaxed);
  }
}

void Counter::ResetSlot(size_t index) const {
  slots_[index].store(0.0, std::memory_order_relaxed);
}

CounterSnapshot Counter::Snapshot() const {
  CounterSnapshot snap;
  if (!windowed()) {
    snap.total = Value();
    return snap;
  }
  std::lock_guard<chk::OrderedMutex> lock(window_mu_);
  snap.window_seconds = RotateForSnapshot();
  for (const std::atomic<double>& slot : slots_) {
    snap.total += slot.load(std::memory_order_relaxed);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)) {
  AllocateSlots();
}

Histogram::Histogram(const WindowOptions& window, std::vector<double> bounds)
    : SlidingWindow(window),
      bounds_(bounds.empty() ? DefaultLatencyBounds() : std::move(bounds)) {
  AllocateSlots();
}

void Histogram::AllocateSlots() {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    EADRL_CHECK_GT(bounds_[i], bounds_[i - 1]);
  }
  slots_ = std::vector<Slot>(num_slots());
  for (size_t k = 0; k < slots_.size(); ++k) {
    Slot& slot = slots_[k];
    slot.counts = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    slot.samples = std::make_unique<std::atomic<double>[]>(kSlotSampleCap);
    slot.sample_ready = std::make_unique<std::atomic<uint8_t>[]>(kSlotSampleCap);
    ResetSlot(k);
  }
}

void Histogram::ResetSlot(size_t index) const {
  Slot& slot = slots_[index];
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    slot.counts[i].store(0, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < kSlotSampleCap; ++s) {
    slot.sample_ready[s].store(0, std::memory_order_relaxed);
  }
  slot.sample_slots.store(0, std::memory_order_relaxed);
  slot.sum.store(0.0, std::memory_order_relaxed);
  slot.min.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
  slot.max.store(-std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
  slot.count.store(0, std::memory_order_relaxed);
}

void Histogram::ObserveAt(uint64_t now_ns, double value) {
  size_t index = 0;
  if (windowed()) {
    count_.fetch_add(1, std::memory_order_relaxed);
    index = SlotAt(now_ns);
  }
  Slot& slot = slots_[index];
  // Inclusive upper bounds (Prometheus "le" semantics): bucket i counts
  // values in (bounds[i-1], bounds[i]].
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  slot.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
  // Update min/max before publishing the new count: a reader that sees
  // count >= 1 then also sees finite (non-sentinel) min/max.
  AtomicMin(&slot.min, value);
  AtomicMax(&slot.max, value);
  // Raw-sample capture for the exact-small quantile path. The cheap relaxed
  // pre-check keeps the fetch_add off the hot path once the budget is spent
  // (so the counter cannot creep toward wraparound either).
  uint32_t s = slot.sample_slots.load(std::memory_order_relaxed);
  if (s < kSlotSampleCap) {
    s = slot.sample_slots.fetch_add(1, std::memory_order_relaxed);
    if (s < kSlotSampleCap) {
      slot.samples[s].store(value, std::memory_order_relaxed);
      slot.sample_ready[s].store(1, std::memory_order_release);
    }
  }
  slot.count.fetch_add(1, std::memory_order_release);
}

uint64_t Histogram::Count() const {
  return windowed() ? count_.load(std::memory_order_relaxed)
                    : slots_[0].count.load(std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  if (!windowed()) return MergeSlots();
  std::lock_guard<chk::OrderedMutex> lock(window_mu_);
  const double window_seconds = RotateForSnapshot();
  HistogramSnapshot snap = MergeSlots();
  snap.window_seconds = window_seconds;
  return snap;
}

HistogramSnapshot Histogram::MergeSlots() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.bounds.push_back(std::numeric_limits<double>::infinity());
  snap.counts.assign(bounds_.size() + 1, 0);
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  // Raw samples stay exact while the merged population fits the budget and
  // every slot's published samples cover its count (always true once
  // concurrent observers quiesce; a snapshot racing an observer mid-store
  // just falls back to bucket interpolation instead of reading garbage).
  bool exact = true;
  for (const Slot& slot : slots_) {
    // The count is read first (acquire): min/max and the samples it covers
    // were published before it.
    const uint64_t c = slot.count.load(std::memory_order_acquire);
    if (c == 0) continue;
    snap.count += c;
    snap.sum += slot.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, slot.min.load(std::memory_order_relaxed));
    mx = std::max(mx, slot.max.load(std::memory_order_relaxed));
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      snap.counts[i] += slot.counts[i].load(std::memory_order_relaxed);
    }
    exact = exact && snap.count <= kSlotSampleCap;
    uint64_t got = 0;
    for (uint32_t s = 0; exact && s < kSlotSampleCap && got < c; ++s) {
      if (slot.sample_ready[s].load(std::memory_order_acquire) == 0) break;
      snap.samples.push_back(slot.samples[s].load(std::memory_order_relaxed));
      ++got;
    }
    exact = exact && got == c;
  }
  if (snap.count > 0) {
    snap.min = mn;
    snap.max = mx;
  }
  if (!exact) snap.samples.clear();
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (!samples.empty() && samples.size() == count) {
    // Exact path: the complete population is at hand, so return the
    // linearly-interpolated order statistic (the sorted-vector reference
    // tests/window_test.cc checks parity against).
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  // bounds' last element is the +inf overflow bound; that bucket clamps to
  // the observed max instead.
  const size_t overflow = counts.size() - 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double lower = i == 0 ? min : bounds[i - 1];
    double upper = i < overflow ? bounds[i] : max;
    lower = std::max(lower, min);
    upper = std::min(upper, max);
    if (upper < lower) upper = lower;
    uint64_t next = seen + counts[i];
    if (rank <= static_cast<double>(next)) {
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
      return lower + frac * (upper - lower);
    }
    seen = next;
  }
  return max;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  EADRL_CHECK_GT(start, 0.0);
  EADRL_CHECK_GT(factor, 1.0);
  EADRL_CHECK_GT(count, 0u);
  std::vector<double> bounds(count);
  double v = start;
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = v;
    v *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double width,
                                            size_t count) {
  EADRL_CHECK_GT(width, 0.0);
  EADRL_CHECK_GT(count, 0u);
  std::vector<double> bounds(count);
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = start + width * static_cast<double>(i);
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  return ExponentialBounds(1e-6, 2.0, 24);
}

// ---------------------------------------------------------------------------
// Prometheus writers.
// ---------------------------------------------------------------------------

void AppendPrometheusType(std::string* out, const std::string& name,
                          const char* type) {
  *out += "# TYPE ";
  AppendPrometheusName(out, name);
  *out += ' ';
  *out += type;
  *out += '\n';
}

void AppendPrometheusSample(std::string* out, const std::string& name,
                            const Labels& labels, double value) {
  AppendPrometheusName(out, name);
  if (!labels.empty()) {
    *out += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) *out += ',';
      AppendPrometheusName(out, labels[i].first);
      *out += "=\"";
      for (const char c : labels[i].second) {
        switch (c) {
          case '\\':
            *out += "\\\\";
            break;
          case '"':
            *out += "\\\"";
            break;
          case '\n':
            *out += "\\n";
            break;
          default:
            *out += c;
        }
      }
      *out += '"';
    }
    *out += '}';
  }
  *out += ' ';
  *out += PrometheusNumber(value);
  *out += '\n';
}

// ---------------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------------

MetricRegistry::Entry* MetricRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, Kind kind,
    std::vector<double> bounds) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string sig = LabelSignature(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  auto& family = families_[name];
  if (!family.empty()) {
    // The family's kind is fixed by its first member.
    EADRL_CHECK(family.begin()->second.kind == kind);
  }
  auto it = family.find(sig);
  if (it != family.end()) return &it->second;

  Entry entry;
  entry.kind = kind;
  entry.labels = std::move(sorted);
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return &family.emplace(sig, std::move(entry)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter, {})->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge, {})->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kHistogram, std::move(bounds))
      ->histogram.get();
}

std::string MetricRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ',';
    first_family = false;
    out += '"';
    AppendJsonEscaped(&out, name);
    out += "\":{";
    bool first_metric = true;
    for (const auto& [sig, entry] : family) {
      if (!first_metric) out += ',';
      first_metric = false;
      out += '"';
      AppendJsonEscaped(&out, sig);
      out += "\":";
      switch (entry.kind) {
        case Kind::kCounter:
          out += "{\"type\":\"counter\",\"value\":";
          AppendJsonNumber(&out, entry.counter->Value());
          break;
        case Kind::kGauge:
          out += "{\"type\":\"gauge\",\"value\":";
          AppendJsonNumber(&out, entry.gauge->Value());
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = entry.histogram->Snapshot();
          out += "{\"type\":\"histogram\",\"count\":";
          out += std::to_string(snap.count);
          for (const auto& [key, value] :
               {std::pair<const char*, double>{"sum", snap.sum},
                {"min", snap.min},
                {"max", snap.max},
                {"mean", snap.Mean()},
                {"p50", snap.Quantile(0.5)},
                {"p90", snap.Quantile(0.9)},
                {"p99", snap.Quantile(0.99)}}) {
            out += ",\"";
            out += key;
            out += "\":";
            AppendJsonNumber(&out, value);
          }
          break;
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += '}';
  return out;
}

std::string MetricRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (family.empty()) continue;
    const Kind kind = family.begin()->second.kind;
    AppendPrometheusType(&out, name,
                         kind == Kind::kCounter ? "counter"
                         : kind == Kind::kGauge ? "gauge"
                                                : "histogram");
    for (const auto& [sig, entry] : family) {
      static_cast<void>(sig);
      switch (entry.kind) {
        case Kind::kCounter:
          AppendPrometheusSample(&out, name, entry.labels,
                                 entry.counter->Value());
          break;
        case Kind::kGauge:
          AppendPrometheusSample(&out, name, entry.labels,
                                 entry.gauge->Value());
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = entry.histogram->Snapshot();
          Labels with_le = entry.labels;
          with_le.emplace_back("le", "");
          uint64_t cumulative = 0;
          for (size_t i = 0; i < snap.bounds.size(); ++i) {
            cumulative += snap.counts[i];
            with_le.back().second = PrometheusNumber(snap.bounds[i]);
            AppendPrometheusSample(&out, name + "_bucket", with_le,
                                   static_cast<double>(cumulative));
          }
          AppendPrometheusSample(&out, name + "_sum", entry.labels, snap.sum);
          AppendPrometheusSample(&out, name + "_count", entry.labels,
                                 static_cast<double>(snap.count));
          break;
        }
      }
    }
  }
  return out;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry =
      new MetricRegistry();  // NOLINT(naked-new): leaked on purpose so
                             // late-exiting threads can still record
  return *registry;
}

}  // namespace eadrl::obs
