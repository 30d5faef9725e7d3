#ifndef EADRL_OBS_METRICS_H_
#define EADRL_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"

// One metric model (see DESIGN.md, "Observability"): one Counter and one
// Histogram type. Built without WindowOptions a metric is cumulative — a
// single slot that never rotates, so observing reads no clock. Built with
// WindowOptions it is windowed: a ring of `buckets` sub-window slots, each
// covering one `tick_seconds` span of the monotonic clock. An observation
// lands in the slot of its epoch (clock / tick) with atomic adds, and a slot
// is reset for reuse when the window slides past it. Snapshots merge the
// resident slots into one consistent view; a windowed snapshot also carries
// the effective window span, so rates are per second over the last window.
//
// Concurrency: observing is lock-free. Only the observer that first lands
// in a NEW epoch takes `window_mu_` to rotate. An observation racing a
// rotation can land in the slot that was just retired or recycled; the skew
// is bounded by one observation per rotation, and since-construction totals
// (Counter::Value, Histogram::Count) are exact because they bypass the ring.

namespace eadrl::obs {

/// Monotonic nanoseconds (std::chrono::steady_clock). The default clock of
/// windowed metrics; tests inject a fake via WindowOptions::now_ns.
uint64_t MonotonicNowNs();

/// Sub-window layout + clock of a windowed metric. The covered span is
/// buckets * tick_seconds (default 10 x 1 s); resolution is one tick.
struct WindowOptions {
  size_t buckets = 10;
  double tick_seconds = 1.0;
  /// Clock injection seam: nullptr = MonotonicNowNs. A plain function
  /// pointer (not std::function) so the hot path pays no indirection-heavy
  /// call and the options stay trivially copyable.
  uint64_t (*now_ns)() = nullptr;
};

namespace internal_metrics {

/// The sub-window ring bookkeeping Counter and Histogram share: the clock,
/// the newest epoch and the rotation lock. Default-constructed it is
/// cumulative (one slot, never rotates); the derived class owns the slots
/// and says how one is reset.
class SlidingWindow {
 public:
  bool windowed() const { return tick_ns_ != 0; }

  /// Current reading of the window's clock (injected or monotonic). Batch
  /// completion paths read it once and fan it out to every windowed metric
  /// sharing the clock through IncAt/ObserveAt, instead of paying one clock
  /// read per observation (see ForecastService::ProcessBatch).
  uint64_t NowNs() const {
    return opt_.now_ns != nullptr ? opt_.now_ns() : MonotonicNowNs();
  }

 protected:
  SlidingWindow() = default;
  explicit SlidingWindow(const WindowOptions& options);
  ~SlidingWindow() = default;

  /// Slot count: WindowOptions::buckets when windowed, else 1.
  size_t num_slots() const { return windowed() ? opt_.buckets : 1; }

  /// Index of the slot an observation at `now_ns` lands in, rotating first
  /// when a new tick began. Windowed metrics only.
  size_t SlotAt(uint64_t now_ns) const;

  /// Rotates to the current tick, so sub-windows that went stale during a
  /// quiet spell read 0 rather than the last burst, and returns the
  /// effective window span in seconds: shorter than the configured span
  /// until one full window has elapsed, so early rates are not diluted.
  double RotateForSnapshot() const EADRL_REQUIRES(window_mu_);

  /// Zeroes slot `index` for reuse. Called with window_mu_ held.
  virtual void ResetSlot(size_t index) const = 0;

  /// Serializes rotation only; never held while observing.
  mutable chk::OrderedMutex window_mu_{EADRL_LOCK_RANK(obs_window),
                                       "obs::SlidingWindow::window_mu_"};

 private:
  /// Advances the ring to `epoch`, resetting every slot the window slid
  /// past.
  void RotateTo(uint64_t epoch) const EADRL_REQUIRES(window_mu_);

  WindowOptions opt_;
  uint64_t tick_ns_ = 0;  ///< 0 = cumulative.
  uint64_t first_epoch_ = 0;
  mutable std::atomic<uint64_t> cur_epoch_{0};
};

}  // namespace internal_metrics

/// A counter's view at one point in time. Windowed: the total over the
/// resident sub-windows and the effective window span. Cumulative: the
/// since-construction total with window_seconds (and so Rate()) 0.
struct CounterSnapshot {
  double total = 0.0;
  double window_seconds = 0.0;

  double Rate() const {
    return window_seconds > 0.0 ? total / window_seconds : 0.0;
  }
};

/// Monotonically increasing counter. Inc is lock-free from any thread (off
/// the rotation path when windowed).
class Counter final : public internal_metrics::SlidingWindow {
 public:
  Counter() = default;
  explicit Counter(const WindowOptions& window);

  void Inc(double delta = 1.0) {
    if (windowed()) {
      IncAt(NowNs(), delta);
    } else {
      total_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  /// Inc with a caller-provided reading of THIS counter's clock (NowNs()).
  void IncAt(uint64_t now_ns, double delta = 1.0);

  /// Exact since-construction total (does not depend on the window).
  double Value() const { return total_.load(std::memory_order_relaxed); }

  CounterSnapshot Snapshot() const;

 private:
  void ResetSlot(size_t index) const override;

  std::atomic<double> total_{0.0};
  /// Per-tick totals, windowed only. Written lock-free by observers; reset
  /// (rotation) is serialized by window_mu_.
  mutable std::vector<std::atomic<double>> slots_ EADRL_UNGUARDED;
};

/// A value that can go up and down (last-write-wins). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Immutable view of a histogram's state at one point in time (windowed:
/// over the resident sub-windows). Derived statistics (mean, quantiles) are
/// computed on the snapshot itself, so one Snapshot() call yields a mutually
/// consistent set of numbers — exporters must not go back to the live
/// histogram per statistic (each trip re-reads racing atomics and costs
/// another full bucket copy).
struct HistogramSnapshot {
  /// Raw-sample budget for the exact-quantile path: populations at or below
  /// this size keep every observation, so Quantile needs no bucket
  /// interpolation (which drifts badly on small windowed samples — a p99
  /// over 40 requests should be an order statistic, not a bucket midpoint).
  static constexpr size_t kExactQuantileSamples = 256;

  std::vector<double> bounds;    ///< upper bucket bounds (last = +inf).
  std::vector<uint64_t> counts;  ///< per-bucket counts, bounds.size() long.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;
  /// Every raw observation when count <= kExactQuantileSamples and the
  /// source could vouch for completeness (quiesced single-writer snapshots
  /// always can; a snapshot racing concurrent observers may fall back to
  /// empty). Unsorted; empty means "bucket interpolation only".
  std::vector<double> samples;
  /// Effective window span; 0 when the histogram is cumulative.
  double window_seconds = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Observations per second over the window; 0 when cumulative.
  double Rate() const {
    return window_seconds > 0.0 ? static_cast<double>(count) / window_seconds
                                : 0.0;
  }

  /// Quantile estimate, q in [0, 1] (clamped). Returns 0 when empty. When
  /// `samples` holds the complete population (samples.size() == count) the
  /// result is the exact linearly-interpolated order statistic; otherwise
  /// linear interpolation inside the bucket holding the requested rank, with
  /// the first/overflow buckets clamped to min/max so the open-ended bucket
  /// cannot produce infinities.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram with inclusive ("le") upper bounds. Observe is
/// lock-free (atomic adds for counts and sum, CAS loops for min/max). Each
/// slot also keeps its first kExactQuantileSamples raw observations, so
/// small populations get exact quantiles.
class Histogram final : public internal_metrics::SlidingWindow {
 public:
  /// `bounds` are strictly increasing finite upper bucket bounds; a final
  /// +inf bucket is appended automatically. Empty = DefaultLatencyBounds().
  explicit Histogram(std::vector<double> bounds);
  Histogram(const WindowOptions& window, std::vector<double> bounds);

  void Observe(double value) { ObserveAt(windowed() ? NowNs() : 0, value); }
  /// Observe with a caller-provided reading of this histogram's clock
  /// (NowNs()); cumulative histograms ignore it.
  void ObserveAt(uint64_t now_ns, double value);

  HistogramSnapshot Snapshot() const;

  /// Exact since-construction observation count.
  uint64_t Count() const;

  /// `count` bounds starting at `start`, each `factor` times the previous —
  /// the usual latency-histogram shape.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);
  static std::vector<double> LinearBounds(double start, double width,
                                          size_t count);
  /// 1 us .. ~16 s in powers of 2: the default for wall-time histograms.
  static std::vector<double> DefaultLatencyBounds();

 private:
  struct Slot {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  ///< bounds_.size() + 1.
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    // +-inf sentinels make min/max updates pure CAS races (no
    // first-observation seeding, which could overwrite a concurrent
    // observer's tighter value); snapshots skip empty slots.
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    /// Raw-sample slots claimed (may exceed the stored capacity; stores are
    /// dropped past it). sample_ready[i] flips to 1 after samples[i] is
    /// written, so a reader never consumes an unwritten slot.
    std::atomic<uint32_t> sample_slots{0};
    std::unique_ptr<std::atomic<double>[]> samples;
    std::unique_ptr<std::atomic<uint8_t>[]> sample_ready;
  };

  void AllocateSlots();
  void ResetSlot(size_t index) const override;
  /// Merges every slot (the caller rotated first when windowed).
  HistogramSnapshot MergeSlots() const;

  /// Const after construction.
  std::vector<double> bounds_ EADRL_UNGUARDED;
  /// Same discipline as Counter::slots_: lock-free atomic writes, reset
  /// under window_mu_.
  mutable std::vector<Slot> slots_ EADRL_UNGUARDED;
  /// Since-construction count, windowed only (a cumulative histogram's one
  /// slot already holds it).
  std::atomic<uint64_t> count_{0};
};

/// Key/value labels distinguishing metrics within a family, e.g.
/// {{"method", "EA-DRL"}}. Order-insensitive (sorted internally).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// The Prometheus text exposition (version 0.0.4) writers every exposition
/// goes through: metric and label names are sanitized to
/// [a-zA-Z_:][a-zA-Z0-9_:]*, label values escape backslash, quote and
/// newline, and values print round-trip exact (%.17g), non-finite ones as
/// NaN/+Inf/-Inf.
/// Appends `# TYPE <name> <type>`.
void AppendPrometheusType(std::string* out, const std::string& name,
                          const char* type);
/// Appends `<name>{<labels>} <value>` (no braces when `labels` is empty).
void AppendPrometheusSample(std::string* out, const std::string& name,
                            const Labels& labels, double value);

/// Thread-safe registry of named metric families. Getters create on first
/// use and return stable pointers that remain valid for the registry's
/// lifetime, so hot paths can look a metric up once and cache the pointer.
/// A family's type and (for histograms) bucket layout are fixed by the first
/// registration; a later lookup with a conflicting type aborts. Registry
/// metrics are cumulative: windowed ones are owned by their component and
/// exported through MetricsExporter sections.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// `bounds` is used only when the (name, labels) pair is first created;
  /// empty bounds mean DefaultLatencyBounds().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          const Labels& labels = {});

  /// Serializes every metric to a JSON object keyed by family name; each
  /// family maps the label signature ("k=v,k2=v2" or "" for no labels) to
  /// the metric state. Names, signatures and values are JSON-escaped. See
  /// DESIGN.md, "Observability".
  std::string ToJson() const;

  /// Prometheus text exposition: one `# TYPE` line per family,
  /// `name{labels} value` series, histograms expanded into cumulative
  /// `_bucket{le=...}` series plus `_sum`/`_count`.
  std::string ToPrometheus() const;

  /// Drops every registered metric (invalidates previously returned
  /// pointers); tests only.
  void Reset();

  /// Process-wide registry used by the built-in instrumentation.
  static MetricRegistry& Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    Labels labels;  ///< sorted; kept so ToPrometheus can render pairs.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      Kind kind, std::vector<double> bounds);

  mutable std::mutex mu_;
  // family name -> label signature -> metric.
  std::map<std::string, std::map<std::string, Entry>> families_
      EADRL_GUARDED_BY(mu_);
};

/// Wall-time scope timer on std::chrono::steady_clock. On Stop (or
/// destruction, whichever comes first) the elapsed seconds are written to
/// the optional `out` pointer and observed into the optional histogram —
/// one code path for both MethodRun::runtime_seconds-style results and
/// registry latency metrics.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram = nullptr, double* out = nullptr)
      : start_(std::chrono::steady_clock::now()),
        histogram_(histogram),
        out_(out) {}

  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds since construction without stopping the timer.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Records and returns the elapsed seconds. Idempotent; later calls
  /// return the time recorded by the first.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_ = ElapsedSeconds();
      if (out_ != nullptr) *out_ = elapsed_;
      if (histogram_ != nullptr) histogram_->Observe(elapsed_);
    }
    return elapsed_;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  Histogram* histogram_;
  double* out_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

}  // namespace eadrl::obs

#endif  // EADRL_OBS_METRICS_H_
