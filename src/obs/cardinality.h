#ifndef EADRL_OBS_CARDINALITY_H_
#define EADRL_OBS_CARDINALITY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "obs/metrics.h"

// Per-label windowed drill-down with a hard cardinality bound (see DESIGN.md,
// "Live serving observability"). Labeled time series are the classic metrics
// footgun: a tenant id is user-controlled, so an unbounded map of
// per-tenant histograms is an unbounded memory (and scrape-size) leak. A
// LabeledWindowedFamily caps the live label set at `max_labels`; when the cap
// is hit, a new label may only displace the least-recently-observed slot if
// that slot has gone a full window span without an observation (so an active
// tenant's window is never torn down mid-flight). Otherwise the observation
// is counted in `overflow` and dropped from the drill-down — the unlabeled
// aggregate metrics still see every event, so nothing is lost from totals.

namespace eadrl::obs {

struct LabeledWindowedFamilyOptions {
  /// Metric family name used by the exporters (e.g.
  /// "eadrl_serve_tenant_predict_latency_seconds").
  std::string name;
  /// Label key rendered on every series (e.g. "tenant").
  std::string label_key = "label";
  /// Hard cap on simultaneously tracked labels.
  size_t max_labels = 64;
  WindowOptions window;
  /// Histogram bucket bounds; empty = Histogram::DefaultLatencyBounds().
  std::vector<double> bounds;
};

/// One label's drill-down view at snapshot time.
struct LabeledWindowSnapshot {
  std::string label;
  HistogramSnapshot window;
  uint64_t cumulative_count = 0;
};

struct LabeledWindowedFamilySnapshot {
  /// Sorted by windowed count descending (most active first), truncated to
  /// the requested top-K.
  std::vector<LabeledWindowSnapshot> top;
  size_t tracked_labels = 0;  ///< live slots (<= max_labels, always).
  uint64_t overflow = 0;      ///< observations dropped at the cap.
  uint64_t evictions = 0;     ///< stale slots displaced by new labels.
};

/// Thread-safe. Observe serializes on one family mutex (label lookup + LRU
/// bump are O(1)); the per-slot windowed histogram update happens under it,
/// which is the registered obs_family -> obs_window nesting. This family lock
/// is a deliberate trade: drill-down metrics are sampled per-request on the
/// serving path, where a single uncontended lock (tens of ns) is noise next
/// to a model forward pass.
class LabeledWindowedFamily {
 public:
  explicit LabeledWindowedFamily(const LabeledWindowedFamilyOptions& options);

  void Observe(const std::string& label, double value);
  /// Observe with a caller-provided reading of this family's window clock
  /// (NowNs()) — see SlidingWindow::NowNs for the batch-amortization
  /// contract.
  void ObserveAt(uint64_t now_ns, const std::string& label, double value);

  /// Current reading of the family's window clock (injected or monotonic).
  uint64_t NowNs() const;

  /// Top `k` labels by windowed activity plus the guard counters. `k = 0`
  /// means all tracked labels.
  LabeledWindowedFamilySnapshot Snapshot(size_t k = 0) const;

  size_t TrackedLabels() const;
  uint64_t Overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  uint64_t Evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  const LabeledWindowedFamilyOptions& options() const { return opt_; }

  /// JSON value: {"tracked":N,"overflow":N,"evictions":N,"top":[...]}.
  std::string ToJsonValue(size_t k = 0) const;
  /// Prometheus exposition: <name>_rate / <name>_p99 gauges per top-K label
  /// plus <name>_overflow_total / <name>_evictions_total / <name>_tracked.
  void AppendPrometheus(std::string* out, size_t k = 0) const;

 private:
  struct Slot {
    explicit Slot(const LabeledWindowedFamilyOptions& options)
        : window(options.window, options.bounds) {}

    Histogram window;
    /// now_ns at the last observation; staleness = now - last_seen_ns.
    uint64_t last_seen_ns = 0;
    /// Position in lru_ (front = most recently observed).
    std::list<std::string>::iterator lru_pos;
  };

  LabeledWindowedFamilyOptions opt_;
  /// Full window span in ns: a slot idle at least this long holds no live
  /// sub-window data, so evicting it loses nothing.
  uint64_t stale_ns_;
  mutable chk::OrderedMutex family_mu_{
      EADRL_LOCK_RANK(obs_family), "obs::LabeledWindowedFamily::family_mu_"};
  std::unordered_map<std::string, std::unique_ptr<Slot>> slots_
      EADRL_GUARDED_BY(family_mu_);
  /// Most recently observed label at the front.
  std::list<std::string> lru_ EADRL_GUARDED_BY(family_mu_);
  std::atomic<uint64_t> overflow_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace eadrl::obs

#endif  // EADRL_OBS_CARDINALITY_H_
