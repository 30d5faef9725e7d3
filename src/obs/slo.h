#ifndef EADRL_OBS_SLO_H_
#define EADRL_OBS_SLO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chk/thread_annotations.h"
#include "obs/metrics.h"

// SLO tracking with multi-window burn-rate alerting (see DESIGN.md, "Live
// serving observability"). An objective declares a target good fraction
// (e.g. 99% of predicts under 50 ms); the error budget is 1 - target, and
// the burn rate is how many budgets-per-window the current error rate would
// consume (burn 1.0 = exactly on budget, 2.0 = budget gone in half the
// period). An alert fires only when BOTH a long and a short window burn
// above the threshold — the long window keeps one transient blip from
// paging, the short window ends the alert promptly once the bleeding stops
// (the multiwindow discipline from the SRE workbook). Breach/recover edges
// are counted (`breaches` / `recoveries`) and exported with the report.

namespace eadrl::obs {

/// One objective. `latency_threshold_seconds > 0` makes it a latency
/// objective (RecordLatency classifies against the threshold); 0 makes it a
/// ratio objective fed via Record(good).
struct SloObjectiveSpec {
  std::string name;
  double latency_threshold_seconds = 0.0;
  /// Required good fraction in [0, 1); budget = 1 - target.
  double target = 0.99;
};

struct SloTrackerOptions {
  std::vector<SloObjectiveSpec> objectives;
  /// Both windows must burn at or above this to breach. 1.0 alerts exactly
  /// on budget; the default pages only at 2x burn.
  double burn_threshold = 2.0;
  /// Long window: the paging signal's memory. Short window: the "is it
  /// still happening" signal. Tests inject fake clocks through these.
  WindowOptions long_window{60, 1.0, nullptr};
  WindowOptions short_window{12, 0.5, nullptr};
};

struct SloObjectiveReport {
  std::string name;
  uint64_t good = 0;  ///< cumulative.
  uint64_t bad = 0;   ///< cumulative.
  /// Cumulative error rate over the allowed budget: 1.0 = the whole-lifetime
  /// budget is spent, > 1.0 = overdrawn.
  double budget_consumed = 0.0;
  double burn_rate_long = 0.0;
  double burn_rate_short = 0.0;
  bool breached = false;
  uint64_t breaches = 0;    ///< false->true edges so far.
  uint64_t recoveries = 0;  ///< true->false edges so far.
};

struct SloReport {
  std::vector<SloObjectiveReport> objectives;

  bool AnyBreached() const {
    for (const SloObjectiveReport& o : objectives) {
      if (o.breached) return true;
    }
    return false;
  }
  uint64_t TotalBreaches() const {
    uint64_t n = 0;
    for (const SloObjectiveReport& o : objectives) n += o.breaches;
    return n;
  }
};

/// Thread-safe: Record/RecordLatency are windowed Counter increments (lock
/// free off the rotation tick); Evaluate may run from any thread — edge
/// transitions are serialized per objective by an atomic exchange, so each
/// breach/recover is counted exactly once.
class SloTracker {
 public:
  explicit SloTracker(const SloTrackerOptions& options);

  size_t num_objectives() const { return objectives_.size(); }
  const SloObjectiveSpec& spec(size_t objective) const;

  /// Feeds one outcome to a ratio objective (also legal on latency
  /// objectives when the caller classified the outcome itself).
  void Record(size_t objective, bool good);
  /// Record with a caller-provided reading of the objectives' window clock
  /// (NowNs()) — see SlidingWindow::NowNs for the batch-amortization
  /// contract.
  void RecordAt(uint64_t now_ns, size_t objective, bool good);

  /// Classifies `seconds` against the objective's latency threshold.
  void RecordLatency(size_t objective, double seconds);
  void RecordLatencyAt(uint64_t now_ns, size_t objective, double seconds);

  /// Current reading of the long-window clock (the long and short windows
  /// share WindowOptions::now_ns, so one reading serves both).
  uint64_t NowNs() const;

  /// Re-evaluates burn rates and counts breach/recover edges. Call
  /// periodically (the serving layer calls it per drained batch; the
  /// exporter calls it per export tick).
  void Evaluate();

  SloReport Report() const;

  /// JSON value (an array of objective objects) for exporter sections.
  std::string ToJsonValue() const;
  /// Prometheus exposition lines (eadrl_slo_* gauges/counters).
  void AppendPrometheus(std::string* out) const;

 private:
  struct Objective {
    explicit Objective(const SloTrackerOptions& options);

    SloObjectiveSpec spec;
    /// The long-window counters' Value() is the cumulative good/bad count.
    Counter good_long;
    Counter bad_long;
    Counter good_short;
    Counter bad_short;
    std::atomic<bool> breached{false};
    std::atomic<uint64_t> breaches{0};
    std::atomic<uint64_t> recoveries{0};
  };

  static double BurnRate(double good, double bad, double target);
  SloObjectiveReport ReportFor(const Objective& objective) const;

  SloTrackerOptions opt_;
  /// Const after construction (objectives are fixed at build time); the
  /// per-objective state inside is atomic / internally synchronized.
  std::vector<std::unique_ptr<Objective>> objectives_ EADRL_UNGUARDED;
};

}  // namespace eadrl::obs

#endif  // EADRL_OBS_SLO_H_
