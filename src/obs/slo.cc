#include "obs/slo.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace eadrl::obs {
namespace {

// A target of exactly 1.0 leaves zero budget; clamping keeps the burn-rate
// division finite (any error then burns astronomically, which is the right
// answer for "nothing may ever fail").
constexpr double kMinBudget = 1e-9;

}  // namespace

SloTracker::Objective::Objective(const SloTrackerOptions& options)
    : good_long(options.long_window),
      bad_long(options.long_window),
      good_short(options.short_window),
      bad_short(options.short_window) {}

SloTracker::SloTracker(const SloTrackerOptions& options) : opt_(options) {
  EADRL_CHECK(!opt_.objectives.empty());
  EADRL_CHECK_GT(opt_.burn_threshold, 0.0);
  objectives_.reserve(opt_.objectives.size());
  for (const SloObjectiveSpec& spec : opt_.objectives) {
    EADRL_CHECK(spec.target >= 0.0 && spec.target <= 1.0);
    auto objective = std::make_unique<Objective>(opt_);
    objective->spec = spec;
    objectives_.push_back(std::move(objective));
  }
}

const SloObjectiveSpec& SloTracker::spec(size_t objective) const {
  EADRL_CHECK_LT(objective, objectives_.size());
  return objectives_[objective]->spec;
}

uint64_t SloTracker::NowNs() const {
  return opt_.long_window.now_ns != nullptr ? opt_.long_window.now_ns()
                                            : MonotonicNowNs();
}

void SloTracker::Record(size_t objective, bool good) {
  RecordAt(NowNs(), objective, good);
}

void SloTracker::RecordAt(uint64_t now_ns, size_t objective, bool good) {
  EADRL_CHECK_LT(objective, objectives_.size());
  Objective& o = *objectives_[objective];
  if (good) {
    o.good_long.IncAt(now_ns);
    o.good_short.IncAt(now_ns);
  } else {
    o.bad_long.IncAt(now_ns);
    o.bad_short.IncAt(now_ns);
  }
}

void SloTracker::RecordLatency(size_t objective, double seconds) {
  RecordLatencyAt(NowNs(), objective, seconds);
}

void SloTracker::RecordLatencyAt(uint64_t now_ns, size_t objective,
                                 double seconds) {
  EADRL_CHECK_LT(objective, objectives_.size());
  const double threshold = objectives_[objective]->spec.latency_threshold_seconds;
  EADRL_CHECK_GT(threshold, 0.0);
  RecordAt(now_ns, objective, seconds <= threshold);
}

double SloTracker::BurnRate(double good, double bad, double target) {
  const double total = good + bad;
  if (total <= 0.0) return 0.0;
  const double error_rate = bad / total;
  const double budget = std::max(1.0 - target, kMinBudget);
  return error_rate / budget;
}

void SloTracker::Evaluate() {
  for (std::unique_ptr<Objective>& objective : objectives_) {
    Objective& o = *objective;
    const CounterSnapshot good_long = o.good_long.Snapshot();
    const CounterSnapshot bad_long = o.bad_long.Snapshot();
    const CounterSnapshot good_short = o.good_short.Snapshot();
    const CounterSnapshot bad_short = o.bad_short.Snapshot();
    const double burn_long =
        BurnRate(good_long.total, bad_long.total, o.spec.target);
    const double burn_short =
        BurnRate(good_short.total, bad_short.total, o.spec.target);
    const bool breach = bad_long.total > 0.0 &&
                        burn_long >= opt_.burn_threshold &&
                        burn_short >= opt_.burn_threshold;
    if (breach) {
      // The exchange serializes racing evaluators: exactly one sees the
      // false->true edge and counts it.
      if (!o.breached.exchange(true, std::memory_order_acq_rel)) {
        o.breaches.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (o.breached.exchange(false, std::memory_order_acq_rel)) {
      o.recoveries.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

SloObjectiveReport SloTracker::ReportFor(const Objective& o) const {
  SloObjectiveReport report;
  report.name = o.spec.name;
  report.good = static_cast<uint64_t>(o.good_long.Value());
  report.bad = static_cast<uint64_t>(o.bad_long.Value());
  const double total = static_cast<double>(report.good + report.bad);
  const double budget = std::max(1.0 - o.spec.target, kMinBudget);
  report.budget_consumed =
      total > 0.0 ? (static_cast<double>(report.bad) / total) / budget : 0.0;
  report.burn_rate_long = BurnRate(o.good_long.Snapshot().total,
                                   o.bad_long.Snapshot().total, o.spec.target);
  report.burn_rate_short =
      BurnRate(o.good_short.Snapshot().total, o.bad_short.Snapshot().total,
               o.spec.target);
  report.breached = o.breached.load(std::memory_order_relaxed);
  report.breaches = o.breaches.load(std::memory_order_relaxed);
  report.recoveries = o.recoveries.load(std::memory_order_relaxed);
  return report;
}

SloReport SloTracker::Report() const {
  SloReport report;
  report.objectives.reserve(objectives_.size());
  for (const std::unique_ptr<Objective>& objective : objectives_) {
    report.objectives.push_back(ReportFor(*objective));
  }
  return report;
}

std::string SloTracker::ToJsonValue() const {
  const SloReport report = Report();
  std::string out = "[";
  for (size_t i = 0; i < report.objectives.size(); ++i) {
    const SloObjectiveReport& o = report.objectives[i];
    if (i > 0) out += ',';
    out += "{\"objective\":\"";
    AppendJsonEscaped(&out, o.name);
    out += "\",\"good\":" + std::to_string(o.good) +
           ",\"bad\":" + std::to_string(o.bad) + ",\"budget_consumed\":";
    AppendJsonNumber(&out, o.budget_consumed);
    out += ",\"burn_rate_long\":";
    AppendJsonNumber(&out, o.burn_rate_long);
    out += ",\"burn_rate_short\":";
    AppendJsonNumber(&out, o.burn_rate_short);
    out += std::string(",\"breached\":") + (o.breached ? "true" : "false") +
           ",\"breaches\":" + std::to_string(o.breaches) +
           ",\"recoveries\":" + std::to_string(o.recoveries) + "}";
  }
  out += "]";
  return out;
}

void SloTracker::AppendPrometheus(std::string* out) const {
  const SloReport report = Report();
  AppendPrometheusType(out, "eadrl_slo_burn_rate", "gauge");
  for (const SloObjectiveReport& o : report.objectives) {
    AppendPrometheusSample(out, "eadrl_slo_burn_rate",
                           {{"objective", o.name}, {"window", "long"}},
                           o.burn_rate_long);
    AppendPrometheusSample(out, "eadrl_slo_burn_rate",
                           {{"objective", o.name}, {"window", "short"}},
                           o.burn_rate_short);
  }
  AppendPrometheusType(out, "eadrl_slo_budget_consumed", "gauge");
  for (const SloObjectiveReport& o : report.objectives) {
    AppendPrometheusSample(out, "eadrl_slo_budget_consumed",
                           {{"objective", o.name}}, o.budget_consumed);
  }
  AppendPrometheusType(out, "eadrl_slo_breached", "gauge");
  for (const SloObjectiveReport& o : report.objectives) {
    AppendPrometheusSample(out, "eadrl_slo_breached", {{"objective", o.name}},
                           o.breached ? 1.0 : 0.0);
  }
  AppendPrometheusType(out, "eadrl_slo_breaches_total", "counter");
  for (const SloObjectiveReport& o : report.objectives) {
    AppendPrometheusSample(out, "eadrl_slo_breaches_total",
                           {{"objective", o.name}},
                           static_cast<double>(o.breaches));
  }
}

}  // namespace eadrl::obs
