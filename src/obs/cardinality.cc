#include "obs/cardinality.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace eadrl::obs {

LabeledWindowedFamily::LabeledWindowedFamily(
    const LabeledWindowedFamilyOptions& options)
    : opt_(options) {
  EADRL_CHECK(!opt_.name.empty());
  EADRL_CHECK_GT(opt_.max_labels, 0u);
  const double span_seconds =
      opt_.window.tick_seconds * static_cast<double>(opt_.window.buckets);
  stale_ns_ = static_cast<uint64_t>(span_seconds * 1e9);
  if (stale_ns_ == 0) stale_ns_ = 1;
}

uint64_t LabeledWindowedFamily::NowNs() const {
  return opt_.window.now_ns != nullptr ? opt_.window.now_ns()
                                       : MonotonicNowNs();
}

void LabeledWindowedFamily::Observe(const std::string& label, double value) {
  ObserveAt(NowNs(), label, value);
}

void LabeledWindowedFamily::ObserveAt(uint64_t now, const std::string& label,
                                      double value) {
  std::lock_guard<chk::OrderedMutex> lock(family_mu_);
  auto it = slots_.find(label);
  if (it == slots_.end()) {
    if (slots_.size() >= opt_.max_labels) {
      // At the cap a new label may only displace the LRU tail, and only if
      // the tail has idled past the full window span — its sub-windows are
      // all zero by now, so nothing observable is lost. An active tail means
      // the cap is genuinely contended: count the drop and keep the
      // established labels stable.
      const std::string& victim_label = lru_.back();
      auto victim = slots_.find(victim_label);
      EADRL_CHECK(victim != slots_.end());
      const uint64_t last = victim->second->last_seen_ns;
      if (now < last || now - last < stale_ns_) {
        overflow_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      slots_.erase(victim);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    auto slot = std::make_unique<Slot>(opt_);
    lru_.push_front(label);
    slot->lru_pos = lru_.begin();
    it = slots_.emplace(label, std::move(slot)).first;
  } else if (it->second->lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second->lru_pos);
  }
  it->second->last_seen_ns = now;
  it->second->window.ObserveAt(now, value);
}

LabeledWindowedFamilySnapshot LabeledWindowedFamily::Snapshot(size_t k) const {
  LabeledWindowedFamilySnapshot snap;
  {
    std::lock_guard<chk::OrderedMutex> lock(family_mu_);
    snap.tracked_labels = slots_.size();
    snap.top.reserve(slots_.size());
    for (const auto& [label, slot] : slots_) {
      LabeledWindowSnapshot entry;
      entry.label = label;
      entry.window = slot->window.Snapshot();
      entry.cumulative_count = slot->window.Count();
      snap.top.push_back(std::move(entry));
    }
  }
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  std::sort(snap.top.begin(), snap.top.end(),
            [](const LabeledWindowSnapshot& a, const LabeledWindowSnapshot& b) {
              if (a.window.count != b.window.count) {
                return a.window.count > b.window.count;
              }
              if (a.cumulative_count != b.cumulative_count) {
                return a.cumulative_count > b.cumulative_count;
              }
              return a.label < b.label;
            });
  if (k > 0 && snap.top.size() > k) snap.top.resize(k);
  return snap;
}

size_t LabeledWindowedFamily::TrackedLabels() const {
  std::lock_guard<chk::OrderedMutex> lock(family_mu_);
  return slots_.size();
}

std::string LabeledWindowedFamily::ToJsonValue(size_t k) const {
  const LabeledWindowedFamilySnapshot snap = Snapshot(k);
  std::string out = "{\"label_key\":\"";
  AppendJsonEscaped(&out, opt_.label_key);
  out += "\",\"tracked\":" + std::to_string(snap.tracked_labels) +
         ",\"overflow\":" + std::to_string(snap.overflow) +
         ",\"evictions\":" + std::to_string(snap.evictions) + ",\"top\":[";
  for (size_t i = 0; i < snap.top.size(); ++i) {
    const LabeledWindowSnapshot& entry = snap.top[i];
    if (i > 0) out += ',';
    out += "{\"";
    AppendJsonEscaped(&out, opt_.label_key);
    out += "\":\"";
    AppendJsonEscaped(&out, entry.label);
    out += "\",\"window_count\":" + std::to_string(entry.window.count) +
           ",\"cumulative_count\":" + std::to_string(entry.cumulative_count);
    for (const auto& [key, value] :
         {std::pair<const char*, double>{"window_seconds",
                                         entry.window.window_seconds},
          {"rate", entry.window.Rate()},
          {"mean", entry.window.Mean()},
          {"p50", entry.window.Quantile(0.5)},
          {"p99", entry.window.Quantile(0.99)}}) {
      out += ",\"";
      out += key;
      out += "\":";
      AppendJsonNumber(&out, value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void LabeledWindowedFamily::AppendPrometheus(std::string* out,
                                             size_t k) const {
  const LabeledWindowedFamilySnapshot snap = Snapshot(k);
  const std::string rate = opt_.name + "_rate";
  AppendPrometheusType(out, rate, "gauge");
  for (const LabeledWindowSnapshot& entry : snap.top) {
    AppendPrometheusSample(out, rate, {{opt_.label_key, entry.label}},
                           entry.window.Rate());
  }
  const std::string p99 = opt_.name + "_p99";
  AppendPrometheusType(out, p99, "gauge");
  for (const LabeledWindowSnapshot& entry : snap.top) {
    AppendPrometheusSample(out, p99, {{opt_.label_key, entry.label}},
                           entry.window.Quantile(0.99));
  }
  for (const auto& [suffix, type, value] :
       {std::tuple<const char*, const char*, double>{
            "_tracked", "gauge", static_cast<double>(snap.tracked_labels)},
        {"_overflow_total", "counter", static_cast<double>(snap.overflow)},
        {"_evictions_total", "counter",
         static_cast<double>(snap.evictions)}}) {
    const std::string name = opt_.name + suffix;
    AppendPrometheusType(out, name, type);
    AppendPrometheusSample(out, name, {}, value);
  }
}

}  // namespace eadrl::obs
