#include "obs/exporter.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eadrl::obs {

MetricsExporter::MetricsExporter(const Options& options) : opt_(options) {
  EADRL_CHECK(!opt_.path.empty());
  EADRL_CHECK_GT(opt_.interval_seconds, 0.0);
}

MetricsExporter::~MetricsExporter() { Stop(); }

void MetricsExporter::AddSection(Section section) {
  EADRL_CHECK(!started_);
  EADRL_CHECK(!section.name.empty());
  sections_.push_back(std::move(section));
}

void MetricsExporter::SetOnExport(std::function<void()> hook) {
  EADRL_CHECK(!started_);
  on_export_ = std::move(hook);
}

void MetricsExporter::Start() {
  EADRL_CHECK(!started_);
  started_ = true;
  {
    std::lock_guard<chk::OrderedMutex> lock(exporter_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void MetricsExporter::Stop() {
  if (!started_) return;
  {
    std::lock_guard<chk::OrderedMutex> lock(exporter_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  started_ = false;
  // Final flush so a short-lived process still leaves a complete snapshot.
  ExportOnce();
}

void MetricsExporter::RunLoop() {
  const auto interval = std::chrono::duration<double>(opt_.interval_seconds);
  std::unique_lock<chk::OrderedMutex> lock(exporter_mu_);
  while (!stop_requested_) {
    if (wake_cv_.wait_for(lock, interval,
                          [this]() EADRL_REQUIRES(exporter_mu_) {
                            return stop_requested_;
                          })) {
      break;
    }
    // Render and write with the lock dropped: an export reads windowed
    // metrics (obs_family/obs_window) and must not serialize against Stop.
    lock.unlock();
    ExportOnce();
    lock.lock();
  }
}

MetricsExporter::Format MetricsExporter::FormatForPath(
    const std::string& path) {
  constexpr const char kJsonExt[] = ".json";
  constexpr size_t kJsonExtLen = sizeof(kJsonExt) - 1;
  if (path.size() >= kJsonExtLen &&
      path.compare(path.size() - kJsonExtLen, kJsonExtLen, kJsonExt) == 0) {
    return Format::kJson;
  }
  return Format::kPrometheus;
}

MetricsExporter::Format MetricsExporter::ResolvedFormat(Format format) const {
  return format == Format::kAuto ? FormatForPath(opt_.path) : format;
}

std::string MetricsExporter::RenderSnapshot(Format format) const {
  format = ResolvedFormat(format);
  if (format == Format::kJson) {
    std::string out = "{\"schema\":\"eadrl-metrics-v1\",\"unix_seconds\":";
    AppendJsonNumber(&out, UnixNowSeconds());
    out += ",\"sequence\":" +
           std::to_string(exports_.load(std::memory_order_relaxed)) +
           ",\"metrics\":" +
           (opt_.registry != nullptr ? opt_.registry->ToJson() : "{}") +
           ",\"sections\":{";
    bool first = true;
    for (const Section& section : sections_) {
      if (!section.json) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      AppendJsonEscaped(&out, section.name);
      out += "\":" + section.json();
    }
    out += "}}\n";
    return out;
  }
  std::string out;
  if (opt_.registry != nullptr) out += opt_.registry->ToPrometheus();
  for (const Section& section : sections_) {
    if (section.prom) section.prom(&out);
  }
  return out;
}

bool MetricsExporter::ExportOnce() {
  Span span("metrics_export");
  if (on_export_) on_export_();
  const std::string doc = RenderSnapshot(Format::kAuto);
  // Write-then-rename keeps the published path atomic: rename(2) replaces
  // the destination in one step on POSIX, so readers never observe a
  // partially written snapshot.
  const std::string tmp = opt_.path + ".tmp";
  bool ok = false;
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (file) {
      file << doc;
      file.flush();
      ok = file.good();
    }
  }
  if (ok) ok = std::rename(tmp.c_str(), opt_.path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    if (failures_.fetch_add(1, std::memory_order_relaxed) == 0) {
      EADRL_LOG(Warning) << "metrics export to " << opt_.path
                         << " failed (further failures counted silently)";
    }
    if (span.armed()) span.SetAttr("failed", true);
    return false;
  }
  const uint64_t seq = exports_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (span.armed()) {
    span.SetAttr("sequence", seq);
    span.SetAttr("bytes", static_cast<uint64_t>(doc.size()));
  }
  return true;
}

}  // namespace eadrl::obs
