#include "obs/telemetry.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace eadrl::obs {

namespace internal_telemetry {
std::atomic<TelemetrySink*> g_sink{nullptr};
}  // namespace internal_telemetry

void SetTelemetrySink(TelemetrySink* sink) {
  internal_telemetry::g_sink.store(sink, std::memory_order_release);
}

TelemetrySink* GetTelemetrySink() {
  return internal_telemetry::g_sink.load(std::memory_order_acquire);
}

namespace {

// Ambient fields of the current thread (outermost scope first). A
// function-local static avoids any thread_local init-order issues.
std::vector<TelemetryField>& MutableContext() {
  thread_local std::vector<TelemetryField> ctx;
  return ctx;
}

}  // namespace

TelemetryScope::TelemetryScope(const char* key, std::string value) {
  MutableContext().emplace_back(key, std::move(value));
}

TelemetryScope::~TelemetryScope() { MutableContext().pop_back(); }

std::vector<TelemetryField> TelemetryContext() { return MutableContext(); }

ScopedTelemetryContext::ScopedTelemetryContext(
    std::vector<TelemetryField> fields)
    : saved_(std::exchange(MutableContext(), std::move(fields))) {}

ScopedTelemetryContext::~ScopedTelemetryContext() {
  MutableContext() = std::move(saved_);
}

const std::vector<const char*>& RegisteredEvents() {
  static const std::vector<const char*> kEvents = {
#define EADRL_EVENT(kind, description) #kind,
#include "obs/events.def"
#undef EADRL_EVENT
  };
  return kEvents;
}

bool IsRegisteredEvent(const char* kind) {
  for (const char* name : RegisteredEvents()) {
    if (std::strcmp(name, kind) == 0) return true;
  }
  return false;
}

void Emit(const char* kind, std::vector<TelemetryField> fields) {
  TelemetrySink* sink = GetTelemetrySink();
  if (sink == nullptr) return;
  TelemetryEvent event;
  event.kind = kind;
  event.unix_seconds = UnixNowSeconds();
  event.fields = std::move(fields);
  const std::vector<TelemetryField>& ctx = MutableContext();
  event.fields.insert(event.fields.end(), ctx.begin(), ctx.end());
  sink->Record(event);
}

std::string EventToJson(const TelemetryEvent& event) {
  std::string out = "{\"ts\":\"" + FormatIso8601Utc(event.unix_seconds) +
                    "\",\"unix\":";
  AppendJsonNumber(&out, event.unix_seconds);
  out += ",\"kind\":\"";
  AppendJsonEscaped(&out, event.kind);
  out += '"';
  for (const TelemetryField& f : event.fields) {
    out += ",\"";
    AppendJsonEscaped(&out, f.key);
    out += "\":";
    switch (f.type) {
      case TelemetryField::Type::kDouble:
        AppendJsonNumber(&out, f.num);
        break;
      case TelemetryField::Type::kInt:
        out += std::to_string(f.inum);
        break;
      case TelemetryField::Type::kString:
        out += '"';
        AppendJsonEscaped(&out, f.str);
        out += '"';
        break;
    }
  }
  out += '}';
  return out;
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : file_(path, std::ios::app) {
  if (file_) {
    out_ = &file_;
  } else {
    EADRL_LOG(Warning) << "telemetry: cannot open " << path
                       << "; events will be dropped";
  }
}

JsonLinesSink::JsonLinesSink(std::ostream* out) : out_(out) {}

void JsonLinesSink::Record(const TelemetryEvent& event) {
  std::string line = EventToJson(event);
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  (*out_) << line << "\n";
  if (!*out_ && !warned_) {
    warned_ = true;
    EADRL_LOG(Warning) << "telemetry: write failed; subsequent events may "
                          "be lost";
  }
}

void JsonLinesSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) out_->flush();
}

void CollectingSink::Record(const TelemetryEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<TelemetryEvent> CollectingSink::TakeEvents() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TelemetryEvent> out = std::move(events_);
  events_.clear();
  return out;
}

size_t CollectingSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

}  // namespace eadrl::obs
