#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "chk/chk.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace eadrl::obs {

namespace internal_trace {
std::atomic<TraceBuffer*> g_buffer{nullptr};
}  // namespace internal_trace

namespace {

// In-flight Record guard: SetTraceBuffer(nullptr) must not return while a
// finishing span still holds a buffer pointer, or the caller could destroy
// the buffer under it (pool workers finish their task span *after* the
// task's completion is observable to waiters). Readers increment before
// re-checking the pointer; the disabling store is sequenced against that
// increment, so either the reader sees nullptr and bails or the disabler
// sees the reader and waits. seq_cst keeps the Dekker-style handshake
// obviously correct; the hot-path gate (TracingEnabled) stays relaxed.
std::atomic<int64_t> g_inflight{0};

TraceBuffer* AcquireTraceBuffer() {
  g_inflight.fetch_add(1, std::memory_order_seq_cst);
  TraceBuffer* buffer =
      internal_trace::g_buffer.load(std::memory_order_seq_cst);
  if (buffer == nullptr) {
    g_inflight.fetch_sub(1, std::memory_order_seq_cst);
    return nullptr;
  }
  return buffer;
}

void ReleaseTraceBuffer() {
  g_inflight.fetch_sub(1, std::memory_order_seq_cst);
}

// Id allocators. 0 is reserved as "none" everywhere.
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};

// Per-thread span state. The active pointer only ever holds *armed* spans,
// and only the owning thread reads or writes it, so parent/child bookkeeping
// (including child_seconds_) is single-threaded by construction.
thread_local Span* tl_active = nullptr;
thread_local TraceParent tl_remote{};
thread_local uint32_t tl_tid = 0;

// The process trace epoch: every exported timestamp is relative to the
// first armed span, keeping `ts` values small and Perfetto-friendly.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return kEpoch;
}

std::mutex& ThreadNamesMu() {
  static std::mutex mu;
  return mu;
}

std::map<uint32_t, std::string>& ThreadNames() {
  static std::map<uint32_t, std::string>* names =
      new std::map<uint32_t, std::string>();  // NOLINT(naked-new): leaked on
                                              // purpose so late-exiting
                                              // threads can still register
  return *names;
}

// The registry families one span name feeds: the only aggregate of finished
// spans, read back by SpanProfileSnapshot(). The default registry is never
// Reset, so the pointers stay valid for the process lifetime.
struct ProfilerFamilies {
  Histogram* duration;
  Counter* self_time;
  Counter* alloc_count;
  Counter* alloc_bytes;
};

std::mutex& ProfilerMu() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, ProfilerFamilies>& ProfilerMap() {
  static std::map<std::string, ProfilerFamilies>* families =
      new std::map<std::string, ProfilerFamilies>();  // NOLINT(naked-new):
                                                      // leaked on purpose,
                                                      // like ThreadNames
  return *families;
}

// Per-thread cache of the profiler families, keyed by span-name pointer
// (names are literals): the profiler mutex is paid once per (thread, name)
// instead of once per finished span.
ProfilerFamilies ProfilerFor(const char* name) {
  thread_local std::unordered_map<const void*, ProfilerFamilies> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  ProfilerFamilies families;
  {
    std::lock_guard<std::mutex> lock(ProfilerMu());
    auto [slot, inserted] = ProfilerMap().try_emplace(name);
    if (inserted) {
      MetricRegistry& registry = MetricRegistry::Default();
      const Labels labels = {{"span", name}};
      slot->second.duration =
          registry.GetHistogram("eadrl_span_seconds", {}, labels);
      slot->second.self_time =
          registry.GetCounter("eadrl_span_self_seconds_total", labels);
      slot->second.alloc_count =
          registry.GetCounter("eadrl_span_alloc_count_total", labels);
      slot->second.alloc_bytes =
          registry.GetCounter("eadrl_span_alloc_bytes_total", labels);
    }
    families = slot->second;
  }
  cache.emplace(name, families);
  return families;
}

void AppendFieldJson(std::string* out, const SpanAttr& field) {
  *out += '"';
  AppendJsonEscaped(out, field.key);
  *out += "\":";
  switch (field.type) {
    case SpanAttr::Type::kDouble:
      AppendJsonNumber(out, field.num);
      break;
    case SpanAttr::Type::kInt:
      *out += std::to_string(field.inum);
      break;
    case SpanAttr::Type::kString:
      *out += '"';
      AppendJsonEscaped(out, field.str);
      *out += '"';
      break;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceBuffer.
// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(size_t capacity)
    : per_shard_capacity_(std::max<size_t>(1, capacity / kNumShards)),
      shards_(std::make_unique<Shard[]>(kNumShards)) {}

void TraceBuffer::Record(FinishedSpan span) {
  Shard& shard = shards_[span.span_id % kNumShards];
  std::lock_guard<chk::OrderedMutex> lock(shard.shard_mu);
  if (shard.spans.size() >= per_shard_capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.spans.push_back(std::move(span));
}

std::vector<FinishedSpan> TraceBuffer::Snapshot() const {
  std::vector<FinishedSpan> out;
  for (size_t i = 0; i < kNumShards; ++i) {
    std::lock_guard<chk::OrderedMutex> lock(shards_[i].shard_mu);
    out.insert(out.end(), shards_[i].spans.begin(), shards_[i].spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FinishedSpan& a, const FinishedSpan& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.span_id < b.span_id;
            });
  return out;
}

size_t TraceBuffer::size() const {
  size_t n = 0;
  for (size_t i = 0; i < kNumShards; ++i) {
    std::lock_guard<chk::OrderedMutex> lock(shards_[i].shard_mu);
    n += shards_[i].spans.size();
  }
  return n;
}

std::string TraceBuffer::ToChromeTraceJson() const {
  const std::vector<FinishedSpan> spans = Snapshot();
  std::map<uint32_t, std::string> names;
  {
    std::lock_guard<std::mutex> lock(ThreadNamesMu());
    names = ThreadNames();
  }
  std::string out;
  out.reserve(256 + spans.size() * 160);
  out +=
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"eadrl\"}}";
  for (const auto& [tid, name] : names) {
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, name);
    out += "\"}}";
  }
  for (const FinishedSpan& span : spans) {
    out += ",{\"name\":\"";
    AppendJsonEscaped(&out, span.name);
    out += "\",\"cat\":\"eadrl\",\"ph\":\"X\",\"ts\":";
    out += FormatDouble(span.start_us, 3);
    out += ",\"dur\":";
    out += FormatDouble(span.dur_us, 3);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(span.tid);
    out += ",\"args\":{\"trace_id\":";
    out += std::to_string(span.trace_id);
    out += ",\"span_id\":";
    out += std::to_string(span.span_id);
    if (span.parent_id != 0) {
      out += ",\"parent_id\":";
      out += std::to_string(span.parent_id);
    }
    for (const SpanAttr& field : span.attrs) {
      out += ',';
      AppendFieldJson(&out, field);
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":";
  out += std::to_string(dropped());
  out += "}}";
  return out;
}

Status TraceBuffer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("trace: cannot open " + path);
  }
  out << ToChromeTraceJson() << "\n";
  out.flush();
  if (!out) {
    return Status::Internal("trace: write to " + path + " failed");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Global buffer installation.
// ---------------------------------------------------------------------------

void SetTraceBuffer(TraceBuffer* buffer) {
  internal_trace::g_buffer.store(buffer, std::memory_order_seq_cst);
  if (buffer == nullptr) {
    // Drain in-flight recordings so the caller may free the old buffer.
    while (g_inflight.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

TraceBuffer* GetTraceBuffer() {
  return internal_trace::g_buffer.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Thread identity.
// ---------------------------------------------------------------------------

uint32_t CurrentTraceTid() {
  if (tl_tid == 0) {
    tl_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return tl_tid;
}

void SetCurrentThreadTraceName(const std::string& name) {
  const uint32_t tid = CurrentTraceTid();
  std::lock_guard<std::mutex> lock(ThreadNamesMu());
  ThreadNames()[tid] = name;
}

// ---------------------------------------------------------------------------
// Span + cross-thread parenting.
// ---------------------------------------------------------------------------

TraceParent CurrentTraceParent() {
  if (tl_active != nullptr) {
    return TraceParent{tl_active->trace_id(), tl_active->span_id()};
  }
  return tl_remote;
}

ScopedTraceParent::ScopedTraceParent(TraceParent parent)
    : saved_active_(tl_active), saved_remote_(tl_remote) {
  tl_active = nullptr;
  tl_remote = parent;
  if (saved_active_ != nullptr) {
    timing_ = true;
    start_ = std::chrono::steady_clock::now();
    const AllocStats alloc = ThreadAllocStats();
    start_alloc_count_ = alloc.count;
    start_alloc_bytes_ = alloc.bytes;
  }
}

ScopedTraceParent::~ScopedTraceParent() {
  if (timing_) {
    // The masked span spent this whole window running someone else's work
    // (a waiter helping the pool); credit it as child time — and the
    // window's allocations as child allocations — so its self numbers stay
    // what it actually computed.
    saved_active_->child_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const AllocStats alloc = ThreadAllocStats();
    saved_active_->child_alloc_count_ += alloc.count - start_alloc_count_;
    saved_active_->child_alloc_bytes_ += alloc.bytes - start_alloc_bytes_;
  }
  tl_active = saved_active_;
  tl_remote = saved_remote_;
}

Span::Span(const char* name) : name_(name) {
  if (!TracingEnabled()) return;  // the ~1 ns disabled path.
  armed_ = true;
  TraceEpoch();  // pin the epoch no later than the first armed span.
  start_ = std::chrono::steady_clock::now();
  const AllocStats alloc = ThreadAllocStats();
  start_alloc_count_ = alloc.count;
  start_alloc_bytes_ = alloc.bytes;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (tl_active != nullptr) {
    trace_id_ = tl_active->trace_id_;
    parent_id_ = tl_active->span_id_;
  } else if (tl_remote.span_id != 0) {
    trace_id_ = tl_remote.trace_id;
    parent_id_ = tl_remote.span_id;
  } else {
    trace_id_ = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
    parent_id_ = 0;
  }
  parent_span_ = tl_active;
  tl_active = this;
}

Span::~Span() {
  if (armed_) Finish();
}

void Span::Finish() {
  EADRL_CHK(tl_active == this, "Span destroyed out of LIFO order");
  armed_ = false;
  const double dur_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  tl_active = parent_span_;

  // Allocation attribution, mirroring the time bookkeeping: the thread-local
  // delta over the span's lifetime, minus what child spans (and masked
  // helping windows) already claimed, is this span's self share. Deltas use
  // the same thread's counters only, so the arithmetic is race-free.
  const AllocStats alloc = ThreadAllocStats();
  const uint64_t alloc_count = alloc.count - start_alloc_count_;
  const uint64_t alloc_bytes = alloc.bytes - start_alloc_bytes_;
  const uint64_t self_alloc_count =
      alloc_count - std::min(child_alloc_count_, alloc_count);
  const uint64_t self_alloc_bytes =
      alloc_bytes - std::min(child_alloc_bytes_, alloc_bytes);
  if (parent_span_ != nullptr) {
    parent_span_->child_seconds_ += dur_seconds;
    parent_span_->child_alloc_count_ += alloc_count;
    parent_span_->child_alloc_bytes_ += alloc_bytes;
  }

  // Span-fed profiler: per-name duration histogram + self-time/allocation
  // counters in the default registry, so `--metrics-summary` doubles as a
  // hot-spot table even when the trace itself is discarded.
  const ProfilerFamilies families = ProfilerFor(name_);
  families.duration->Observe(dur_seconds);
  const double self_seconds = std::max(0.0, dur_seconds - child_seconds_);
  families.self_time->Inc(self_seconds);
  if (self_alloc_count > 0) {
    families.alloc_count->Inc(static_cast<double>(self_alloc_count));
    families.alloc_bytes->Inc(static_cast<double>(self_alloc_bytes));
  }
  if (self_alloc_count > 0) {
    attrs_.emplace_back("alloc_count",
                        static_cast<int64_t>(self_alloc_count));
    attrs_.emplace_back("alloc_bytes",
                        static_cast<int64_t>(self_alloc_bytes));
  }

  TraceBuffer* buffer = AcquireTraceBuffer();
  if (buffer == nullptr) return;  // sink was removed while the span ran.
  FinishedSpan finished;
  finished.name = name_;
  finished.trace_id = trace_id_;
  finished.span_id = span_id_;
  finished.parent_id = parent_id_;
  finished.tid = CurrentTraceTid();
  finished.start_us =
      std::chrono::duration<double, std::micro>(start_ - TraceEpoch())
          .count();
  finished.dur_us = dur_seconds * 1e6;
  finished.attrs = std::move(attrs_);
  buffer->Record(std::move(finished));
  ReleaseTraceBuffer();
}

// ---------------------------------------------------------------------------
// Span profiler aggregates.
// ---------------------------------------------------------------------------

std::vector<SpanProfileRow> SpanProfileSnapshot() {
  std::vector<SpanProfileRow> rows;
  {
    std::lock_guard<std::mutex> lock(ProfilerMu());
    for (const auto& [name, families] : ProfilerMap()) {
      const HistogramSnapshot duration = families.duration->Snapshot();
      SpanProfileRow row;
      row.name = name;
      row.count = duration.count;
      row.total_seconds = duration.sum;
      row.self_seconds = families.self_time->Value();
      row.alloc_count = static_cast<uint64_t>(families.alloc_count->Value());
      row.alloc_bytes = static_cast<uint64_t>(families.alloc_bytes->Value());
      if (row.count > 0) rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const SpanProfileRow& a, const SpanProfileRow& b) {
              if (a.self_seconds != b.self_seconds) {
                return a.self_seconds > b.self_seconds;
              }
              return a.name < b.name;
            });
  return rows;
}

std::string FormatSpanProfileReport(size_t top_n) {
  const std::vector<SpanProfileRow> rows = SpanProfileSnapshot();
  std::string out;
  out += PadRight("span", 20) + PadLeft("count", 10) +
         PadLeft("total_s", 12) + PadLeft("self_s", 12) +
         PadLeft("self%", 8) + PadLeft("allocs", 12) +
         PadLeft("alloc_bytes", 14) + "\n";
  double self_total = 0.0;
  for (const SpanProfileRow& row : rows) self_total += row.self_seconds;
  size_t shown = 0;
  for (const SpanProfileRow& row : rows) {
    if (shown++ >= top_n) break;
    const double pct =
        self_total > 0.0 ? 100.0 * row.self_seconds / self_total : 0.0;
    out += PadRight(row.name, 20) + PadLeft(std::to_string(row.count), 10) +
           PadLeft(FormatDouble(row.total_seconds, 6), 12) +
           PadLeft(FormatDouble(row.self_seconds, 6), 12) +
           PadLeft(FormatDouble(pct, 1), 8) +
           PadLeft(std::to_string(row.alloc_count), 12) +
           PadLeft(std::to_string(row.alloc_bytes), 14) + "\n";
  }
  if (rows.empty()) {
    out += "(no spans profiled; run with tracing enabled)\n";
  } else if (rows.size() > top_n) {
    // Sequential appends: GCC-12's -Wrestrict misfires on the
    // `const char* + std::string&&` concatenation chain here.
    out += "(";
    out += std::to_string(rows.size() - top_n);
    out += " more spans)\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Span registry (src/obs/spans.def).
// ---------------------------------------------------------------------------

const std::vector<const char*>& RegisteredSpans() {
  static const std::vector<const char*> kSpans = {
#define EADRL_SPAN(name, description) #name,
#include "obs/spans.def"
#undef EADRL_SPAN
  };
  return kSpans;
}

bool IsRegisteredSpan(const char* name) {
  for (const char* registered : RegisteredSpans()) {
    if (std::strcmp(registered, name) == 0) return true;
  }
  return false;
}

}  // namespace eadrl::obs
