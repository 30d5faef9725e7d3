#ifndef EADRL_OBS_TRACE_H_
#define EADRL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "common/status.h"

namespace eadrl::obs {

class TraceBuffer;

/// One key/value attribute of a span. Keys are string literals (the
/// attribute schema is static, see DESIGN.md "Observability"), values are
/// numeric or string.
struct SpanAttr {
  enum class Type { kDouble, kInt, kString };

  SpanAttr(const char* k, double v) : key(k), type(Type::kDouble), num(v) {}
  SpanAttr(const char* k, int v) : key(k), type(Type::kInt), inum(v) {}
  SpanAttr(const char* k, long v) : key(k), type(Type::kInt), inum(v) {}
  SpanAttr(const char* k, long long v)
      : key(k), type(Type::kInt), inum(static_cast<int64_t>(v)) {}
  SpanAttr(const char* k, unsigned v) : key(k), type(Type::kInt), inum(v) {}
  SpanAttr(const char* k, unsigned long v)
      : key(k), type(Type::kInt), inum(static_cast<int64_t>(v)) {}
  SpanAttr(const char* k, unsigned long long v)
      : key(k), type(Type::kInt), inum(static_cast<int64_t>(v)) {}
  SpanAttr(const char* k, bool v)
      : key(k), type(Type::kInt), inum(v ? 1 : 0) {}
  SpanAttr(const char* k, std::string v)
      : key(k), type(Type::kString), str(std::move(v)) {}
  SpanAttr(const char* k, const char* v)
      : key(k), type(Type::kString), str(v) {}

  const char* key;
  Type type;
  double num = 0.0;
  int64_t inum = 0;
  std::string str;
};

/// A completed span, as recorded into a TraceBuffer. Timestamps are
/// microseconds on std::chrono::steady_clock, relative to a process-wide
/// trace epoch (the first span ever armed), which is exactly the shape the
/// Chrome trace-event `ts`/`dur` fields want.
struct FinishedSpan {
  const char* name = "";
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for a trace root.
  uint32_t tid = 0;        ///< small per-thread id (see CurrentTraceTid).
  double start_us = 0.0;
  double dur_us = 0.0;
  std::vector<SpanAttr> attrs;
};

namespace internal_trace {
extern std::atomic<TraceBuffer*> g_buffer;
}  // namespace internal_trace

/// Lock-sharded in-memory span sink. `Record` takes one shard mutex (shards
/// are selected by span id, so concurrent finishing threads rarely collide);
/// the total capacity is a hard cap — spans past it are counted in
/// `dropped()` rather than growing without bound.
class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 20;

  explicit TraceBuffer(size_t capacity = kDefaultCapacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void Record(FinishedSpan span);

  /// All recorded spans, sorted by start time (span id breaks ties).
  std::vector<FinishedSpan> Snapshot() const;

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Serializes the buffer to Chrome trace-event JSON
  /// (`{"traceEvents":[...]}`, `ph:"X"` duration events plus thread-name
  /// metadata) — loadable in Perfetto / chrome://tracing. See DESIGN.md,
  /// "Tracing & profiling" for the field mapping.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path` (truncating).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kNumShards = 16;

  struct Shard {
    /// obs_trace_shard is the LAST rank in lock_order.def: spans finish (and
    /// record) from under arbitrary domain locks, so nothing may be
    /// acquired while a shard is held.
    mutable chk::OrderedMutex shard_mu{EADRL_LOCK_RANK(obs_trace_shard),
                                       "obs::TraceBuffer::Shard::shard_mu"};
    std::vector<FinishedSpan> spans EADRL_GUARDED_BY(shard_mu);
  };

  size_t per_shard_capacity_;
  std::atomic<uint64_t> dropped_{0};
  std::unique_ptr<Shard[]> shards_;
};

/// Installs a process-wide trace buffer (not owned; nullptr disables
/// tracing). Disabling blocks briefly until every in-flight `Record` has
/// drained, so the caller may destroy the buffer immediately afterwards even
/// while pool workers are finishing their last spans.
void SetTraceBuffer(TraceBuffer* buffer);
TraceBuffer* GetTraceBuffer();

/// True when a trace buffer is installed. This is the hot-path gate: a
/// single relaxed atomic load, so an un-traced Span construction costs ~1 ns
/// (see bench/trace_bench.cc).
inline bool TracingEnabled() {
  return internal_trace::g_buffer.load(std::memory_order_relaxed) != nullptr;
}

/// The (trace id, span id) pair a task inherits across threads.
struct TraceParent {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// The calling thread's current span identity: the innermost live Span if
/// any, else the remote parent installed by ScopedTraceParent, else zeros.
/// par::ThreadPool::Submit snapshots this into each task, so spans a worker
/// opens parent to the submitter's span.
TraceParent CurrentTraceParent();

/// Worker-side half of cross-thread propagation: for the guard's lifetime
/// the thread's span stack is masked (new spans parent to `parent`, the
/// submitter's span, instead of whatever the thread was doing) and restored
/// on destruction. When the guard masks a live span — a waiter running
/// queued tasks via TryRunOneTask — the masked span is credited with the
/// guard's lifetime as child time, so helping never inflates its self-time.
class ScopedTraceParent {
 public:
  explicit ScopedTraceParent(TraceParent parent);
  ~ScopedTraceParent();

  ScopedTraceParent(const ScopedTraceParent&) = delete;
  ScopedTraceParent& operator=(const ScopedTraceParent&) = delete;

 private:
  class Span* saved_active_;
  TraceParent saved_remote_;
  std::chrono::steady_clock::time_point start_;
  uint64_t start_alloc_count_ = 0;
  uint64_t start_alloc_bytes_ = 0;
  bool timing_ = false;
};

/// RAII trace span. Construction arms the span when tracing is enabled
/// (one relaxed atomic load otherwise) and pushes it on the thread-local
/// active-span stack; destruction pops it, records the finished span into
/// the installed TraceBuffer and feeds the span profiler
/// (`eadrl_span_seconds{span=...}` histogram + self-time counter in the
/// default MetricRegistry).
///
/// Armed spans also attribute scratch allocations (obs::CountAlloc): the
/// span snapshots its thread's allocation counters at construction and, on
/// finish, credits itself with the delta minus its children's share — so
/// `alloc_count`/`alloc_bytes` trace attrs and the per-span
/// `eadrl_span_alloc_{count,bytes}_total` counters are *self* allocations,
/// mirroring self-time. Allocations a task makes on a pool worker land on
/// the span the worker opens, not the cross-thread submitter (thread-local
/// counters never cross threads).
///
/// `name` must be a string literal (it is stored by pointer and, under src/,
/// must be registered in src/obs/spans.def — enforced by eadrl_lint's
/// span-registry rule). Spans are strictly thread-confined and must be
/// destroyed in LIFO order on the thread that created them; hand-off to a
/// worker goes through TraceParent snapshots, never through the Span object.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when tracing was enabled at construction. Use to gate attribute
  /// computation: `if (span.armed()) span.SetAttr("k", v);`.
  bool armed() const { return armed_; }

  /// Attaches a key/value attribute (exported into the trace event's
  /// `args`). No-op when the span is not armed, so values passed through
  /// here should be cheap or guarded by armed().
  template <typename V>
  void SetAttr(const char* key, V&& value) {
    if (armed_) attrs_.emplace_back(key, std::forward<V>(value));
  }

  const char* name() const { return name_; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }
  uint64_t parent_id() const { return parent_id_; }

 private:
  friend class ScopedTraceParent;

  void Finish();

  const char* name_;
  bool armed_ = false;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  Span* parent_span_ = nullptr;  ///< same-thread parent, never cross-thread.
  std::chrono::steady_clock::time_point start_{};
  double child_seconds_ = 0.0;
  // Allocation attribution (same single-threaded bookkeeping as
  // child_seconds_): thread counters at arm time, plus what children claimed.
  uint64_t start_alloc_count_ = 0;
  uint64_t start_alloc_bytes_ = 0;
  uint64_t child_alloc_count_ = 0;
  uint64_t child_alloc_bytes_ = 0;
  std::vector<SpanAttr> attrs_;
};

/// One row of the span profiler's aggregate view: everything the profiler
/// learned about a span name since process start.
struct SpanProfileRow {
  std::string name;
  uint64_t count = 0;           ///< finished spans.
  double total_seconds = 0.0;   ///< wall time, children included.
  double self_seconds = 0.0;    ///< wall time minus child spans.
  uint64_t alloc_count = 0;     ///< self scratch allocations.
  uint64_t alloc_bytes = 0;
};

/// Snapshot of the profiler aggregates for every span name seen so far, read
/// from the span families of the default MetricRegistry and sorted by
/// self_seconds descending.
std::vector<SpanProfileRow> SpanProfileSnapshot();

/// Human-readable top-`top_n` profile table (self-time ranked, with
/// allocation columns) — the `--profile-report` output.
std::string FormatSpanProfileReport(size_t top_n = 16);

/// Small dense id of the calling thread (assigned on first use, stable for
/// the thread's lifetime) — the `tid` of every span it records.
uint32_t CurrentTraceTid();

/// Names the calling thread in trace exports (`thread_name` metadata;
/// pool workers register as "worker-N", the CLI main thread as "main").
void SetCurrentThreadTraceName(const std::string& name);

/// True when `name` is declared in src/obs/spans.def — the checked-in
/// registry of every span src/ opens. The static mirror of this check is
/// eadrl_lint's span-registry rule; this runtime view serves the trace
/// validator (tools/eadrl_trace_check.cc) and tests.
bool IsRegisteredSpan(const char* name);

/// Names of all registered spans, in spans.def order.
const std::vector<const char*>& RegisteredSpans();

}  // namespace eadrl::obs

#endif  // EADRL_OBS_TRACE_H_
