#ifndef EADRL_OBS_RESOURCE_H_
#define EADRL_OBS_RESOURCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace eadrl::obs {

class MetricRegistry;

/// Process-wide resource usage at one point in time, from
/// getrusage(RUSAGE_SELF) plus /proc/self/statm (see DESIGN.md, "Perf
/// trajectory & resource observability"). Sampling is a syscall + one small
/// file read — cheap enough for per-workload bracketing, too slow for inner
/// loops.
struct ResourceSample {
  uint64_t peak_rss_bytes = 0;     ///< high-water mark (ru_maxrss).
  uint64_t current_rss_bytes = 0;  ///< resident set now; 0 off-Linux.
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t voluntary_ctx_switches = 0;
  uint64_t involuntary_ctx_switches = 0;
  double user_cpu_seconds = 0.0;
  double system_cpu_seconds = 0.0;
};

ResourceSample SampleResources();

/// Scratch-allocation statistics reported through CountAlloc. These count
/// the *instrumented* allocation sites (math matrix/vector scratch, nn
/// forward/backward temporaries, replay-buffer row growth) — a churn
/// signal for the batching/arena work, not a malloc-level accounting of
/// every byte.
struct AllocStats {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

namespace internal_resource {

/// Per-thread counters. Atomics because other threads read them (totals,
/// snapshots) while the owner increments; all accesses are relaxed — the
/// numbers are statistics, not synchronization.
struct ThreadAllocCounters {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};

  ThreadAllocCounters();   ///< registers with the process-wide roster.
  ~ThreadAllocCounters();  ///< folds the final values into the retired total.

  ThreadAllocCounters(const ThreadAllocCounters&) = delete;
  ThreadAllocCounters& operator=(const ThreadAllocCounters&) = delete;
};

ThreadAllocCounters& TlsAllocCounters();

}  // namespace internal_resource

/// Reports one scratch allocation of `bytes` bytes by the calling thread.
/// Two relaxed thread-local increments (~1 ns); safe from pool workers.
/// Spans attribute the deltas: obs::Span snapshots the calling thread's
/// counters when armed and, on finish, credits itself with the delta minus
/// its children's share (see obs/trace.h).
inline void CountAlloc(size_t bytes) {
  internal_resource::ThreadAllocCounters& c =
      internal_resource::TlsAllocCounters();
  c.count.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// The calling thread's counters (monotone over the thread's lifetime).
AllocStats ThreadAllocStats();

/// Counters summed across every thread that ever reported (live + exited).
AllocStats TotalAllocStats();

/// Publishes the current ResourceSample and TotalAllocStats into `registry`
/// (the default registry when null): gauges `eadrl_peak_rss_bytes`,
/// `eadrl_rss_bytes`, `eadrl_page_faults{kind=...}`,
/// `eadrl_ctx_switches{kind=...}`, `eadrl_cpu_seconds{mode=...}`,
/// `eadrl_alloc_count_total` and `eadrl_alloc_bytes_total` (the alloc totals
/// are monotone, but exported as gauges so repeated publishes — into any
/// registry — are simple last-write-wins).
void UpdateResourceMetrics(MetricRegistry* registry = nullptr);

}  // namespace eadrl::obs

#endif  // EADRL_OBS_RESOURCE_H_
