#ifndef EADRL_PAR_THREAD_POOL_H_
#define EADRL_PAR_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eadrl::par {

/// Work-stealing thread pool: one deque per worker, owners pop LIFO from the
/// back, thieves steal FIFO from the front (the sharded-queue equivalent of a
/// Chase-Lev deque — per-queue mutexes instead of lock-free buffers, which
/// keeps the implementation dependency-free and trivially TSan-clean while
/// preserving the locality properties of the classic design).
///
/// Concurrency model:
///  * `ThreadPool(n)` with n >= 2 spawns n workers; `ThreadPool(1)` (or 0)
///    spawns none and `parallel()` is false — every Submit runs inline on the
///    caller, which is the deterministic serial path.
///  * Tasks may submit further tasks (nested parallelism). Blocking waiters
///    should call `TryRunOneTask` in their wait loop (TaskGroup::Wait does)
///    so that a worker waiting on subtasks keeps executing queued work
///    instead of deadlocking the pool.
///  * Destruction is graceful: no new work is accepted, every already-queued
///    task still runs, then workers are joined. Submitting from outside the
///    pool while the destructor runs is undefined.
///  * Exceptions: tasks submitted directly via `Submit` must not throw — a
///    throwing task is caught and logged, the exception is lost. Use
///    TaskGroup / ParallelFor (parallel.h) to propagate exceptions to the
///    waiting caller.
///
/// Observability (default MetricRegistry): eadrl_par_tasks_submitted_total
/// and eadrl_par_steals_total counters, eadrl_par_queue_depth and
/// eadrl_par_active_workers gauges, eadrl_par_task_seconds latency histogram.
/// With tracing enabled (obs/trace.h) every task additionally runs inside a
/// `par_task` span parented to the submitter's active span, carrying
/// queue_wait_seconds, stolen (steal vs. own-pop), worker id and depth
/// attributes — the scheduler-internal half of the causal trace.
class ThreadPool {
 public:
  /// `threads` is the target concurrency, *including* the submitting thread's
  /// helping capacity; values <= 1 create a serial (no-worker) pool.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for a serial pool).
  size_t num_workers() const { return workers_.size(); }

  /// Effective concurrency: max(1, num_workers()).
  size_t concurrency() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// True when the pool actually runs tasks on worker threads.
  bool parallel() const { return !workers_.empty(); }

  /// Enqueues a task. On a serial pool the task runs inline before Submit
  /// returns. Worker threads push to their own deque; external threads
  /// round-robin across the deques.
  void Submit(std::function<void()> task);

  /// Pops one queued task (own queue first when called from a worker, then
  /// steals) and runs it on the calling thread. Returns false when no task
  /// was available. This is the cooperation hook that makes nested waits
  /// deadlock-free. Helping is depth-restricted: only tasks at least as
  /// deeply nested as the caller's own children are eligible, so a
  /// fine-grained nested wait (a pool's model fits or rolling forecasts
  /// inside a dataset run) never inlines a coarse task (a whole dataset run)
  /// and inflates its latency by that task's full runtime. A waiter's own
  /// children always qualify, which is what keeps nested waits
  /// deadlock-free.
  bool TryRunOneTask();

  /// Number of queued (not yet started) tasks — approximate, for metrics.
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  /// A queued unit of work. `depth` is 1 + the nesting depth of the task
  /// that submitted it (external submissions get depth 1); see
  /// TryRunOneTask for how helping waiters use it. When tracing is enabled
  /// at submission, `trace_parent` snapshots the submitter's span identity,
  /// so spans the task opens on a worker keep their run identity (e.g. which
  /// dataset of a concurrent suite run they belong to), and `enqueue_time`
  /// feeds the per-task queue-wait attribute; `stolen` is set by PopTask
  /// when the task ran on a thread other than the deque it was pushed to.
  struct Task {
    std::function<void()> fn;
    size_t depth = 1;
    obs::TraceParent trace_parent{};
    std::chrono::steady_clock::time_point enqueue_time{};
    bool traced = false;
    bool stolen = false;
  };

  struct WorkerQueue {
    /// Held only around a single pop/push/scan; nothing is acquired under
    /// it. Two deque locks never nest (PopTask visits queues one at a
    /// time), which same-rank tracking would enforce by address order.
    chk::OrderedMutex deque_mu{EADRL_LOCK_RANK(par_queue),
                               "par::ThreadPool::WorkerQueue::deque_mu"};
    std::deque<Task> tasks EADRL_GUARDED_BY(deque_mu);
  };

  void WorkerLoop(size_t worker_index);
  /// Pops the deepest-first match from `self`'s back, else steals the
  /// oldest match from another queue's front; only tasks with
  /// depth >= `min_depth` are eligible.
  bool PopTask(size_t self, bool is_worker, size_t min_depth, Task* task);
  void RunTask(Task task);

  /// Both vectors are filled in the constructor and immutable afterwards;
  /// workers synchronize through the per-queue and sleep locks, never on
  /// the vectors themselves.
  std::vector<std::unique_ptr<WorkerQueue>> queues_ EADRL_UNGUARDED;
  std::vector<std::thread> workers_ EADRL_UNGUARDED;

  /// Guards no data — it orders Submit's notify against a worker parked
  /// between a failed pop and its wait (see Submit). Declared after
  /// par_queue in lock_order.def because Submit holds them sequentially,
  /// never nested.
  chk::OrderedMutex sleep_mu_{EADRL_LOCK_RANK(par_sleep),
                              "par::ThreadPool::sleep_mu_"};
  /// _any variant: std::condition_variable only waits on std::mutex.
  std::condition_variable_any sleep_cv_;
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_queue_{0};

  // Cached from the default registry (stable pointers).
  obs::Counter* submitted_counter_;
  obs::Counter* steals_counter_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* active_workers_gauge_;
  obs::Histogram* task_latency_hist_;
};

/// Parses a thread-count string (the EADRL_THREADS format): returns
/// `fallback` with a warning unless `text` is a whole positive decimal
/// integer (trailing garbage like "8x" is rejected, not truncated), and
/// clamps values above 4x hardware_concurrency() to that ceiling so a typo
/// cannot spawn an unbounded number of threads.
size_t ParseThreadCount(const char* text, size_t fallback);

/// Concurrency of the process-wide default pool: EADRL_THREADS when set to a
/// positive integer (validated and clamped by ParseThreadCount), otherwise
/// std::thread::hardware_concurrency(). This is what DefaultPool() is built
/// with unless SetDefaultThreads overrode it.
size_t DefaultThreads();

/// Lazily-initialized process-wide pool used by every parallelized library
/// path (FitPool, PreparePool's rolling forecasts, RunSuite, the restarts of
/// EadrlCombiner::Initialize, a BatchingQueue built without a pool, the CLI
/// predict fan-out) when no explicit pool is passed.
ThreadPool& DefaultPool();

/// Overrides the default pool's concurrency (the CLI's --threads flag, and
/// tests that compare serial vs parallel runs in one process). If the default
/// pool already exists it is drained, destroyed and lazily rebuilt on next
/// use. Call only from quiescent points — never while other threads are using
/// DefaultPool().
void SetDefaultThreads(size_t threads);

}  // namespace eadrl::par

#endif  // EADRL_PAR_THREAD_POOL_H_
