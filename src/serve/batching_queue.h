#ifndef EADRL_SERVE_BATCHING_QUEUE_H_
#define EADRL_SERVE_BATCHING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "common/status.h"
#include "math/vec.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "serve/session_table.h"

namespace eadrl::serve {

/// One queued serving request. Completion callbacks run on the drainer
/// thread and must not throw (the queue drains on par::ThreadPool tasks,
/// which lose exceptions); they may re-enter the service's async entry
/// points (the driver's predict-then-observe chain does).
struct Request {
  enum class Kind { kPredict, kObserve };

  Kind kind = Kind::kPredict;
  std::shared_ptr<Session> session;
  math::Vec preds;     ///< predict: member forecasts, scaled by Admit.
  double actual = 0.0; ///< observe: realized value, scaled by Admit.
  std::chrono::steady_clock::time_point enqueue_time{};
  std::function<void(StatusOr<double>)> on_predict;  ///< tenant-unit forecast.
  std::function<void(Status)> on_observe;            ///< may be empty.
};

/// Bounded MPSC coalescing queue: concurrent producers TryEnqueue requests;
/// at most one drainer at a time (scheduled onto the pool) moves the entire
/// backlog out and hands it to the drain function as one batch. The
/// single-drainer discipline is what preserves per-session FIFO order and
/// makes the batched pipeline deterministic on a serial pool (Submit runs
/// the drain inline before TryEnqueue returns).
///
/// `max_queue` is the admission bound: TryEnqueue refuses (returns false)
/// rather than growing without limit — the caller turns that into a typed
/// backpressure Status. `linger_us` optionally holds the drainer back before
/// each batch so concurrent arrivals coalesce into larger waves (higher
/// batch occupancy at the cost of added latency). `manual_drain` disables
/// scheduling entirely; tests pump the queue deterministically via
/// DrainOnce.
class BatchingQueue {
 public:
  struct Options {
    size_t max_queue = 1024;
    size_t linger_us = 0;
    bool manual_drain = false;
    par::ThreadPool* pool = nullptr;  ///< nullptr = par::DefaultPool().
    /// Layout/clock for the queue-delay window (QueueDelaySnapshot).
    obs::WindowOptions window;
    /// Opt-in: record each drained request's backlog residence time into the
    /// queue-delay window (two clock reads plus one windowed observation per
    /// request). Off by default so a raw queue costs nothing extra;
    /// ForecastService forwards `ServeConfig::windowed_stats` here, and its
    /// Stats surface the estimate when it is on.
    bool track_queue_delay = false;
  };

  using DrainFn = std::function<void(std::vector<Request>)>;

  /// `drain` receives each batch on the drainer thread; it must not throw.
  BatchingQueue(const Options& options, DrainFn drain);

  /// Drains any remaining backlog (see Flush).
  ~BatchingQueue();

  BatchingQueue(const BatchingQueue&) = delete;
  BatchingQueue& operator=(const BatchingQueue&) = delete;

  /// Enqueues a request, scheduling a drainer if none is active. False when
  /// the queue is at max_queue (the request is NOT consumed; the caller owns
  /// the rejection path).
  bool TryEnqueue(Request request) EADRL_EXCLUDES(queue_mu_);

  /// Manually drains the current backlog as one batch on the calling thread
  /// (the drain function runs with no queue lock held). Returns false when
  /// the queue was empty, or when a scheduled drainer is active — the
  /// backlog is that drainer's to take, and running drain_ concurrently
  /// with it would break the single-drainer FIFO discipline.
  bool DrainOnce() EADRL_EXCLUDES(queue_mu_);

  /// Blocks until the queue is empty and no drainer is active. In
  /// manual_drain mode, pumps DrainOnce instead of blocking. Callers must
  /// stop producing (except drain-callback re-entrancy, which is covered:
  /// requests enqueued by completion callbacks are drained before the
  /// drainer deactivates) for this to terminate.
  void Flush() EADRL_EXCLUDES(queue_mu_);

  size_t depth() const EADRL_EXCLUDES(queue_mu_);

  /// Windowed admission-to-drain delay, seconds: how long requests sat in
  /// the backlog before a drainer took them. The SLO-aware-admission signal
  /// (ROADMAP): a rising windowed queue delay is the leading indicator that
  /// admitted requests will miss their latency objective.
  obs::HistogramSnapshot QueueDelaySnapshot() const;

 private:
  /// Observes each taken request's backlog residence time. Called with no
  /// lock held, on the batch just moved out of the queue.
  void ObserveQueueDelay(const std::vector<Request>& batch);
  /// Body of the scheduled drainer task: repeatedly lingers, snapshots the
  /// backlog, and feeds it to drain_ (without the lock) until the queue is
  /// observed empty, then deactivates under the lock (so a racing
  /// TryEnqueue either lands in a batch this drainer will take or schedules
  /// a fresh drainer).
  void DrainLoop() EADRL_EXCLUDES(queue_mu_);

  Options opt_;
  DrainFn drain_;
  par::ThreadPool* pool_;

  mutable chk::OrderedMutex queue_mu_{EADRL_LOCK_RANK(serve_queue),
                                      "serve::BatchingQueue::queue_mu_"};
  /// _any variant: std::condition_variable only waits on std::mutex.
  std::condition_variable_any idle_cv_;
  std::deque<Request> queue_ EADRL_GUARDED_BY(queue_mu_);
  bool drain_active_ EADRL_GUARDED_BY(queue_mu_) = false;
  /// Internally synchronized (obs_window rank, below serve_queue; observed
  /// with queue_mu_ released anyway).
  obs::Histogram queue_delay_ EADRL_UNGUARDED;
};

}  // namespace eadrl::serve

#endif  // EADRL_SERVE_BATCHING_QUEUE_H_
