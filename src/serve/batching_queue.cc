#include "serve/batching_queue.h"

#include <iterator>
#include <thread>
#include <utility>

#include "common/check.h"

namespace eadrl::serve {

BatchingQueue::BatchingQueue(const Options& options, DrainFn drain)
    : opt_(options),
      drain_(std::move(drain)),
      pool_(options.pool),
      queue_delay_(options.window, {}) {
  EADRL_CHECK(drain_ != nullptr);
  if (opt_.max_queue == 0) opt_.max_queue = 1;
  if (pool_ == nullptr) pool_ = &par::DefaultPool();
}

BatchingQueue::~BatchingQueue() { Flush(); }

bool BatchingQueue::TryEnqueue(Request request) {
  bool schedule = false;
  {
    std::lock_guard<chk::OrderedMutex> lock(queue_mu_);
    if (queue_.size() >= opt_.max_queue) return false;
    queue_.push_back(std::move(request));
    if (!opt_.manual_drain && !drain_active_) {
      drain_active_ = true;
      schedule = true;
    }
  }
  // Scheduled outside the lock: on a serial pool Submit runs DrainLoop
  // inline, and DrainLoop takes queue_mu_.
  if (schedule) pool_->Submit([this] { DrainLoop(); });
  return true;
}

void BatchingQueue::DrainLoop() {
  for (;;) {
    // The batching window: arrivals during the linger coalesce into this
    // batch instead of each triggering a one-request wave. Pointless on a
    // serial pool — the drain runs inline in the producer, so nothing can
    // arrive during the sleep and it would only serialize a delay onto
    // every enqueue.
    if (opt_.linger_us > 0 && pool_->parallel()) {
      std::this_thread::sleep_for(std::chrono::microseconds(opt_.linger_us));
    }
    std::vector<Request> batch;
    {
      std::unique_lock<chk::OrderedMutex> lock(queue_mu_);
      if (queue_.empty()) {
        // Deactivate under the lock: a producer that enqueued before this
        // point was observed by the emptiness check above; one that enqueues
        // after sees drain_active_ == false and schedules a fresh drainer.
        drain_active_ = false;
        idle_cv_.notify_all();
        return;
      }
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    ObserveQueueDelay(batch);
    drain_(std::move(batch));
  }
}

bool BatchingQueue::DrainOnce() {
  std::vector<Request> batch;
  {
    std::lock_guard<chk::OrderedMutex> lock(queue_mu_);
    // A scheduled drainer owns the backlog: stealing it here would run
    // drain_ concurrently with DrainLoop's, interleaving two batches and
    // breaking the per-session FIFO order the single-drainer discipline
    // guarantees. (drain_active_ is never set in manual_drain mode, so the
    // manual pump path is unaffected.)
    if (drain_active_ || queue_.empty()) return false;
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  ObserveQueueDelay(batch);
  drain_(std::move(batch));
  return true;
}

void BatchingQueue::ObserveQueueDelay(const std::vector<Request>& batch) {
  if (!opt_.track_queue_delay || batch.empty()) return;
  // Two clock readings (wall + window) cover the whole batch; the window
  // epoch cannot change between rows of one drain.
  const auto now = std::chrono::steady_clock::now();
  const uint64_t obs_now = queue_delay_.NowNs();
  for (const Request& request : batch) {
    queue_delay_.ObserveAt(
        obs_now,
        std::chrono::duration<double>(now - request.enqueue_time).count());
  }
}

obs::HistogramSnapshot BatchingQueue::QueueDelaySnapshot() const {
  return queue_delay_.Snapshot();
}

void BatchingQueue::Flush() {
  if (opt_.manual_drain) {
    while (DrainOnce()) {
    }
    return;
  }
  std::unique_lock<chk::OrderedMutex> lock(queue_mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !drain_active_; });
}

size_t BatchingQueue::depth() const {
  std::lock_guard<chk::OrderedMutex> lock(queue_mu_);
  return queue_.size();
}

}  // namespace eadrl::serve
