#include "par/thread_pool.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "chk/chk.h"
#include "common/logging.h"

namespace eadrl::par {
namespace {

// Worker identity, set inside WorkerLoop. Used so worker submissions land on
// the submitting worker's own deque (LIFO locality) and so TryRunOneTask
// checks the own queue before stealing.
thread_local ThreadPool* tl_pool = nullptr;
thread_local size_t tl_worker = 0;
// Nesting depth of the task currently executing on this thread (0 when idle
// or external). A submission's depth is tl_depth + 1; a helping waiter only
// runs tasks at depth >= tl_depth + 1 (as deep as its own children).
thread_local size_t tl_depth = 0;

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  submitted_counter_ = registry.GetCounter("eadrl_par_tasks_submitted_total");
  steals_counter_ = registry.GetCounter("eadrl_par_steals_total");
  queue_depth_gauge_ = registry.GetGauge("eadrl_par_queue_depth");
  active_workers_gauge_ = registry.GetGauge("eadrl_par_active_workers");
  task_latency_hist_ = registry.GetHistogram("eadrl_par_task_seconds");

  if (threads <= 1) return;  // serial pool: no workers, Submit runs inline.
  queues_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<chk::OrderedMutex> lock(sleep_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Task item;
  item.fn = std::move(task);
  item.depth = tl_depth + 1;
  if (obs::TracingEnabled()) {
    item.traced = true;
    item.trace_parent = obs::CurrentTraceParent();
    item.enqueue_time = std::chrono::steady_clock::now();
  }
  if (workers_.empty()) {
    // Serial pool: the caller is the worker.
    RunTask(std::move(item));
    return;
  }
  submitted_counter_->Inc();
  const size_t q =
      tl_pool == this
          ? tl_worker
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                queues_.size();
  {
    std::lock_guard<chk::OrderedMutex> lock(queues_[q]->deque_mu);
    queues_[q]->tasks.push_back(std::move(item));
  }
  const size_t depth = pending_.fetch_add(1, std::memory_order_release) + 1;
  queue_depth_gauge_->Set(static_cast<double>(depth));
  {
    // Taking the sleep mutex orders this submission against a worker that is
    // between its failed pop and its wait — without it the notify could fire
    // in that window and be lost.
    std::lock_guard<chk::OrderedMutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::PopTask(size_t self, bool is_worker, size_t min_depth,
                         Task* task) {
  const size_t n = queues_.size();
  EADRL_CHK_BOUND(self, n, "ThreadPool::PopTask queue slot");
  if (is_worker) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<chk::OrderedMutex> lock(own.deque_mu);
    // LIFO from the back; newest tasks are the deepest, so scanning
    // backwards finds an eligible (deep enough) task first.
    for (auto it = own.tasks.rbegin(); it != own.tasks.rend(); ++it) {
      if (it->depth < min_depth) continue;
      *task = std::move(*it);
      own.tasks.erase(std::next(it).base());
      const size_t depth =
          pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      queue_depth_gauge_->Set(static_cast<double>(depth));
      return true;
    }
  }
  for (size_t offset = is_worker ? 1 : 0; offset < n; ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % n];
    std::lock_guard<chk::OrderedMutex> lock(victim.deque_mu);
    // FIFO from the front: steal the oldest eligible task.
    for (auto it = victim.tasks.begin(); it != victim.tasks.end(); ++it) {
      if (it->depth < min_depth) continue;
      *task = std::move(*it);
      victim.tasks.erase(it);
      // "Stolen" matches eadrl_par_steals_total: a worker draining another
      // worker's deque. An external waiter scanning queues is helping, not
      // stealing.
      task->stolen = is_worker;
      const size_t depth =
          pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      queue_depth_gauge_->Set(static_cast<double>(depth));
      if (is_worker) steals_counter_->Inc();
      return true;
    }
  }
  return false;
}

void ThreadPool::RunTask(Task task) {
  // Mask this thread's span stack with the submitter's span identity: spans
  // the task opens parent to the submitter, not to whatever this thread was
  // doing (and a helping waiter's own span is credited child time for the
  // detour — see ScopedTraceParent).
  obs::ScopedTraceParent trace_parent(task.trace_parent);
  obs::Span span("par_task");
  if (span.armed() && task.traced) {
    span.SetAttr(
        "queue_wait_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task.enqueue_time)
            .count());
    span.SetAttr("stolen", task.stolen);
    span.SetAttr("worker",
                 tl_pool == this ? static_cast<long>(tl_worker) : -1L);
    span.SetAttr("depth", task.depth);
  }
  const size_t parent_depth = tl_depth;
  tl_depth = task.depth;
  active_workers_gauge_->Add(1.0);
  obs::ScopedTimer timer(task_latency_hist_);
  try {
    task.fn();
  } catch (const std::exception& e) {
    EADRL_LOG(Error) << "thread pool task threw: " << e.what()
                     << " (use TaskGroup/ParallelFor to propagate "
                        "exceptions to the caller)";
  } catch (...) {
    EADRL_LOG(Error) << "thread pool task threw a non-std exception";
  }
  timer.Stop();
  active_workers_gauge_->Add(-1.0);
  tl_depth = parent_depth;
}

bool ThreadPool::TryRunOneTask() {
  if (workers_.empty()) return false;
  Task task;
  const bool is_worker = tl_pool == this;
  const size_t self =
      is_worker ? tl_worker
                : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size();
  // Only tasks at least as deep as this caller's own children are eligible
  // (tl_depth is 0 for external threads, which may therefore help with
  // anything). The caller's own children always qualify, so a nested wait
  // can always make progress.
  if (!PopTask(self, is_worker, tl_depth + 1, &task)) return false;
  RunTask(std::move(task));
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  EADRL_CHK_BOUND(worker_index, queues_.size(), "ThreadPool worker index");
  tl_pool = this;
  tl_worker = worker_index;
  obs::SetCurrentThreadTraceName("worker-" + std::to_string(worker_index));
  Task task;
  for (;;) {
    // An idle worker takes anything (every task has depth >= 1).
    if (PopTask(worker_index, /*is_worker=*/true, /*min_depth=*/1, &task)) {
      RunTask(std::move(task));
      task = Task{};
      continue;
    }
    std::unique_lock<chk::OrderedMutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    // Graceful shutdown: exit only once every queued task has been drained
    // (tasks already running may still enqueue more — those are drained too,
    // because the enqueue bumps `pending_` while this worker is awake).
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Default pool.
// ---------------------------------------------------------------------------

namespace {

std::mutex g_default_mu;
std::unique_ptr<ThreadPool> g_default_pool;  // guarded by g_default_mu.
size_t g_default_threads = 0;                // 0 = not yet resolved.

size_t ResolveDefaultThreads() {
  return ParseThreadCount(std::getenv("EADRL_THREADS"), HardwareThreads());
}

}  // namespace

size_t ParseThreadCount(const char* text, size_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < 1) {
    EADRL_LOG(Warning) << "ignoring invalid EADRL_THREADS value: " << text;
    return fallback;
  }
  const size_t ceiling = 4 * HardwareThreads();
  if (static_cast<size_t>(parsed) > ceiling) {
    EADRL_LOG(Warning) << "EADRL_THREADS=" << parsed << " clamped to "
                       << ceiling << " (4x hardware concurrency)";
    return ceiling;
  }
  return static_cast<size_t>(parsed);
}

size_t DefaultThreads() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_threads == 0) g_default_threads = ResolveDefaultThreads();
  return g_default_threads;
}

ThreadPool& DefaultPool() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_pool == nullptr) {
    if (g_default_threads == 0) g_default_threads = ResolveDefaultThreads();
    g_default_pool = std::make_unique<ThreadPool>(g_default_threads);
  }
  return *g_default_pool;
}

void SetDefaultThreads(size_t threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  g_default_threads = threads == 0 ? 1 : threads;
  g_default_pool.reset();  // drained + joined here; rebuilt on next use.
}

}  // namespace eadrl::par
