#ifndef EADRL_PAR_PARALLEL_H_
#define EADRL_PAR_PARALLEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "chk/chk.h"
#include "par/thread_pool.h"

namespace eadrl::par {

/// Heterogeneous fan-out: submit any number of tasks, then Wait for all of
/// them. The first exception thrown by a task (by submission order is NOT
/// guaranteed — first to *fail*) is captured and rethrown from Wait; the
/// remaining tasks still run to completion either way.
///
/// Wait is cooperative: while tasks are outstanding the waiting thread runs
/// other queued pool tasks, so nested TaskGroups (a pool task that fans out
/// and waits) cannot deadlock the pool.
class TaskGroup {
 public:
  /// `pool` defaults to DefaultPool(). On a serial pool tasks run inline in
  /// Run (same exception semantics: captured, rethrown from Wait).
  explicit TaskGroup(ThreadPool* pool = nullptr);

  /// Waits for outstanding tasks; exceptions captured by then are dropped.
  /// Call Wait() explicitly to observe them.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);

  /// Blocks (cooperatively) until every task has finished, then rethrows the
  /// first captured exception, if any. The group is reusable afterwards.
  void Wait();

 private:
  // Completion state (count, mutex, cv, first error) lives on the heap and is
  // co-owned by every in-flight task, so a task that finishes just as the
  // waiter returns from Wait and destroys the group still touches live
  // memory. See parallel.cc.
  struct State;

  void WaitNoThrow();

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

/// Grain-size / pool selection for ParallelFor and ParallelMap.
struct ForOptions {
  /// Indices are processed in contiguous chunks of (at most) this many; one
  /// pool task per chunk. Pick a grain that makes a chunk's work comfortably
  /// exceed ~10 us of scheduling overhead (see DESIGN.md, "Parallel
  /// runtime"). Model fits and dataset runs use grain 1.
  size_t grain = 1;
  /// Pool to run on; nullptr means DefaultPool().
  ThreadPool* pool = nullptr;
};

/// Calls `body(i)` for every i in [begin, end). Chunk boundaries depend only
/// on the range and the grain — never on the thread count — so any
/// index-addressed output is filled identically no matter how chunks are
/// scheduled; a serial pool (or a range no larger than one grain) degenerates
/// to the plain ascending loop. Rethrows the first exception a body threw.
template <typename Body>
void ParallelFor(size_t begin, size_t end, const Body& body,
                 const ForOptions& options = {}) {
  if (end <= begin) return;
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : DefaultPool();
  const size_t grain = options.grain == 0 ? 1 : options.grain;
  if (!pool.parallel() || end - begin <= grain) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  TaskGroup group(&pool);
  for (size_t lo = begin; lo < end; lo += grain) {
    const size_t hi = lo + grain < end ? lo + grain : end;
    // Chunking must tile [begin, end) exactly — a bad grain computation
    // would silently skip or double-run indices on some thread counts.
    EADRL_CHK(lo < hi && hi <= end, "ParallelFor chunk bounds");
    group.Run([&body, lo, hi] {
      for (size_t i = lo; i < hi; ++i) body(i);
    });
  }
  group.Wait();
}

/// Maps i -> fn(i) over [0, n) and returns the results in index order (the
/// fan-out primitive behind the per-step ensemble prediction). R must be
/// default-constructible.
template <typename R, typename Fn>
std::vector<R> ParallelMap(size_t n, const Fn& fn,
                           const ForOptions& options = {}) {
  std::vector<R> out(n);
  ParallelFor(
      0, n,
      [&](size_t i) {
        EADRL_CHK_BOUND(i, out.size(), "ParallelMap slot index");
        out[i] = fn(i);
      },
      options);
  return out;
}

}  // namespace eadrl::par

#endif  // EADRL_PAR_PARALLEL_H_
