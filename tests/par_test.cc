#include "par/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "par/thread_pool.h"

namespace eadrl::par {
namespace {

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 0, [&](size_t) { calls.fetch_add(1); }, {1, &pool});
  ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); }, {1, &pool});
  ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); }, {1, &pool});
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> visited;
  ParallelFor(2, 6, [&](size_t i) { visited.push_back(i); }, {100, &pool});
  // Range <= grain degenerates to the plain ascending loop on the caller.
  EXPECT_EQ(visited, (std::vector<size_t>{2, 3, 4, 5}));
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  ParallelFor(0, kN, [&](size_t i) { visits[i].fetch_add(1); }, {7, &pool});
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // More outer tasks than workers, each fanning out again: the inner Waits
  // run on pool workers and must help with queued tasks instead of blocking.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  ParallelFor(
      0, 8,
      [&](size_t) {
        ParallelFor(0, 8, [&](size_t) { inner_calls.fetch_add(1); },
                    {1, &pool});
      },
      {1, &pool});
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ParallelForTest, ExceptionFromWorkerReachesCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(
          0, 100,
          [&](size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          {1, &pool}),
      std::runtime_error);
  // The pool survives a throwing task and keeps running work.
  std::atomic<int> calls{0};
  ParallelFor(0, 50, [&](size_t) { calls.fetch_add(1); }, {1, &pool});
  EXPECT_EQ(calls.load(), 50);
}

TEST(ParallelForTest, SerialPoolExceptionAlsoPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      ParallelFor(
          0, 10,
          [&](size_t i) {
            if (i == 3) throw std::runtime_error("serial boom");
          },
          {1, &pool}),
      std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        done.fetch_add(1);
      });
    }
    // Destructor: graceful shutdown must run every queued task first.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, SerialPoolRunsSubmitInline) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.parallel());
  EXPECT_EQ(pool.num_workers(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::thread::id runner;
  pool.Submit([&runner] { runner = std::this_thread::get_id(); });
  EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(TaskGroupTest, HeterogeneousFanOut) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  std::atomic<int> sum{0};
  group.Run([&] { sum.fetch_add(1); });
  group.Run([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sum.fetch_add(10);
  });
  group.Run([&] { sum.fetch_add(100); });
  group.Wait();
  EXPECT_EQ(sum.load(), 111);

  // The group is reusable after Wait.
  group.Run([&] { sum.fetch_add(1000); });
  group.Wait();
  EXPECT_EQ(sum.load(), 1111);
}

TEST(TaskGroupTest, LaterTasksStillRunAfterAThrow) {
  ThreadPool pool(1);  // serial: deterministic run order.
  TaskGroup group(&pool);
  std::atomic<int> calls{0};
  group.Run([&] { throw std::runtime_error("first"); });
  group.Run([&] { calls.fetch_add(1); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> out =
      ParallelMap<int>(256, [](size_t i) { return static_cast<int>(i) * 3; },
                       {1, &pool});
  ASSERT_EQ(out.size(), 256u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(TaskGroupTest, CompletionRacingGroupDestructionIsSafe) {
  // Regression for a use-after-free: the last task's completion signal used
  // to touch the group's mutex/cv after decrementing the count, racing a
  // waiter that saw zero and destroyed the stack-allocated group. Tiny tasks
  // plus immediate destruction maximize that window; TSan (tools/check.sh)
  // gives this test its teeth.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> calls{0};
    {
      TaskGroup group(&pool);
      for (int t = 0; t < 4; ++t) {
        group.Run([&calls] { calls.fetch_add(1); });
      }
      group.Wait();
    }  // group destroyed the instant Wait returns.
    EXPECT_EQ(calls.load(), 4);
  }
}

TEST(ParseThreadCountTest, AcceptsPositiveIntegersOnly) {
  EXPECT_EQ(ParseThreadCount("4", 9), 4u);
  EXPECT_EQ(ParseThreadCount("1", 9), 1u);
  // Missing, empty, garbage, trailing garbage, zero, negative: fallback.
  EXPECT_EQ(ParseThreadCount(nullptr, 9), 9u);
  EXPECT_EQ(ParseThreadCount("", 9), 9u);
  EXPECT_EQ(ParseThreadCount("lots", 9), 9u);
  EXPECT_EQ(ParseThreadCount("8x", 9), 9u);
  EXPECT_EQ(ParseThreadCount("0", 9), 9u);
  EXPECT_EQ(ParseThreadCount("-2", 9), 9u);
}

TEST(ParseThreadCountTest, ClampsHugeValues) {
  // A typo like EADRL_THREADS=1000000 must not try to spawn a million
  // threads: values above 4x hardware concurrency are clamped to it.
  const size_t huge = ParseThreadCount("1000000", 1);
  EXPECT_GE(huge, 1u);
  EXPECT_LE(huge, 4 * static_cast<size_t>(std::max(
                          1u, std::thread::hardware_concurrency())));
}

TEST(DefaultPoolTest, SetDefaultThreadsRebuildsThePool) {
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3u);
  EXPECT_TRUE(DefaultPool().parallel());
  EXPECT_EQ(DefaultPool().num_workers(), 3u);

  SetDefaultThreads(1);
  EXPECT_EQ(DefaultThreads(), 1u);
  EXPECT_FALSE(DefaultPool().parallel());
}

}  // namespace
}  // namespace eadrl::par
