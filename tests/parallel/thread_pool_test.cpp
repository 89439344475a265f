#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <vector>

namespace lc::parallel {
namespace {

TEST(ThreadPool, RunsAllTasksInBatch) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&counter] { counter.fetch_add(1); });
  pool.run_batch(tasks);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, EmptyBatchIsNoOp) {
  ThreadPool pool(2);
  pool.run_batch({});
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back([&counter] { counter.fetch_add(1); });
  for (int round = 0; round < 20; ++round) pool.run_batch(tasks);
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 17; ++i) tasks.push_back([&counter] { counter.fetch_add(1); });
  pool.run_batch(tasks);
  EXPECT_EQ(counter.load(), 17);
}

TEST(SplitRange, EvenSplit) {
  const auto bounds = split_range(100, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[4], 100u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bounds[static_cast<std::size_t>(i) + 1] - bounds[static_cast<std::size_t>(i)], 25u);
}

TEST(SplitRange, RemainderSpreadOverLeadingParts) {
  const auto bounds = split_range(10, 3);
  EXPECT_EQ(bounds[1] - bounds[0], 4u);
  EXPECT_EQ(bounds[2] - bounds[1], 3u);
  EXPECT_EQ(bounds[3] - bounds[2], 3u);
}

TEST(SplitRange, MorePartsThanItems) {
  const auto bounds = split_range(2, 5);
  EXPECT_EQ(bounds.back(), 2u);
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (bounds[i + 1] > bounds[i]) ++nonempty;
  }
  EXPECT_EQ(nonempty, 2u);
}

TEST(ParallelForBlocks, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_blocks(pool, 1000, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocks, ZeroLengthRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_blocks(pool, 0, [&called](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolDeathTest, ZeroThreadsRejected) {
  EXPECT_DEATH(ThreadPool pool(0), "at least one");
}

TEST(ThreadPool, TaskExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  try {
    pool.run_batch(tasks);
    FAIL() << "expected the task exception on the calling thread";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 3 failed");
  }
}

TEST(ThreadPool, FailedBatchCancelsRemainingTasks) {
  // With one worker the batch is sequential, so exactly the tasks before the
  // throwing one may run: the rest must be skipped deterministically.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([i, &executed] {
      if (i == 4) throw std::runtime_error("boom");
      executed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.run_batch(tasks), std::runtime_error);
  EXPECT_EQ(executed.load(), 4);
}

TEST(ThreadPool, PoolStaysHealthyAfterFailedBatch) {
  ThreadPool pool(3);
  std::vector<std::function<void()>> failing{[] { throw std::runtime_error("first"); }};
  EXPECT_THROW(pool.run_batch(failing), std::runtime_error);

  // The next batch must run normally from a clean slate.
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back([&count] { count.fetch_add(1); });
  pool.run_batch(tasks);
  EXPECT_EQ(count.load(), 12);

  // And a second failure is also captured cleanly.
  EXPECT_THROW(pool.run_batch(failing), std::runtime_error);
}

TEST(ThreadPool, ConcurrentThrowersDeliverExactlyOneException) {
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([] { throw std::runtime_error("everyone throws"); });
    }
    EXPECT_THROW(pool.run_batch(tasks), std::runtime_error);
  }
}

TEST(ParallelForBlocks, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_blocks(pool, 1000,
                                   [](std::size_t begin, std::size_t) {
                                     if (begin == 0) throw std::runtime_error("block 0");
                                   }),
               std::runtime_error);
}

TEST(ParallelForBlocks, MinGrainCapsBlockCount) {
  ThreadPool pool(8);
  std::atomic<int> blocks{0};
  std::vector<std::atomic<int>> hits(100);
  parallel_for_blocks(
      pool, 100,
      [&](std::size_t begin, std::size_t end) {
        blocks.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      /*min_grain=*/50);
  // 100 items / grain 50 = at most 2 blocks instead of 8, full coverage kept.
  EXPECT_LE(blocks.load(), 2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocks, MinGrainLargerThanRangeStillRuns) {
  ThreadPool pool(4);
  std::atomic<int> blocks{0};
  std::atomic<int> covered{0};
  parallel_for_blocks(
      pool, 10,
      [&](std::size_t begin, std::size_t end) {
        blocks.fetch_add(1);
        covered.fetch_add(static_cast<int>(end - begin));
      },
      /*min_grain=*/1000);
  EXPECT_EQ(blocks.load(), 1);
  EXPECT_EQ(covered.load(), 10);
}

}  // namespace
}  // namespace lc::parallel
