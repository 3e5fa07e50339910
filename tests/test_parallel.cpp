#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dsbfs::util {
namespace {

TEST(Parallel, CoversEveryIndexOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ChunksPartitionTheRange) {
  std::atomic<std::size_t> total{0};
  parallel_for_chunks(10, 100010, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100000u);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for_chunks(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SmallRangeRunsSerially) {
  // Under the serial cutoff the callback runs exactly once, inline.
  int calls = 0;
  parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, WorkerOverrideRespected) {
  set_parallel_worker_count(3);
  EXPECT_EQ(parallel_worker_count(), 3u);
  set_parallel_worker_count(0);
  EXPECT_GE(parallel_worker_count(), 1u);
}

TEST(Parallel, ResultIndependentOfWorkerCount) {
  constexpr std::size_t kN = 50000;
  auto run = [&](std::size_t workers) {
    set_parallel_worker_count(workers);
    std::vector<std::uint64_t> out(kN);
    parallel_for(0, kN, [&](std::size_t i) { out[i] = i * 3 + 1; });
    set_parallel_worker_count(0);
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}


/// Runs parallel_tasks(n) with `workers` workers; returns each task's thread.
std::vector<std::thread::id> task_threads(std::size_t n, std::size_t workers) {
  std::vector<std::atomic<int>> runs(n);
  std::vector<std::thread::id> ids(n);
  set_parallel_worker_count(workers);
  parallel_tasks(n, [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
    ids[i] = std::this_thread::get_id();
  });
  set_parallel_worker_count(0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  return ids;
}

TEST(ParallelTasks, RunsEveryTaskOnceOnSeveralThreads) {
  // No element cutoff: even two tasks get two threads.  This guards the
  // coarse loops (edge chunks, per-GPU builds) against silently running
  // serially the way parallel_for_chunks does below its cutoff.
  for (const std::size_t workers : {2u, 3u, 4u, 7u}) {
    for (const std::size_t n : {2u, 5u, 64u}) {
      const auto ids = task_threads(n, workers);
      const std::set<std::thread::id> distinct(ids.begin(), ids.end());
      EXPECT_EQ(distinct.size(), std::min(n, workers))
          << "workers=" << workers << " n=" << n;
      EXPECT_GE(distinct.size(), 2u);
    }
  }
}

TEST(ParallelTasks, OneWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  set_parallel_worker_count(1);
  parallel_tasks(6, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  set_parallel_worker_count(0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelTasks, ZeroTasksIsNoop) {
  bool called = false;
  parallel_tasks(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTasks, RethrowsAfterEveryWorkerJoins) {
  set_parallel_worker_count(4);
  std::vector<std::atomic<int>> runs(8);
  EXPECT_THROW(parallel_tasks(8,
                              [&](std::size_t i) {
                                runs[i].fetch_add(1, std::memory_order_relaxed);
                                if (i == 1) throw std::runtime_error("task 1");
                              }),
               std::runtime_error);
  set_parallel_worker_count(0);
  // Worker w runs tasks w, w + 4, ...; a throw ends only its own worker,
  // so every task outside worker 1's remainder (task 5) still ran.
  for (const std::size_t i : {0u, 1u, 2u, 3u, 4u, 6u, 7u}) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

}  // namespace
}  // namespace dsbfs::util
