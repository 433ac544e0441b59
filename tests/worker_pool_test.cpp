/// \file worker_pool_test.cpp
/// The fork-join team behind lcs_serve's batch dispatch: every worker index
/// runs once per job, the lowest-index exception is rethrown only after the
/// whole team has returned, a throw leaves the pool reusable, and a size-1
/// pool is a plain call on the caller's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/worker_pool.h"

namespace lcs {
namespace {

TEST(WorkerPool, EveryWorkerIndexRunsOncePerRun) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4);
  for (int job = 0; job < 50; ++job) {
    std::vector<int> calls(4, 0);
    pool.run([&](int w) { ++calls[static_cast<std::size_t>(w)]; });
    EXPECT_EQ(calls, std::vector<int>(4, 1)) << "job " << job;
  }
}

TEST(WorkerPool, LowestIndexExceptionIsRethrownAfterAllWorkersReturn) {
  WorkerPool pool(4);
  // Workers 1 and 3 throw; worker 2 finishes only after every worker has
  // started, so its slot is set only if the caller waited for the team.
  std::atomic<int> started{0};
  std::vector<int> finished(4, 0);
  try {
    pool.run([&](int w) {
      started.fetch_add(1);
      if (w == 1 || w == 3)
        throw std::runtime_error("worker " + std::to_string(w));
      while (started.load() < 4) {
      }
      finished[static_cast<std::size_t>(w)] = 1;
    });
    FAIL() << "a worker's exception must reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 1");
  }
  EXPECT_EQ(finished, (std::vector<int>{1, 0, 1, 0}));
}

TEST(WorkerPool, ReusableAfterAThrow) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run([](int w) {
                 if (w == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The captured exception does not leak into the next job.
  for (int job = 0; job < 3; ++job) {
    std::vector<int> calls(3, 0);
    pool.run([&](int w) { ++calls[static_cast<std::size_t>(w)]; });
    EXPECT_EQ(calls, std::vector<int>(3, 1)) << "job " << job;
  }
}

thread_local int caller_marker = 0;

TEST(WorkerPool, SizeOnePoolRunsTheJobOnTheCaller) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  caller_marker = 7;
  std::vector<int> seen(1, 0);
  pool.run([&](int w) {
    seen[static_cast<std::size_t>(w)] = caller_marker;
  });
  EXPECT_EQ(seen[0], 7);  // a thread_local reads 7 only on this thread
  EXPECT_THROW(pool.run([](int) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

}  // namespace
}  // namespace lcs
