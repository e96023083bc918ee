#include "core/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace ccsql::core {
namespace {

TEST(Pool, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(Pool::default_jobs(), 1u);
}

// Reads the clamped setting only: no pool is started at the extreme value.
TEST(Pool, DefaultJobsIsBounded) {
  const std::size_t saved = Pool::default_jobs();
  Pool::set_default_jobs(SIZE_MAX);
  EXPECT_EQ(Pool::default_jobs(), Pool::kMaxJobs);
  Pool::set_default_jobs(0);
  EXPECT_EQ(Pool::default_jobs(), 1u);
  Pool::set_default_jobs(saved);
}

TEST(Pool, WorkerIdIsMinusOneOffPool) {
  EXPECT_EQ(Pool::worker_id(), -1);
}

TEST(Pool, ParallelForCoversEveryIndexExactlyOnce) {
  Pool pool(3);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 64, 4, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Pool, MorselBoundariesDependOnlyOnSizeAndGrain) {
  // The determinism contract: the same (n, grain) yields the same morsel
  // set at any jobs value, so slot-per-morsel output concatenates
  // identically.
  auto morsels = [](Pool& pool, std::size_t jobs) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> out(17);
    pool.parallel_for(1000, 60, jobs,
                      [&](std::size_t b, std::size_t e, std::size_t m) {
                        std::lock_guard<std::mutex> lock(mu);
                        out[m] = {b, e};
                      });
    return out;
  };
  Pool serial(0);
  Pool wide(4);
  EXPECT_EQ(morsels(serial, 1), morsels(wide, 8));
}

TEST(Pool, ParallelForInlineWhenSingleJob) {
  // jobs <= 1 must run on the calling thread (no pool handoff), so bodies
  // may touch caller-thread state without synchronisation.
  Pool pool(2);
  std::vector<int> order;
  pool.parallel_for(5, 2, 1, [&](std::size_t b, std::size_t e, std::size_t) {
    EXPECT_EQ(Pool::worker_id(), -1);
    for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Pool, ParallelForZeroItemsIsANoop) {
  Pool pool(2);
  bool ran = false;
  pool.parallel_for(0, 16, 4,
                    [&](std::size_t, std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Pool, ParallelTasksRunsEachIndexOnce) {
  Pool pool(2);
  std::mutex mu;
  std::multiset<std::size_t> seen;
  pool.parallel_tasks(37, 4, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 37u);
  for (std::size_t i = 0; i < 37; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(Pool, BodyExceptionPropagatesToCaller) {
  Pool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100, 10, 4,
                        [&](std::size_t b, std::size_t, std::size_t) {
                          if (b == 50) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(Pool, NestedParallelismDoesNotDeadlock) {
  // A task blocked in an inner parallel_for keeps helping with pool work,
  // so a parallel region inside a parallel region completes even when the
  // pool is smaller than the total lane demand.
  Pool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_tasks(4, 4, [&](std::size_t) {
    pool.parallel_for(100, 10, 4,
                      [&](std::size_t b, std::size_t e, std::size_t) {
                        total.fetch_add(e - b);
                      });
  });
  EXPECT_EQ(total.load(), 400u);
}

TEST(Pool, GroupWaitRethrowsFirstError) {
  Pool pool(2);
  Pool::Group group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i == 3) throw std::logic_error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::logic_error);
}

TEST(Pool, ZeroWorkerPoolStillCompletesGroups) {
  Pool pool(0);
  std::atomic<int> done{0};
  Pool::Group group(pool);
  for (int i = 0; i < 5; ++i) group.run([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 5);
}

}  // namespace
}  // namespace ccsql::core
