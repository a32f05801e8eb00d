// TaskPool: the shared-cursor campaign runtime (harness/task_pool.hpp).
//
// The pool's contract is exactly what the deterministic-merge campaign
// drivers lean on: every index runs exactly once, slots indexed by task
// are safe to fill concurrently, jobs=1 runs in index order on the caller's
// thread, stop_after only ever skips indices *above* the threshold, and a
// task exception is rethrown deterministically (smallest index). These
// tests pin each clause.
#include "harness/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rmalock::harness {
namespace {

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  for (const i32 jobs : {1, 2, 4, 8}) {
    TaskPool pool(jobs);
    constexpr u64 kTasks = 1000;
    std::vector<std::atomic<i32>> hits(kTasks);
    pool.run(kTasks, [&](u64 i) { hits[i].fetch_add(1); });
    for (u64 i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at jobs=" << jobs;
    }
    EXPECT_EQ(pool.tasks_executed(), kTasks);
  }
}

TEST(TaskPool, SingleJobRunsInlineAndInOrder) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<u64> order;
  pool.run(64, [&](u64 i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (u64 i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPool, ResolveJobs) {
  EXPECT_EQ(TaskPool::resolve_jobs(1), 1);
  EXPECT_EQ(TaskPool::resolve_jobs(7), 7);
  EXPECT_GE(TaskPool::resolve_jobs(0), 1);   // all hardware threads
  EXPECT_GE(TaskPool::resolve_jobs(-3), 1);
}

TEST(TaskPool, SlotsFilledIdenticallyAcrossJobCounts) {
  // The campaign pattern: tasks write pure functions of their index into
  // pre-sized slots; any jobs value must produce the same slot vector.
  constexpr u64 kTasks = 257;
  const auto fill = [&](i32 jobs) {
    std::vector<u64> slots(kTasks, 0);
    TaskPool pool(jobs);
    pool.run(kTasks, [&](u64 i) { slots[i] = i * 2654435761u + 17; });
    return slots;
  };
  const std::vector<u64> sequential = fill(1);
  EXPECT_EQ(fill(3), sequential);
  EXPECT_EQ(fill(8), sequential);
}

TEST(TaskPool, SkewedWorkDrains) {
  // One early index carries nearly all the work; the other workers keep
  // drawing from the cursor, so the fleet still completes (and nothing may
  // run twice).
  TaskPool pool(4);
  constexpr u64 kTasks = 64;
  std::vector<std::atomic<i32>> hits(kTasks);
  std::atomic<u64> sum{0};
  pool.run(kTasks, [&](u64 i) {
    hits[i].fetch_add(1);
    u64 spin = (i == 0) ? 200'000 : 100;
    u64 acc = 0;
    for (u64 k = 0; k < spin; ++k) acc += k * k;
    sum.fetch_add(acc % 7 + 1);
  });
  for (u64 i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1);
  EXPECT_GE(sum.load(), kTasks);
}

TEST(TaskPool, StopAfterSkipsOnlyLaterIndices) {
  // Inline (jobs=1): deterministic — everything after the threshold is
  // skipped, everything at or before it ran.
  {
    TaskPool pool(1);
    std::vector<u64> ran;
    pool.run(100, [&](u64 i) {
      ran.push_back(i);
      if (i == 10) pool.stop_after(10);
    });
    ASSERT_EQ(ran.size(), 11u);
    EXPECT_EQ(ran.back(), 10u);
    EXPECT_EQ(pool.tasks_executed(), 11u);
  }
  // Parallel: indices <= threshold always run; skipped ones are all above
  // it (some above may still run if already claimed — that is allowed).
  {
    TaskPool pool(4);
    constexpr u64 kTasks = 200;
    constexpr u64 kStop = 23;
    std::vector<std::atomic<i32>> hits(kTasks);
    pool.run(kTasks, [&](u64 i) {
      hits[i].fetch_add(1);
      if (i == kStop) pool.stop_after(kStop);
    });
    for (u64 i = 0; i <= kStop; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " must not be skipped";
    }
    for (u64 i = 0; i < kTasks; ++i) ASSERT_LE(hits[i].load(), 1);
  }
}

TEST(TaskPool, StopAfterIsMonotonic) {
  TaskPool pool(1);
  std::vector<u64> ran;
  pool.run(50, [&](u64 i) {
    ran.push_back(i);
    if (i == 5) pool.stop_after(20);  // first bound
    if (i == 8) pool.stop_after(30);  // higher: must NOT raise the bound
    if (i == 10) pool.stop_after(12); // lower: tightens it
  });
  ASSERT_EQ(ran.back(), 12u);
  EXPECT_EQ(ran.size(), 13u);
}

TEST(TaskPool, SmallestIndexExceptionWins) {
  for (const i32 jobs : {1, 4}) {
    TaskPool pool(jobs);
    bool threw = false;
    try {
      pool.run(100, [&](u64 i) {
        if (i == 7 || i == 70) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      // Index 70 may or may not have thrown before 7 finished, but the
      // *reported* failure must be the smallest-index one.
      EXPECT_STREQ(e.what(), "task 7") << "jobs=" << jobs;
    }
    EXPECT_TRUE(threw) << "jobs=" << jobs;
  }
}

TEST(TaskPool, ZeroTasksIsANoOp) {
  TaskPool pool(4);
  pool.run(0, [&](u64) { FAIL() << "no task should run"; });
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(TaskPool, ReusableAcrossRuns) {
  TaskPool pool(3);
  std::atomic<u64> count{0};
  pool.run(10, [&](u64 i) {
    count.fetch_add(1);
    if (i == 3) pool.stop_after(3);
  });
  // A stop_after from a previous run must not leak into the next one.
  count.store(0);
  pool.run(40, [&](u64) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 40u);
}

}  // namespace
}  // namespace rmalock::harness
