#include "harness/task_pool.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace rmalock::harness {

namespace {
constexpr u64 kNoStop = std::numeric_limits<u64>::max();
}  // namespace

i32 TaskPool::resolve_jobs(i32 requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<i32>(hw);
}

TaskPool::TaskPool(i32 jobs) : jobs_(resolve_jobs(jobs)), stop_after_(kNoStop) {}

void TaskPool::stop_after(u64 index) {
  u64 current = stop_after_.load(std::memory_order_relaxed);
  while (index < current &&
         !stop_after_.compare_exchange_weak(current, index,
                                            std::memory_order_relaxed)) {
  }
}

void TaskPool::run(u64 num_tasks, const std::function<void(u64)>& task) {
  stop_after_.store(kNoStop, std::memory_order_relaxed);
  executed_.store(0, std::memory_order_relaxed);
  std::atomic<u64> cursor{0};
  // First exception per its task index; the smallest index wins so the
  // rethrown error does not depend on scheduling.
  std::mutex failure_mutex;
  u64 failure_index = kNoStop;
  std::exception_ptr failure;

  const auto worker = [&] {
    for (;;) {
      const u64 index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= num_tasks ||
          index > stop_after_.load(std::memory_order_relaxed)) {
        return;  // every later index is larger: nothing left to run
      }
      try {
        task(index);
        executed_.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (index < failure_index) {
          failure_index = index;
          failure = std::current_exception();
        }
        // Abandon everything after the failure; earlier indices were all
        // drawn already and keep running, so an even-smaller-index
        // exception can still claim the slot.
        stop_after(index == 0 ? 0 : index - 1);
      }
    }
  };

  const u64 workers = std::min<u64>(static_cast<u64>(jobs_), num_tasks);
  std::vector<std::thread> threads;
  for (u64 w = 1; w < workers; ++w) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  if (failure) std::rethrow_exception(failure);
}

}  // namespace rmalock::harness
