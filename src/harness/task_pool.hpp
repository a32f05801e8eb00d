// Task pool for campaigns of independent SimWorld runs.
//
// Every campaign in this repo — the MC checker's schedule loop, the
// bounded-exhaustive explorer, the figure-sweep benchmarks — executes a
// fleet of *independent* deterministic simulations: task i derives its
// entire behaviour from (configuration, i), never from any other task. The
// pool exploits exactly that shape: the caller names a task count, workers
// draw indices from one shared cursor, and every task writes into a
// caller-owned slot keyed by its index. The *merge* of those slots back
// into a report stays sequential and in canonical index order, which is
// what keeps parallel campaign output bit-identical to the sequential run
// (see docs/PERF.md, "Parallel campaigns").
//
// Design notes:
//   * One atomic cursor hands out indices in ascending order. Tasks are
//     coarse (a full SimWorld run, ~0.1–10 ms), so one shared counter is
//     all the balancing a fleet needs: a worker that finishes early just
//     draws the next index (pinned by the task-pool shape in
//     bench/micro_engine).
//   * The calling thread is worker 0 and min(jobs, n) workers run, so
//     jobs == 1 spawns no thread and runs the tasks in index order on the
//     caller's thread: replay/golden-trace semantics cannot shift.
//   * stop_after(i) lets a task declare "indices > i are no longer needed"
//     (the exhaustive explorer uses it when a subtree finds a violation:
//     earlier subtrees must still finish for deterministic counts, later
//     ones are dead work). It only ever lowers the threshold. Indices are
//     drawn in ascending order, so every index at or below the threshold
//     was drawn before any above it, and a worker that draws an index above
//     the threshold stops.
#pragma once

#include <atomic>
#include <functional>

#include "common/types.hpp"

namespace rmalock::harness {

class TaskPool {
 public:
  /// Maps a jobs request onto a worker count: n >= 1 is taken literally,
  /// n <= 0 means "all hardware threads" (the --jobs 0 / RMALOCK_JOBS=0
  /// convention used by CI).
  [[nodiscard]] static i32 resolve_jobs(i32 requested);

  /// A pool that will run campaigns on `jobs` workers (resolved as above).
  /// Threads are spawned per run() call and joined before it returns; the
  /// object itself is cheap.
  explicit TaskPool(i32 jobs);

  [[nodiscard]] i32 jobs() const { return jobs_; }

  /// Runs task(0) .. task(num_tasks - 1), each exactly once, and returns
  /// when all have finished (or been skipped via stop_after). The calling
  /// thread participates as worker 0; with one job the tasks run on it, in
  /// index order.
  ///
  /// Tasks must be independent: they may not touch another task's slot and
  /// must tolerate running on any thread in any order. If a task throws,
  /// the remaining tasks are abandoned and the exception thrown by the
  /// smallest task index is rethrown from run() (smallest-index selection
  /// keeps failure reporting independent of completion order).
  void run(u64 num_tasks, const std::function<void(u64 index)>& task);

  /// Declares that tasks with index > `index` need not run. Callable from
  /// inside a task; monotonic (the threshold only decreases). Tasks at or
  /// below the threshold always run — deterministic merges depend on it.
  void stop_after(u64 index);

  /// Indices actually executed by the previous run() (== num_tasks unless
  /// stop_after or an exception intervened). For tests and logging.
  [[nodiscard]] u64 tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  i32 jobs_ = 1;
  std::atomic<u64> stop_after_;
  std::atomic<u64> executed_{0};
};

}  // namespace rmalock::harness
