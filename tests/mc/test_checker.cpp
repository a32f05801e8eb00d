#include "mc/checker.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "locks/d_mcs.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/schedule.hpp"
#include "planted_locks.hpp"

namespace rmalock::mc {
namespace {

// A "lock" that never excludes anybody: the checker MUST catch it.
class NoLock final : public locks::ExclusiveLock {
 public:
  explicit NoLock(rma::World& world) : scratch_(world.allocate(1)) {}
  void acquire(rma::RmaComm& comm) override {
    comm.accumulate(1, 0, scratch_, rma::AccumOp::kSum);
    comm.flush(0);
  }
  void release(rma::RmaComm& comm) override {
    comm.accumulate(-1, 0, scratch_, rma::AccumOp::kSum);
    comm.flush(0);
  }
  [[nodiscard]] std::string name() const override { return "NoLock"; }

 private:
  WinOffset scratch_;
};

// A lock whose release forgets to hand over: second acquirer blocks
// forever. The checker MUST report a deadlock, not hang.
class LeakyLock final : public locks::ExclusiveLock {
 public:
  explicit LeakyLock(rma::World& world) : word_(world.allocate(1)) {}
  void acquire(rma::RmaComm& comm) override {
    i64 seen = 1;
    do {
      seen = comm.get(0, word_);
      comm.flush(0);
    } while (seen != 0);
    // Claim without CAS (also unsafe, but the deadlock hits first).
    comm.put(1, 0, word_);
    comm.flush(0);
  }
  void release(rma::RmaComm&) override {}  // never unlocks
  [[nodiscard]] std::string name() const override { return "LeakyLock"; }

 private:
  WinOffset word_;
};

CheckConfig small_config(rma::SchedPolicy policy) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);  // 4 procs
  config.policy = policy;
  config.schedules = 25;
  config.acquires_per_proc = 6;
  config.max_steps = 400'000;
  return config;
}

TEST(Checker, DMcsPassesRandomWalk) {
  const auto report = check(
      small_config(rma::SchedPolicy::kRandom),
      lock_workload([](rma::World& world) {
        return std::make_unique<locks::DMcs>(world);
      }));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.schedules_run, 25u);
  EXPECT_EQ(report.total_cs_entries, 25u * 4 * 6);
}

TEST(Checker, RmaMcsPassesRandomWalk) {
  const auto report =
      check(small_config(rma::SchedPolicy::kRandom),
            lock_workload([](rma::World& world) {
              return std::make_unique<locks::RmaMcs>(world);
            }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Checker, FompiSpinPassesRandomWalk) {
  const auto report =
      check(small_config(rma::SchedPolicy::kRandom),
            lock_workload([](rma::World& world) {
              return std::make_unique<locks::FompiSpin>(world);
            }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Checker, RmaRwPassesRandomWalk) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  const auto report = check(config, lock_workload([](rma::World& world) {
    locks::RmaRwParams params;
    params.tdc = 2;
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 2);
    params.tr = 3;  // tiny thresholds stress the mode-change machinery
    return std::make_unique<locks::RmaRw>(world, params);
  }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Checker, RmaRwPassesPct) {
  auto config = small_config(rma::SchedPolicy::kPct);
  config.schedules = 15;
  const auto report = check(config, lock_workload([](rma::World& world) {
    locks::RmaRwParams params;
    params.tdc = 2;
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 2);
    params.tr = 2;
    return std::make_unique<locks::RmaRw>(world, params);
  }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Checker, FompiRwPassesRandomWalk) {
  const auto report = check(small_config(rma::SchedPolicy::kRandom),
                            lock_workload([](rma::World& world) {
                              return std::make_unique<locks::FompiRw>(world);
                            }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Checker, CatchesMutualExclusionViolations) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 10;
  const auto report = check(
      config,
      lock_workload([](rma::World& world) {
        return std::make_unique<NoLock>(world);
      }));
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.mutex_violations, 0u);
  EXPECT_EQ(report.deadlocks, 0u);
}

TEST(Checker, CatchesDeadlocks) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 5;
  const auto report = check(
      config,
      lock_workload([](rma::World& world) {
        return std::make_unique<LeakyLock>(world);
      }));
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.deadlocks, 0u);
}

TEST(Checker, PctAlsoCatchesViolations) {
  auto config = small_config(rma::SchedPolicy::kPct);
  config.schedules = 10;
  const auto report = check(
      config,
      lock_workload([](rma::World& world) {
        return std::make_unique<NoLock>(world);
      }));
  EXPECT_GT(report.mutex_violations, 0u);
}

TEST(Checker, PaperScaleFourLevels256Procs) {
  // §4.4's largest configuration: N = 4, 256 processes (4^4), with a
  // handful of schedules to keep the test fast; the bench binary
  // (mc_verification) runs the full campaign.
  CheckConfig config;
  config.topology = topo::Topology::uniform({4, 4, 4}, 4);  // N=4, P=256
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 2;
  config.acquires_per_proc = 3;
  config.max_steps = 3'000'000;
  const auto report = check(config, lock_workload([](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tr = 10;
    params.locality.assign(4, 2);
    return std::make_unique<locks::RmaRw>(world, params);
  }));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.total_cs_entries, 2u * 256 * 3);
}

// Seeded regression: a fixed seed must deterministically explore the same
// interleaving, and the engine must *report* the outcome in RunResult
// (deadlocked / step_limit_hit / steps) instead of hanging or aborting.
// These pin the contract the conformance matrix and the checker both lean
// on: reproducible schedules and machine-readable failure reports.

rma::SimOptions seeded_opts(u64 seed, u64 max_steps) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 2);  // 4 procs
  opts.latency = rma::LatencyModel::zero(2);
  opts.seed = seed;
  opts.policy = rma::SchedPolicy::kRandom;
  opts.abort_on_deadlock = false;
  opts.max_steps = max_steps;
  return opts;
}

TEST(Checker, SeededDeadlockReportIsDeterministic) {
  // Every process runs acquire→release on a LeakyLock: the first winner's
  // release leaks the word, so all others block forever. Whatever the
  // schedule, the run must end with deadlocked=true — and under one seed,
  // with exactly the same step count.
  const auto explore = [](u64 seed) {
    auto world = rma::SimWorld::create(seeded_opts(seed, 400'000));
    LeakyLock lock(*world);
    return world->run([&](rma::RmaComm& comm) {
      lock.acquire(comm);
      lock.release(comm);
    });
  };
  const rma::RunResult first = explore(77);
  const rma::RunResult replay = explore(77);
  EXPECT_TRUE(first.deadlocked);
  EXPECT_FALSE(first.step_limit_hit);
  EXPECT_FALSE(first.ok());
  EXPECT_GT(first.steps, 0u);
  EXPECT_EQ(first.steps, replay.steps) << "same seed, different schedule";
  EXPECT_EQ(replay.deadlocked, first.deadlocked);
}

TEST(Checker, SeededAcquireOrderIsReproducible) {
  // A healthy D-MCS run under a fixed random-walk seed: the global CS entry
  // order (recorded through an RMA side log) must replay identically, and
  // the clean run must report ok() with a stable step count.
  const auto explore = [](u64 seed) {
    auto world = rma::SimWorld::create(seeded_opts(seed, 2'000'000));
    locks::DMcs lock(*world);
    const WinOffset cursor = world->allocate(1);
    const WinOffset log = world->allocate(
        static_cast<usize>(world->nprocs()));
    const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
      lock.acquire(comm);
      const i64 slot = comm.fao(1, 0, cursor, rma::AccumOp::kSum);
      comm.put(comm.rank(), 0, log + slot);
      comm.flush(0);
      lock.release(comm);
    });
    std::vector<i64> order;
    for (i32 i = 0; i < world->nprocs(); ++i) {
      order.push_back(world->read_word(0, log + i));
    }
    return std::pair{result, order};
  };
  const auto [first, order1] = explore(2024);
  const auto [replay, order2] = explore(2024);
  EXPECT_TRUE(first.ok()) << "deadlocked=" << first.deadlocked
                          << " step_limit=" << first.step_limit_hit;
  EXPECT_GT(first.steps, 0u);
  EXPECT_EQ(first.steps, replay.steps);
  EXPECT_EQ(order1, order2) << "same seed must replay the same CS order";
  // The log holds each rank exactly once: a permutation of 0..P-1.
  std::vector<i64> sorted = order1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<i64>{0, 1, 2, 3}));
}

TEST(Checker, StepLimitIsReportedNotFatal) {
  // A bound far below what the schedule needs must surface as
  // step_limit_hit (starvation/livelock detector), never as deadlock.
  auto world = rma::SimWorld::create(seeded_opts(5, /*max_steps=*/64));
  locks::DMcs lock(*world);
  const auto result = world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 100; ++i) {
      lock.acquire(comm);
      lock.release(comm);
    }
  });
  EXPECT_TRUE(result.step_limit_hit);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_FALSE(result.ok());
  EXPECT_LE(result.steps, 64u + 4u);  // engine may finish the in-flight op
}

// ---------------------------------------------------------------------------
// First-failure reporting, shrinking, and planted-bug true positives.
// ---------------------------------------------------------------------------

ExclusiveLockFactory no_lock_factory() {
  return [](rma::World& world) { return std::make_unique<NoLock>(world); };
}

TEST(Checker, FirstFailureRecordsMutexCoordinates) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 10;
  const auto report = check(config, lock_workload(no_lock_factory()));
  ASSERT_TRUE(report.has_first_failure);
  const FirstFailure& f = report.first_failure;
  EXPECT_EQ(f.kind, "mutex");
  EXPECT_EQ(f.lock_name, "NoLock");
  EXPECT_EQ(f.base_seed, config.base_seed);
  EXPECT_LT(f.schedule_index, config.schedules);
  EXPECT_EQ(f.world_seed, mix_seed(config.base_seed, f.schedule_index));
  EXPECT_GT(f.raw_trace_len, 0u);
  EXPECT_LE(f.trace.picks.size(), f.raw_trace_len);
  EXPECT_NE(report.summary().find("first_failure: kind=mutex"),
            std::string::npos)
      << report.summary();
}

TEST(Checker, FirstFailureRecordsDeadlockKind) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 5;
  const auto report = check(config, lock_workload([](rma::World& world) {
    return std::make_unique<LeakyLock>(world);
  }));
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "deadlock");
}

TEST(Checker, FirstFailurePropagatesThroughMerge) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 5;
  CheckReport clean = check(config, lock_workload([](rma::World& world) {
    return std::make_unique<locks::DMcs>(world);
  }));
  ASSERT_FALSE(clean.has_first_failure);
  const CheckReport failing =
      check(config, lock_workload(no_lock_factory()));
  ASSERT_TRUE(failing.has_first_failure);

  // Aggregating a failing report into a clean one keeps the coordinates...
  clean += failing;
  ASSERT_TRUE(clean.has_first_failure);
  EXPECT_EQ(clean.first_failure.schedule_index,
            failing.first_failure.schedule_index);
  EXPECT_NE(clean.summary().find("first_failure"), std::string::npos);

  // ...and an already-failing report keeps its *first* failure on merge.
  CheckReport copy = failing;
  CheckReport other = failing;
  other.first_failure.schedule_index = 9999;
  copy += other;
  EXPECT_EQ(copy.first_failure.schedule_index,
            failing.first_failure.schedule_index);
}

TEST(Checker, ShrunkCounterexampleReplaysDeterministically) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 10;
  const Workload workload = lock_workload(no_lock_factory());
  const auto report = check(config, workload);
  ASSERT_TRUE(report.has_first_failure);
  const FirstFailure& f = report.first_failure;
  EXPECT_LT(f.trace.picks.size(), f.raw_trace_len) << "nothing was shrunk";

  // Two independent replays of the shrunk trace in fresh worlds must both
  // reproduce the violation — and identically so.
  const ScheduleOutcome first =
      workload.run(config, replay_options(config, f.world_seed, f.trace));
  const ScheduleOutcome second =
      workload.run(config, replay_options(config, f.world_seed, f.trace));
  EXPECT_GT(first.mutex_violations, 0u);
  EXPECT_EQ(first.mutex_violations, second.mutex_violations);
  EXPECT_EQ(first.run.steps, second.run.steps);
}

TEST(Checker, TraceDirWritesReplayableFile) {
  auto config = small_config(rma::SchedPolicy::kRandom);
  config.schedules = 10;
  config.trace_dir = ::testing::TempDir();
  config.workload_id = "ex:no-lock";
  const auto report = check(config, lock_workload(no_lock_factory()));
  ASSERT_TRUE(report.has_first_failure);
  ASSERT_FALSE(report.first_failure.trace_path.empty());
  EXPECT_NE(report.summary().find("--replay"), std::string::npos);

  TraceCase repro;
  std::string error;
  ASSERT_TRUE(read_trace_file(report.first_failure.trace_path, &repro,
                              &error))
      << error;
  EXPECT_EQ(repro.workload, "ex:no-lock");
  EXPECT_EQ(repro.kind, "mutex");
  EXPECT_EQ(repro.topology, config.topology);
  EXPECT_EQ(repro.world_seed, report.first_failure.world_seed);
  EXPECT_EQ(repro.trace, report.first_failure.trace);

  // Replaying straight from the file reproduces the violation.
  CheckConfig from_file = config;
  from_file.topology = repro.topology;
  from_file.acquires_per_proc = repro.acquires_per_proc;
  from_file.max_steps = repro.max_steps;
  const ScheduleOutcome replayed = lock_workload(no_lock_factory()).run(
      from_file, replay_options(from_file, repro.world_seed, repro.trace));
  EXPECT_GT(replayed.mutex_violations, 0u);
}

// Planted bug #1 (tests/mc/planted_locks.hpp): an MCS variant that drops
// the release handoff. Detected as a deadlock by all three checkers (the
// exhaustive one is covered in test_explorer.cpp).
TEST(Checker, PlantedMcsDroppedHandoffCaughtByRandomAndPct) {
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    auto config = small_config(policy);
    config.schedules = 10;
    config.acquires_per_proc = 2;
    const Workload workload =
        lock_workload([](rma::World& world) {
          return std::make_unique<test::PlantedMcs>(world,
                                                    /*drop_handoff=*/true);
        });
    const auto report = check(config, workload);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(report.deadlocks, 0u);
    ASSERT_TRUE(report.has_first_failure);
    EXPECT_EQ(report.first_failure.kind, "deadlock");

    // The shrunk counterexample replays to the same deadlock.
    const ScheduleOutcome replayed = workload.run(
        config, replay_options(config, report.first_failure.world_seed,
                               report.first_failure.trace));
    EXPECT_TRUE(replayed.run.deadlocked);
  }
}

RwLockFactory faithful_reset_rw_factory() {
  return [](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tdc = 2;
    params.tr = 1;  // reset on every reader departure: maximal race traffic
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 1);
    params.paper_faithful_reader_reset = true;
    return std::make_unique<locks::RmaRw>(world, params);
  };
}

// Planted bug #2: the literal Listing 6/9 reader-side counter reset that
// clobbers a concurrent writer's WRITE flag (real code path behind
// RmaRwParams::paper_faithful_reader_reset; DESIGN.md §2.5). Seeds and
// schedule counts are pinned to deterministic detections.
TEST(Checker, PlantedRwWriteFlagClobberCaughtByRandom) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 100;  // base_seed 1 fails at schedule 53
  config.base_seed = 1;
  config.acquires_per_proc = 8;
  config.max_steps = 400'000;
  const Workload workload = lock_workload(faithful_reset_rw_factory());
  const auto report = check(config, workload);
  EXPECT_GT(report.mutex_violations, 0u) << report.summary();
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "mutex");
  EXPECT_LT(report.first_failure.trace.picks.size(),
            report.first_failure.raw_trace_len);

  // Deterministic replay of the shrunk counterexample, twice.
  for (int i = 0; i < 2; ++i) {
    const ScheduleOutcome replayed = workload.run(
        config, replay_options(config, report.first_failure.world_seed,
                               report.first_failure.trace));
    EXPECT_GT(replayed.mutex_violations, 0u) << "replay " << i;
  }
}

TEST(Checker, PlantedRwWriteFlagClobberCaughtByPct) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = rma::SchedPolicy::kPct;
  config.schedules = 50;  // base_seed 1, d=6 fails at schedule 34
  config.base_seed = 1;
  config.acquires_per_proc = 8;
  config.max_steps = 400'000;
  config.pct_change_points = 6;
  const Workload workload = lock_workload(faithful_reset_rw_factory());
  const auto report = check(config, workload);
  EXPECT_GT(report.mutex_violations, 0u) << report.summary();
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "mutex");
  const ScheduleOutcome replayed = workload.run(
      config, replay_options(config, report.first_failure.world_seed,
                             report.first_failure.trace));
  EXPECT_GT(replayed.mutex_violations, 0u);
}

// An RwLock that never excludes anybody: any writer in the mix produces
// violations, while an all-reader population is trivially clean — which
// makes it a probe for whether writer_roles actually controls the roles.
class NoRwLock final : public locks::RwLock {
 public:
  explicit NoRwLock(rma::World& world) : scratch_(world.allocate(1)) {}
  void acquire_read(rma::RmaComm& comm) override { touch(comm); }
  void release_read(rma::RmaComm& comm) override { touch(comm); }
  void acquire_write(rma::RmaComm& comm) override { touch(comm); }
  void release_write(rma::RmaComm& comm) override { touch(comm); }
  [[nodiscard]] std::string name() const override { return "NoRwLock"; }

 private:
  void touch(rma::RmaComm& comm) {
    comm.accumulate(1, 0, scratch_, rma::AccumOp::kSum);
    comm.flush(0);
  }
  WinOffset scratch_;
};

TEST(Checker, ExplicitWriterRolesOverrideRandomAssignment) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 4);
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 5;
  config.acquires_per_proc = 4;
  config.max_steps = 400'000;
  const auto factory = [](rma::World& world) {
    return std::make_unique<NoRwLock>(world);
  };
  // Seed-drawn roles put writers in the mix: the null lock must be caught.
  const auto random_roles = check(config, lock_workload(factory));
  EXPECT_GT(random_roles.mutex_violations, 0u) << random_roles.summary();
  // Pinning every rank to reader makes the same workload trivially clean —
  // proof that writer_roles overrides the seed-drawn assignment.
  config.writer_roles = {false, false, false, false};
  const auto all_readers = check(config, lock_workload(factory));
  EXPECT_TRUE(all_readers.ok()) << all_readers.summary();
  EXPECT_EQ(all_readers.total_cs_entries, 5u * 4 * 4);
}

TEST(CheckReport, SummaryAndMerge) {
  CheckReport a;
  a.schedules_run = 3;
  a.mutex_violations = 1;
  CheckReport b;
  b.schedules_run = 2;
  b.deadlocks = 4;
  a += b;
  EXPECT_EQ(a.schedules_run, 5u);
  EXPECT_EQ(a.mutex_violations, 1u);
  EXPECT_EQ(a.deadlocks, 4u);
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.summary().find("VIOLATION"), std::string::npos);
  CheckReport clean;
  EXPECT_TRUE(clean.ok());
  EXPECT_NE(clean.summary().find("OK"), std::string::npos);
}

}  // namespace
}  // namespace rmalock::mc
