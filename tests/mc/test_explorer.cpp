#include "mc/explorer.hpp"

#include <gtest/gtest.h>

#include "locks/d_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/schedule.hpp"
#include "planted_locks.hpp"

namespace rmalock::mc {
namespace {

// ---------------------------------------------------------------------------
// Counter toy: the provably-sized interleaving space.
//
// P processes each perform `ops` atomic increments on rank 0 and exit. Under
// the engine every increment is one scheduling decision ("run this process's
// next segment") and process exit is one more segment, so each process is a
// sequence of (ops + 1) segments and the schedule space is exactly the set
// of interleavings of P such sequences — the multinomial
//   (P * (ops + 1))! / ((ops + 1)!)^P.
// For P=2, ops=2 that is 6!/(3!·3!) = 20; for P=3, ops=1 it is
// 6!/(2!·2!·2!) = 90. The DFS must enumerate every one of them exactly once.
// ---------------------------------------------------------------------------

ExploreRunner counter_toy_runner(i32 procs, i32 ops) {
  return [procs, ops](const rma::PickHook& hook) {
    rma::SimOptions opts;
    opts.topology = topo::Topology::uniform({}, procs);
    opts.latency = rma::LatencyModel::zero(1);
    opts.seed = 1;
    opts.policy = rma::SchedPolicy::kReplay;
    opts.pick_hook = hook;
    opts.abort_on_deadlock = false;
    auto world = rma::SimWorld::create(opts);
    const WinOffset counter = world->allocate(1);
    const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < ops; ++i) {
        comm.fao(1, 0, counter, rma::AccumOp::kSum);
      }
    });
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(world->read_word(0, counter), procs * ops);
    return true;
  };
}

TEST(Explorer, EnumeratesFullSpaceTwoProcsTwoOps) {
  ExploreConfig config;
  config.max_schedules = 0;  // unbounded: the space itself is the bound
  const ExploreStats stats =
      explore_schedules(config, counter_toy_runner(2, 2));
  EXPECT_EQ(stats.schedules, 20u);  // 6!/(3!·3!)
  EXPECT_TRUE(stats.complete);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.pruned_by_preemption, 0u);
  EXPECT_EQ(stats.truncated_by_depth, 0u);
}

TEST(Explorer, EnumeratesFullSpaceThreeProcsOneOp) {
  ExploreConfig config;
  config.max_schedules = 0;
  const ExploreStats stats =
      explore_schedules(config, counter_toy_runner(3, 1));
  EXPECT_EQ(stats.schedules, 90u);  // 6!/(2!·2!·2!)
  EXPECT_TRUE(stats.complete);
}

TEST(Explorer, PreemptionBoundsPruneTheSpace) {
  // With budget 0 only the initial choice branches (2 serial schedules);
  // budget 1 admits exactly one mid-stream switch (6 schedules of <= 3
  // run-blocks); an ample budget recovers the full 20.
  const auto count = [&](i32 budget) {
    ExploreConfig config;
    config.max_schedules = 0;
    config.max_preemptions = budget;
    return explore_schedules(config, counter_toy_runner(2, 2));
  };
  const ExploreStats b0 = count(0);
  EXPECT_EQ(b0.schedules, 2u);
  EXPECT_TRUE(b0.complete);
  EXPECT_GT(b0.pruned_by_preemption, 0u);
  const ExploreStats b1 = count(1);
  EXPECT_EQ(b1.schedules, 6u);
  EXPECT_GT(b1.pruned_by_preemption, 0u);
  const ExploreStats ample = count(64);
  EXPECT_EQ(ample.schedules, 20u);
  EXPECT_EQ(ample.pruned_by_preemption, 0u);
}

TEST(Explorer, IterativeDeepeningDrainsTheSpace) {
  // Budgets 0..4 are needed for the 2x2 toy (a 6-segment interleaving has
  // at most 4 preemptions); deepening re-runs lower-budget schedules, so
  // the total is the sum of the per-budget space sizes: 2+6+14+18+20 = 60.
  ExploreConfig config;
  config.max_schedules = 0;
  config.max_preemptions = 16;  // plenty: the loop stops once nothing prunes
  const ExploreStats stats =
      explore_iterative(config, counter_toy_runner(2, 2));
  EXPECT_EQ(stats.schedules, 60u);
  EXPECT_TRUE(stats.complete);
  EXPECT_FALSE(stats.aborted);
}

TEST(Explorer, ScheduleCapClearsComplete) {
  ExploreConfig config;
  config.max_schedules = 5;
  const ExploreStats stats =
      explore_schedules(config, counter_toy_runner(2, 2));
  EXPECT_EQ(stats.schedules, 5u);
  EXPECT_FALSE(stats.complete);
}

TEST(Explorer, CapEqualToSpaceSizeStillReportsComplete) {
  // Draining the space on the budget's last schedule is still a drain: the
  // cap only clears `complete` when unexplored work actually remains.
  ExploreConfig config;
  config.max_schedules = 20;  // exactly the toy's space size
  const ExploreStats stats =
      explore_schedules(config, counter_toy_runner(2, 2));
  EXPECT_EQ(stats.schedules, 20u);
  EXPECT_TRUE(stats.complete);
}

TEST(Explorer, DepthBoundLimitsBranching) {
  // Branch only at the first decision: two schedules (one per initial
  // choice), with the depth truncation reported.
  ExploreConfig config;
  config.max_schedules = 0;
  config.max_decision_depth = 1;
  const ExploreStats stats =
      explore_schedules(config, counter_toy_runner(2, 2));
  EXPECT_EQ(stats.schedules, 2u);
  EXPECT_TRUE(stats.complete);
  EXPECT_GT(stats.truncated_by_depth, 0u);
}

// ---------------------------------------------------------------------------
// Exhaustive checking of locks: correct ones verify, planted bugs are found.
// ---------------------------------------------------------------------------

CheckConfig tiny_config(i32 procs, i32 acquires) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, procs);
  config.acquires_per_proc = acquires;
  config.max_steps = 200'000;
  return config;
}

TEST(Explorer, ExhaustivelyVerifiesCorrectMcsTwoProcsTwoAcquires) {
  // The full bounded interleaving space of the 2-process/2-acquire MCS
  // workload at preemption budget 3: exactly 2828 schedules (pinned — the
  // engine and DFS are deterministic), every one of them mutex- and
  // deadlock-clean, and the explorer must *know* it drained the space.
  ExploreConfig explore;
  explore.max_schedules = 50'000;
  explore.max_preemptions = 3;
  const CheckReport report = check_exhaustive(
      tiny_config(2, 2), explore, lock_workload([](rma::World& world) {
        return std::make_unique<test::PlantedMcs>(world,
                                                  /*drop_handoff=*/false);
      }));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.exhausted_spaces, 1u)
      << "bounded space not drained: " << report.summary();
  EXPECT_EQ(report.schedules_run, 2828u);
  EXPECT_EQ(report.total_cs_entries, report.schedules_run * 2 * 2);
}

TEST(Explorer, FindsPlantedMcsDeadlockAndShrinksIt) {
  ExploreConfig explore;
  explore.max_schedules = 200'000;
  const CheckConfig config = tiny_config(2, 1);
  const Workload planted = lock_workload([](rma::World& world) {
    return std::make_unique<test::PlantedMcs>(world, /*drop_handoff=*/true);
  });
  const CheckReport report = check_exhaustive(config, explore, planted);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.deadlocks, 0u);
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "deadlock");
  EXPECT_LE(report.first_failure.trace.picks.size(),
            report.first_failure.raw_trace_len);

  // The shrunk counterexample replays deterministically to the same
  // violation in a fresh world — twice.
  for (int i = 0; i < 2; ++i) {
    const ScheduleOutcome replayed = planted.run(
        config, replay_options(config, report.first_failure.world_seed,
                               report.first_failure.trace));
    EXPECT_TRUE(replayed.run.deadlocked) << "replay " << i;
  }
}

TEST(Explorer, FindsPlantedRwWriteFlagClobber) {
  // The literal Listing 6/9 reader-side counter reset erases a concurrent
  // writer's WRITE flag (DESIGN.md §2.5). One reader + one writer with
  // T_R = 1 (reset on every reader departure) suffices; iterative
  // preemption deepening finds the race without enumerating the full space.
  CheckConfig config = tiny_config(2, 2);
  config.writer_roles = {false, true};  // rank 0 reads, rank 1 writes
  config.trace_dir = ::testing::TempDir();
  config.workload_id = "rw:planted-faithful";
  ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 4;
  const RwLockFactory faithful_factory = [](rma::World& world) {
    locks::RmaRwParams params =
        locks::RmaRwParams::defaults(world.topology());
    params.tdc = 1;
    params.tr = 1;
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 1);
    params.paper_faithful_reader_reset = true;
    return std::make_unique<locks::RmaRw>(world, params);
  };
  const CheckReport report =
      check_exhaustive(config, explore, lock_workload(faithful_factory),
                       /*iterative=*/true);
  EXPECT_FALSE(report.ok()) << report.summary();
  EXPECT_GT(report.mutex_violations, 0u);
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "mutex");

  // The written trace file must carry the pinned reader/writer roles, and a
  // config rebuilt purely from the file must reproduce the violation — this
  // is exactly what mc_verification --replay does with a CI artifact.
  ASSERT_FALSE(report.first_failure.trace_path.empty());
  TraceCase repro;
  std::string error;
  ASSERT_TRUE(read_trace_file(report.first_failure.trace_path, &repro,
                              &error))
      << error;
  EXPECT_EQ(repro.writer_roles, config.writer_roles);
  CheckConfig from_file;
  from_file.topology = repro.topology;
  from_file.acquires_per_proc = repro.acquires_per_proc;
  from_file.writer_fraction = repro.writer_fraction;
  from_file.writer_roles = repro.writer_roles;
  from_file.max_steps = repro.max_steps;
  const ScheduleOutcome replayed = lock_workload(faithful_factory).run(
      from_file, replay_options(from_file, repro.world_seed, repro.trace));
  EXPECT_GT(replayed.mutex_violations, 0u);
}

TEST(Explorer, ExhaustivelyVerifiesDMcsUnboundedSmallConfig) {
  // With no preemption bound at all, the *entire* interleaving space of the
  // 2-process/1-acquire D-MCS workload is 38872 schedules — drained in a
  // couple of seconds, all clean.
  ExploreConfig explore;
  explore.max_schedules = 100'000;
  const CheckReport report = check_exhaustive(
      tiny_config(2, 1), explore, lock_workload([](rma::World& world) {
        return std::make_unique<locks::DMcs>(world);
      }));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.exhausted_spaces, 1u) << report.summary();
  EXPECT_EQ(report.schedules_run, 38872u);
}

}  // namespace
}  // namespace rmalock::mc
