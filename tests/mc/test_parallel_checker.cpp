// Parallel campaign determinism: --jobs N and --jobs 1 must be
// observationally equivalent (docs/PERF.md, "Parallel campaigns").
//
// Every assertion here compares a campaign run sequentially (jobs=1: one
// worker, the calling thread, in index order) against the same campaign on
// several TaskPool workers: byte-equal CheckReport summaries, identical
// schedule counts and virtual-time-derived counters, the same first-failure
// coordinates, and the same ddmin-shrunk counterexample trace on
// planted-bug fixtures.
// This suite is also the TSan entry for the parallel checker path (CI runs
// it under the tsan preset).
#include <gtest/gtest.h>

#include <memory>

#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "planted_locks.hpp"

namespace rmalock::mc {
namespace {

/// The full observable surface of a CheckReport must match.
void expect_equal_reports(const CheckReport& seq, const CheckReport& par) {
  EXPECT_EQ(seq.summary(), par.summary());
  EXPECT_EQ(seq.schedules_run, par.schedules_run);
  EXPECT_EQ(seq.mutex_violations, par.mutex_violations);
  EXPECT_EQ(seq.deadlocks, par.deadlocks);
  EXPECT_EQ(seq.step_limit_hits, par.step_limit_hits);
  EXPECT_EQ(seq.total_cs_entries, par.total_cs_entries);
  EXPECT_EQ(seq.exhausted_spaces, par.exhausted_spaces);
  ASSERT_EQ(seq.has_first_failure, par.has_first_failure);
  if (seq.has_first_failure) {
    EXPECT_EQ(seq.first_failure.kind, par.first_failure.kind);
    EXPECT_EQ(seq.first_failure.lock_name, par.first_failure.lock_name);
    EXPECT_EQ(seq.first_failure.base_seed, par.first_failure.base_seed);
    EXPECT_EQ(seq.first_failure.schedule_index,
              par.first_failure.schedule_index);
    EXPECT_EQ(seq.first_failure.world_seed, par.first_failure.world_seed);
    EXPECT_EQ(seq.first_failure.raw_trace_len, par.first_failure.raw_trace_len);
    EXPECT_EQ(seq.first_failure.trace, par.first_failure.trace)
        << "shrunk counterexamples must be pick-for-pick identical";
  }
}

ExclusiveLockFactory rma_mcs_factory() {
  return [](rma::World& world) {
    locks::RmaMcsParams params =
        locks::RmaMcsParams::defaults(world.topology());
    params.locality.assign(static_cast<usize>(world.topology().num_levels()),
                           2);
    return std::make_unique<locks::RmaMcs>(world, params);
  };
}

ExclusiveLockFactory planted_mcs_factory() {
  return [](rma::World& world) {
    return std::make_unique<test::PlantedMcs>(world, /*drop_handoff=*/true);
  };
}

TEST(ParallelChecker, CleanRandomizedCampaignMatchesSequential) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);  // 4 procs
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 40;
  config.acquires_per_proc = 5;
  config.max_steps = 400'000;
  const CheckReport seq = check(config, lock_workload(rma_mcs_factory()));
  config.jobs = 4;
  const CheckReport par = check(config, lock_workload(rma_mcs_factory()));
  EXPECT_TRUE(seq.ok());
  expect_equal_reports(seq, par);
}

TEST(ParallelChecker, CleanPctRwCampaignMatchesSequential) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.policy = rma::SchedPolicy::kPct;
  config.schedules = 30;
  config.acquires_per_proc = 4;
  config.max_steps = 400'000;
  const RwLockFactory factory = [](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tr = 3;
    params.locality.assign(static_cast<usize>(world.topology().num_levels()),
                           2);
    return std::make_unique<locks::RmaRw>(world, params);
  };
  const CheckReport seq = check(config, lock_workload(factory));
  config.jobs = 4;
  const CheckReport par = check(config, lock_workload(factory));
  EXPECT_TRUE(seq.ok());
  expect_equal_reports(seq, par);
}

TEST(ParallelChecker, PlantedBugFailureCoordinatesMatchSequential) {
  // The planted drop-handoff bug deadlocks on many (not all) schedules:
  // sequential and parallel campaigns must agree on *which* schedule is
  // reported first and on the shrunk counterexample — even though a
  // later-indexed failing schedule may well finish first on the pool.
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 3);  // 3 procs, flat
  config.policy = rma::SchedPolicy::kRandom;
  config.schedules = 60;
  config.acquires_per_proc = 2;
  config.max_steps = 200'000;
  const CheckReport seq =
      check(config, lock_workload(planted_mcs_factory()));
  config.jobs = 4;
  const CheckReport par =
      check(config, lock_workload(planted_mcs_factory()));
  ASSERT_FALSE(seq.ok());
  ASSERT_TRUE(seq.has_first_failure);
  EXPECT_EQ(seq.first_failure.kind, "deadlock");
  expect_equal_reports(seq, par);
}

TEST(ParallelChecker, ExhaustiveEnumerationMatchesSequential) {
  // The sharded parallel DFS must enumerate exactly the sequential
  // schedule set: same count, same counters, same exhausted_spaces.
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);  // 2 procs
  config.acquires_per_proc = 2;
  config.max_steps = 200'000;
  ExploreConfig explore;
  explore.max_schedules = 100'000;
  explore.max_preemptions = 3;
  const CheckReport seq =
      check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                       /*iterative=*/true);
  config.jobs = 4;
  const CheckReport par =
      check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                       /*iterative=*/true);
  EXPECT_TRUE(seq.ok());
  EXPECT_GT(seq.schedules_run, 100u);  // a real space, not a trivial one
  EXPECT_EQ(seq.exhausted_spaces, 1u);
  expect_equal_reports(seq, par);
}

TEST(ParallelChecker, ExhaustiveShardDepthDoesNotChangeEnumeration) {
  // Any cut of the tree yields the same enumeration. The frontier deepens
  // until it holds at least 4 x jobs subtrees, so these jobs values cut
  // the rounds at different depths (4, 4, 6 and 12 at d <= 2; 4, 6, 16
  // and 16 at d <= 1).
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 2;
  config.max_steps = 200'000;
  config.jobs = 1;
  ExploreConfig explore;
  explore.max_schedules = 100'000;
  explore.max_preemptions = 2;
  const CheckReport seq =
      check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                       true);
  for (const i32 jobs : {2, 3, 8, 32}) {
    SCOPED_TRACE(jobs);
    config.jobs = jobs;
    const CheckReport par =
        check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                         true);
    expect_equal_reports(seq, par);
  }
}

TEST(ParallelChecker, CappedExhaustiveCampaignMatchesSequential) {
  // A schedule cap that stops the DFS inside the space: every subtree task
  // runs with the whole budget, so the merge must re-run the subtree that
  // crosses the cap with the budget left and drop the ones after it.
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 2;
  config.max_steps = 200'000;
  ExploreConfig explore;
  explore.max_schedules = 120;
  explore.max_preemptions = 2;
  const CheckReport seq =
      check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                       /*iterative=*/true);
  EXPECT_TRUE(seq.ok());
  EXPECT_EQ(seq.schedules_run, 120u);
  EXPECT_EQ(seq.exhausted_spaces, 0u);
  for (const i32 jobs : {2, 4, 7}) {
    SCOPED_TRACE(jobs);
    config.jobs = jobs;
    const CheckReport par =
        check_exhaustive(config, explore, lock_workload(rma_mcs_factory()),
                         /*iterative=*/true);
    expect_equal_reports(seq, par);
  }
}

TEST(ParallelChecker, ExhaustivePlantedBugStopsAtSameCounterexample) {
  // Sequential DFS stops at its first counterexample; the parallel run
  // must report the same stopping point (schedules_run counts only the
  // schedules "before" the failure in DFS order) and the same shrunk
  // trace.
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 200'000;
  ExploreConfig explore;
  explore.max_schedules = 100'000;
  explore.max_preemptions = 4;
  const CheckReport seq = check_exhaustive(
      config, explore, lock_workload(planted_mcs_factory()),
      /*iterative=*/true);
  config.jobs = 4;
  const CheckReport par = check_exhaustive(
      config, explore, lock_workload(planted_mcs_factory()),
      /*iterative=*/true);
  ASSERT_FALSE(seq.ok());
  ASSERT_TRUE(seq.has_first_failure);
  expect_equal_reports(seq, par);
}

TEST(ParallelChecker, ExhaustiveRwCampaignMatchesSequential) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 200'000;
  config.writer_roles = {true, false};  // one writer, one reader
  ExploreConfig explore;
  explore.max_schedules = 100'000;
  explore.max_preemptions = 3;
  const RwLockFactory factory = [](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tr = 3;
    params.locality.assign(static_cast<usize>(world.topology().num_levels()),
                           2);
    return std::make_unique<locks::RmaRw>(world, params);
  };
  const CheckReport seq =
      check_exhaustive(config, explore, lock_workload(factory),
                       /*iterative=*/true);
  config.jobs = 4;
  const CheckReport par =
      check_exhaustive(config, explore, lock_workload(factory),
                       /*iterative=*/true);
  EXPECT_TRUE(seq.ok());
  expect_equal_reports(seq, par);
}

}  // namespace
}  // namespace rmalock::mc
