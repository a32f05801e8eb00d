// Model checking under clock drift: the WallClockLeaseMonitor safety
// monitor (virtual-time belief intervals + seq-ordered stale-token
// commits), clean randomized and bounded-exhaustive campaigns for the
// fenced timed lease, the two planted bugs (safety_margin_ns = 0 and
// LockSpaceConfig::skip_token_check) being caught, the drift-blind false
// negative the fault model exists to prevent, and deterministic
// counterexample replay under the recorded kVirtualTime policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "lockspace/lockspace.hpp"
#include "locks/timed_lease.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/monitor.hpp"

namespace rmalock::mc {
namespace {

/// Mirrors mc_verification's drift subjects: one TimedLease guarding one
/// payload key of a single-slot LockSpace. `margin` = correct safety
/// margin; `skip_token` plants the no-fencing resource bug.
Workload drift_lease(bool margin, bool skip_token = false) {
  return drift_workload([margin, skip_token](rma::World& world) {
    DriftLeaseSubject subject;
    locks::TimedLeaseParams params;
    params.home = 0;
    if (!margin) params.safety_margin_ns = 0;
    subject.lease = std::make_unique<locks::TimedLease>(world, params);
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.payload_words = 2;
    config.skip_token_check = skip_token;
    subject.space = std::make_unique<lockspace::LockSpace>(world, config);
    subject.key = 0;
    return subject;
  });
}

/// Randomized drift campaign over the P=2 topology mc_verification uses.
/// kVirtualTime: drift decisions are the randomized adversary, scheduling
/// stays deterministic — belief intervals are only comparable when every
/// process executes in virtual-time order.
CheckConfig drift_config(u64 schedules, i32 drift_events = 2) {
  CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.policy = rma::SchedPolicy::kVirtualTime;
  config.schedules = schedules;
  config.acquires_per_proc = 3;
  config.max_drift_events = drift_events;
  return config;
}

TEST(DriftMcMonitor, DisjointBeliefSessionsAreClean) {
  WallClockLeaseMonitor monitor;
  monitor.session_begin(0, 100);
  monitor.commit(/*token=*/1, /*accepted=*/true, /*seq=*/2);
  monitor.session_end(0, 200);
  monitor.session_begin(1, 200);  // touching endpoints do not overlap
  monitor.commit(/*token=*/2, /*accepted=*/true, /*seq=*/4);
  monitor.session_end(1, 300);
  EXPECT_EQ(monitor.belief_overlaps(), 0u);
  EXPECT_EQ(monitor.stale_commits(), 0u);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.writes(), 2u);
}

TEST(DriftMcMonitor, OverlappingBeliefsOnDifferentRanksAreFlagged) {
  WallClockLeaseMonitor monitor;
  monitor.session_begin(0, 100);
  monitor.session_begin(1, 150);  // rank 1 believes while rank 0 still does
  monitor.session_end(1, 180);
  monitor.session_end(0, 200);
  EXPECT_EQ(monitor.belief_overlaps(), 1u);
  EXPECT_EQ(monitor.violations(), 1u);
}

TEST(DriftMcMonitor, OpenSessionOverlapsEverythingAfterIt) {
  // A crashed or paused holder never calls session_end: its belief
  // interval extends to forever and overlaps any later session.
  WallClockLeaseMonitor monitor;
  monitor.session_begin(0, 100);  // never ended
  monitor.session_begin(1, 5'000);
  monitor.session_end(1, 5'100);
  EXPECT_EQ(monitor.belief_overlaps(), 1u);
}

TEST(DriftMcMonitor, SameRankSessionsNeverOverlap) {
  // One process re-acquiring its own lease is serial by construction;
  // only cross-rank belief overlap is the hazard.
  WallClockLeaseMonitor monitor;
  monitor.session_begin(0, 100);
  monitor.session_end(0, 200);
  monitor.session_begin(0, 150);  // local clock stepped backward
  monitor.session_end(0, 250);
  EXPECT_EQ(monitor.belief_overlaps(), 0u);
}

TEST(DriftMcMonitor, StaleCommitsAreTokenInversionsInAdmissionOrder) {
  WallClockLeaseMonitor monitor;
  // Admission (seq) order: token 2 first, then the stale token 1 — the
  // write a fencing resource would have rejected. Insertion order is
  // scrambled on purpose: only seq order matters.
  monitor.commit(/*token=*/1, /*accepted=*/true, /*seq=*/4);
  monitor.commit(/*token=*/2, /*accepted=*/true, /*seq=*/2);
  EXPECT_EQ(monitor.stale_commits(), 1u);
  // Rejected writes never count, whatever their token.
  monitor.commit(/*token=*/0, /*accepted=*/false, /*seq=*/6);
  EXPECT_EQ(monitor.stale_commits(), 1u);
  EXPECT_EQ(monitor.writes(), 3u);
}

TEST(DriftMc, RandomizedFencedCampaignIsClean) {
  const CheckReport report =
      check(drift_config(20), drift_lease(/*margin=*/true));
  EXPECT_EQ(report.schedules_run, 20u);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.stale_token_commits, 0u);
  EXPECT_GT(report.total_cs_entries, 0u);
}

TEST(DriftMc, DriftBlindMargin0CampaignIsAFalseNegative) {
  // Under perfect clocks the margin-0 lease is actually safe — the false
  // negative the drift model exists to prevent. A clean report here plus
  // the caught-bug tests below is the armed/disarmed contrast.
  const CheckReport report = check(drift_config(20, /*drift_events=*/0),
                                   drift_lease(/*margin=*/false));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(DriftMc, PlantedMargin0BugIsCaughtAndFencingContainsIt) {
  CheckConfig config = drift_config(60);
  const CheckReport report = check(config, drift_lease(/*margin=*/false));
  ASSERT_GT(report.mutex_violations, 0u)
      << "planted zero-margin lease bug was not caught: " << report.summary();
  // Fencing stays ON: the belief overlap is real but the stale holder's
  // write must still be rejected at the resource.
  EXPECT_EQ(report.stale_token_commits, 0u) << report.summary();
  ASSERT_TRUE(report.has_first_failure);
  EXPECT_EQ(report.first_failure.kind, "mutex");

  // The repro line contract: replaying the captured (shrunk) trace under
  // the recorded world seed deterministically reproduces the violation.
  const rma::SimOptions replay = replay_options(
      config, report.first_failure.world_seed, report.first_failure.trace);
  const ScheduleOutcome outcome =
      drift_lease(/*margin=*/false).run(config, replay);
  EXPECT_GT(outcome.mutex_violations, 0u)
      << "counterexample trace does not reproduce the belief overlap";
  EXPECT_GT(outcome.run.drift_events, 0u)
      << "the violation needs the recorded drift events to re-fire";
}

TEST(DriftMc, PlantedSkipTokenCheckBugCommitsStaleWrites) {
  const CheckReport report =
      check(drift_config(60),
            drift_lease(/*margin=*/false, /*skip_token=*/true));
  ASSERT_GT(report.mutex_violations, 0u) << report.summary();
  EXPECT_GT(report.stale_token_commits, 0u)
      << "without resource-side token validation the stale holder's write "
         "must commit: "
      << report.summary();
}

TEST(DriftMc, ExhaustiveFencedCampaignDrainsItsSpaceCleanly) {
  // Bounded-exhaustive DFS over drift decisions under kVirtualTime
  // scheduling: the perfect-clocks schedule AND every placement of up to
  // two drift events. Two rounds per rank — under deterministic
  // virtual-time scheduling the first round's holds are always released
  // or never reclaimed, so the reclaim hazard starts at round two.
  CheckConfig config = drift_config(0);
  config.acquires_per_proc = 2;
  config.max_steps = 400'000;
  ExploreConfig explore;
  explore.max_schedules = 50'000;
  explore.max_preemptions = 2;
  const CheckReport report = check_exhaustive(
      config, explore, drift_lease(/*margin=*/true), /*iterative=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.schedules_run, 1u);
  EXPECT_GT(report.exhausted_spaces, 0u)
      << "the bounded space must be drained, not truncated";
}

TEST(DriftMc, PlantedMargin0BugIsCaughtByExhaustiveEnumeration) {
  CheckConfig config = drift_config(0);
  config.acquires_per_proc = 2;
  config.max_steps = 400'000;
  ExploreConfig explore;
  explore.max_schedules = 50'000;
  explore.max_preemptions = 2;
  const CheckReport report = check_exhaustive(
      config, explore, drift_lease(/*margin=*/false), /*iterative=*/true);
  ASSERT_GT(report.mutex_violations, 0u)
      << "exhaustive enumeration missed the planted bug: "
      << report.summary();
  ASSERT_TRUE(report.has_first_failure);

  // Exhaustive drift counterexamples replay under kVirtualTime, the policy
  // the space was explored under: check_exhaustive and replay_options both
  // key off config.policy.
  const ScheduleOutcome outcome = drift_lease(/*margin=*/false).run(
      config, replay_options(config, report.first_failure.world_seed,
                             report.first_failure.trace));
  EXPECT_GT(outcome.mutex_violations, 0u)
      << "exhaustive counterexample does not replay";
}

}  // namespace
}  // namespace rmalock::mc
