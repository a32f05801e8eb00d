// Crash-injection engine semantics: declared crash points are free when
// unarmed (bit-compatible traces), armed crashes respect the budget and
// fail-stop the victim while its window memory survives, crash decisions
// record/replay through the shared picks stream (negative crash picks),
// restarts re-run the body under a fresh incarnation, the failure detector
// tracks crashes (perfect) or suspects everyone (adversarial), and a crash
// wakes parked waiters / releases barriers so survivors never wedge on a
// dead process.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

SimOptions crash_options(const topo::Topology& topology, u64 seed,
                         i32 max_crashes, u32 chance_permille = 1000) {
  SimOptions opts;
  opts.topology = topology;
  opts.latency = LatencyModel::zero(topology.num_levels());
  opts.seed = seed;
  opts.max_crashes = max_crashes;
  opts.crash_chance_permille = chance_permille;
  return opts;
}

TEST(SimWorldCrash, UnarmedCrashPointIsFreeAndTracesStayBitCompatible) {
  // With max_crashes == 0 a crash point must not crash, not consume
  // randomness, and not add a scheduling decision: a body sprinkled with
  // crash points records the identical kRandom trace as one without.
  const auto record = [](bool with_crash_points) {
    SimOptions opts =
        crash_options(topo::Topology::uniform({}, 4), 9, /*max_crashes=*/0);
    opts.policy = SchedPolicy::kRandom;
    opts.record_schedule = true;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    const RunResult result = world->run([&](RmaComm& comm) {
      for (i32 i = 0; i < 10; ++i) {
        if (with_crash_points) comm.crash_point();
        comm.accumulate(1, 0, off, AccumOp::kSum);
        comm.flush(0);
      }
    });
    EXPECT_EQ(result.crashes, 0u);
    EXPECT_TRUE(result.crashed_ranks.empty());
    return result.schedule;
  };
  EXPECT_EQ(record(true), record(false));
}

TEST(SimWorldCrash, ArmedCrashFailStopsTheVictimAndWindowSurvives) {
  auto opts = crash_options(topo::Topology::uniform({}, 4), 1, 1);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  constexpr Rank kVictim = 2;
  i64 observed = 0;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() == kVictim) {
      comm.put(4242, kVictim, off);
      comm.flush(kVictim);
      comm.crash_point();  // chance 1000permille: always fires
      ADD_FAILURE() << "victim survived an always-fire crash point";
    } else if (comm.rank() == 0) {
      while (!comm.suspected(kVictim)) comm.compute(100);
      // Fail-stop kills the process, not its exposed memory: the window
      // word the victim published before dying must still be readable.
      observed = comm.get(kVictim, off);
      comm.flush(kVictim);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
  ASSERT_EQ(result.crashed_ranks.size(), 1u);
  EXPECT_EQ(result.crashed_ranks.front(), kVictim);
  EXPECT_EQ(observed, 4242);
}

TEST(SimWorldCrash, CrashBudgetCapsInjectionAcrossAllRanks) {
  // Every rank volunteers repeatedly at full chance; exactly max_crashes
  // events may fire, and the remaining ranks run to completion.
  auto opts = crash_options(topo::Topology::uniform({}, 6), 3, /*max=*/1);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const RunResult result = world->run([&](RmaComm& comm) {
    for (i32 i = 0; i < 5; ++i) {
      comm.crash_point();
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.crashed_ranks.size(), 1u);
  // 5 survivors complete all 5 increments; the victim dies at its first
  // crash point having contributed none.
  EXPECT_EQ(world->read_word(0, off), 5 * 5);
}

TEST(SimWorldCrash, RecordReplayRoundTripsCrashDecisions) {
  // Crash decisions share the picks stream as negative entries
  // (crash_pick(r) == -(r + 2)); a recorded crashing run must replay
  // bit-identically, re-firing the crash at the same decision point.
  const topo::Topology topology = topo::Topology::uniform({}, 4);
  SimOptions record_opts = crash_options(topology, 13, 1, /*chance=*/500);
  record_opts.policy = SchedPolicy::kRandom;
  record_opts.record_schedule = true;
  auto world = SimWorld::create(record_opts);
  const WinOffset off = world->allocate(1);
  const auto body = [&off](RmaComm& comm) {
    for (i32 i = 0; i < 8; ++i) {
      comm.crash_point();
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  };
  const RunResult recorded = world->run(body);
  ASSERT_EQ(recorded.crashes, 1u);
  const bool has_crash_pick =
      std::any_of(recorded.schedule.picks.begin(),
                  recorded.schedule.picks.end(),
                  [](Rank pick) { return pick <= -2; });
  EXPECT_TRUE(has_crash_pick) << "crash decision missing from the trace";

  SimOptions replay_opts = crash_options(topology, 13, 1, /*chance=*/500);
  replay_opts.policy = SchedPolicy::kReplay;
  replay_opts.replay = &recorded.schedule;
  replay_opts.record_schedule = true;
  auto replay_world = SimWorld::create(replay_opts);
  ASSERT_EQ(replay_world->allocate(1), off);
  const RunResult replayed = replay_world->run(body);
  EXPECT_EQ(replayed.replay_divergences, 0u);
  EXPECT_EQ(replayed.crashes, recorded.crashes);
  EXPECT_EQ(replayed.crashed_ranks, recorded.crashed_ranks);
  EXPECT_EQ(replayed.schedule, recorded.schedule);
  EXPECT_EQ(replay_world->read_word(0, off), world->read_word(0, off));
}

TEST(SimWorldCrash, RestartRerunsTheBodyUnderAFreshIncarnation) {
  auto opts = crash_options(topo::Topology::uniform({}, 4), 17, 1);
  opts.restart_crashed = true;
  auto world = SimWorld::create(std::move(opts));
  constexpr Rank kVictim = 1;
  std::vector<i32> entries(4, 0);
  const RunResult result = world->run([&](RmaComm& comm) {
    ++entries[static_cast<usize>(comm.rank())];
    if (comm.rank() == kVictim) {
      comm.crash_point();  // first incarnation dies; the reboot re-enters
    }                      // with the budget spent and falls through
    comm.compute(100);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
  // The victim rebooted and finished: it is not dead at end of run, and
  // its body ran twice (incarnation 0 died, incarnation 1 completed).
  EXPECT_TRUE(result.crashed_ranks.empty());
  EXPECT_EQ(entries[kVictim], 2);
  for (Rank r = 0; r < 4; ++r) {
    if (r != kVictim) {
      EXPECT_EQ(entries[static_cast<usize>(r)], 1);
    }
  }
}

TEST(SimWorldCrash, PerfectDetectorSuspectsExactlyTheCrashed) {
  auto opts = crash_options(topo::Topology::uniform({}, 4), 21, 1);
  auto world = SimWorld::create(std::move(opts));
  constexpr Rank kVictim = 3;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() == kVictim) {
      comm.crash_point();
    } else if (comm.rank() == 0) {
      while (!comm.suspected(kVictim)) comm.compute(100);
      // Perfect detector: no false positives, ever.
      EXPECT_FALSE(comm.suspected(1));
      EXPECT_FALSE(comm.suspected(2));
      EXPECT_FALSE(comm.suspected(0));
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
}

TEST(SimWorldCrash, AdversarialDetectorSuspectsEveryOtherRank) {
  // The timeout that always fires: every remote rank is suspected even
  // though nobody crashed. (Self-suspicion stays false — a process can
  // trust its own liveness.) This is the detector model under which lease
  // fencing must still preserve epoch safety.
  auto opts = crash_options(topo::Topology::uniform({}, 4), 23,
                            /*max_crashes=*/0);
  opts.adversarial_suspicion = true;
  auto world = SimWorld::create(std::move(opts));
  const RunResult result = world->run([&](RmaComm& comm) {
    for (Rank r = 0; r < comm.nprocs(); ++r) {
      EXPECT_EQ(comm.suspected(r), r != comm.rank());
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 0u);
}

TEST(SimWorldCrash, CrashWakesWaitersParkedOnTheVictimsWrite) {
  // Rank 0 spins on a cell only the victim would write; the victim dies
  // instead. The crash must wake parked pollers (like a window write
  // would) so the survivor can consult the failure detector and move on —
  // otherwise this run deadlocks.
  auto opts = crash_options(topo::Topology::uniform({}, 2), 25, 1);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  constexpr Rank kVictim = 1;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() == kVictim) {
      comm.crash_point();  // dies before the handshake write
      comm.put(1, 0, off);
      comm.flush(0);
    } else {
      while (comm.get(0, off) == 0) {
        comm.flush(0);
        if (comm.suspected(kVictim)) break;
      }
      comm.flush(0);
      EXPECT_TRUE(comm.suspected(kVictim));
    }
  });
  EXPECT_TRUE(result.ok()) << "crash did not wake the parked waiter";
  EXPECT_EQ(result.crashes, 1u);
}

TEST(SimWorldCrash, BarrierCompletesAmongSurvivors) {
  // A fail-stop participant must not wedge a barrier: the victim's exit
  // re-evaluates barrier completion over the remaining processes.
  auto opts = crash_options(topo::Topology::uniform({}, 4), 27, 1);
  auto world = SimWorld::create(std::move(opts));
  constexpr Rank kVictim = 2;
  i32 past_barrier = 0;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() == kVictim) comm.crash_point();
    comm.barrier();
    ++past_barrier;
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(past_barrier, 3);
}

}  // namespace
}  // namespace rmalock::rma
