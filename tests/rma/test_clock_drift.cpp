// Clock-skew/drift fault-model semantics: disarmed runs read perfect local
// clocks and record nothing (bit-compatible traces), armed runs respect the
// event budget and count injected events, a drifted clock is a
// piecewise-linear map of the rank's OWN virtual clock (rate error within
// ± max_drift_permille, NTP-style steps within ± skew_window), drift
// decisions share the picks stream below the partition range
// (rma/faults.hpp), and a recorded pick stream
// replays to the bit-identical clock trajectory under kVirtualTime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

SimOptions drift_options(i32 p, u64 seed, i32 max_events,
                         u32 chance_permille = 1000,
                         u32 rate_permille = 200, Nanos skew = 2'000) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, p);
  opts.seed = seed;
  opts.max_drift_events = max_events;
  opts.drift_chance_permille = chance_permille;
  opts.max_drift_permille = rate_permille;
  opts.skew_window = skew;
  return opts;
}

/// Every rank hammers a counter on rank 0: the cross-rank fetch-and-ops
/// are the armed remote ops the drift model decides at. (Rank 0's own ops
/// are local — dclass 0 — so rank 0 never hits a decision site in a flat
/// 2-proc world; only nonzero ranks can drift there.)
void contended_body(RmaComm& comm, WinOffset off, i32 iters) {
  for (i32 i = 0; i < iters; ++i) {
    comm.fao(1, 0, off, AccumOp::kSum);
    comm.compute(1'000);
  }
}

TEST(SimWorldClockDrift, DisarmedClocksAreTheIdentityMapAndRecordNothing) {
  // max_drift_events == 0: local_now_ns must equal now_ns at every
  // observation point on every rank, no event is counted, and a recorded
  // trace contains no drift picks — the nonzero chance knob must be inert,
  // keeping pre-drift-model traces bit-compatible.
  SimOptions opts = drift_options(4, 7, /*max_events=*/0,
                                  /*chance_permille=*/999);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  bool identity = true;
  const RunResult result = world->run([&](RmaComm& comm) {
    for (i32 i = 0; i < 10; ++i) {
      contended_body(comm, off, 1);
      identity = identity && comm.local_now_ns() == comm.now_ns();
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(identity) << "a disarmed local clock deviated from now_ns";
  EXPECT_EQ(result.drift_events, 0u);
  const Rank lowest_drift_pick = fault_pick(FaultKind::kDrift, 4, 0);
  for (const Rank pick : result.schedule.picks) {
    EXPECT_GT(pick, lowest_drift_pick) << "drift pick in a disarmed run";
  }
}

TEST(SimWorldClockDrift, ArmedEventsSpendTheBudgetAndNeverOvershoot) {
  for (const i32 budget : {1, 2, 5}) {
    auto world = SimWorld::create(drift_options(2, 11, budget));
    const WinOffset off = world->allocate(1);
    const RunResult result = world->run(
        [&](RmaComm& comm) { contended_body(comm, off, 30); });
    EXPECT_TRUE(result.ok());
    // Chance 1000 permille: every armed remote op drifts until the budget
    // is spent — and never past it.
    EXPECT_EQ(result.drift_events, static_cast<u64>(budget));
  }
}

TEST(SimWorldClockDrift, DriftedClockIsAMapOfTheRanksOwnClock) {
  // One event, full chance: rank 1's FIRST armed remote op drifts it, with
  // the deterministic worst-case parameters — sign for (rank 1, event 0)
  // is -1, so rate -200 permille and skew step -2'000. From then on local
  // time must advance at exactly 0.8x the rank's own virtual clock:
  // local_now = anchor_local + (clock - anchor_wall) * 0.8. Two
  // observations after the event pin both the rate (slope between them)
  // and the skew step (offset at the first).
  auto world = SimWorld::create(drift_options(2, 13, /*max_events=*/1));
  const WinOffset off = world->allocate(1);
  std::vector<Nanos> wall;   // rank 1's own clock at each observation
  std::vector<Nanos> local;  // rank 1's local reading at the same instant
  const RunResult result = world->run([&](RmaComm& comm) {
    for (i32 i = 0; i < 4; ++i) {
      comm.fao(1, 0, off, AccumOp::kSum);
      if (comm.rank() == 1) {
        wall.push_back(comm.now_ns());
        local.push_back(comm.local_now_ns());
      }
      comm.compute(10'000);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.drift_events, 1u);
  ASSERT_EQ(wall.size(), 4u);
  // Slope between consecutive post-event observations: 0.8 exactly (the
  // map is integer math over (1000 + rate) / 1000).
  for (usize i = 1; i < wall.size(); ++i) {
    const Nanos dw = wall[i] - wall[i - 1];
    const Nanos dl = local[i] - local[i - 1];
    EXPECT_EQ(dl, dw * (1000 - 200) / 1000)
        << "drifted slope off at observation " << i;
  }
  // The event fired at rank 1's first armed op, before the first
  // observation: the local reading must trail the rank's own clock by the
  // skew step (anchor at the event instant, elapsed scaled by 0.8).
  EXPECT_LT(local[0], wall[0]);
}

TEST(SimWorldClockDrift, SkewMayStepTheLocalClockBackward) {
  // A backward step is legal (and the reason every elapsed-time comparison
  // in TimedLease must tolerate negative elapsed): with the sign of the
  // first event on rank 1 being -1, the instant after the event reads
  // local < an earlier reading taken just before it.
  auto world = SimWorld::create(drift_options(2, 17, /*max_events=*/1,
                                              /*chance_permille=*/1000,
                                              /*rate_permille=*/0,
                                              /*skew=*/5'000));
  const WinOffset off = world->allocate(1);
  Nanos before = -1, after = -1, before_wall = -1, after_wall = -1;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() != 1) return;
    before = comm.local_now_ns();
    before_wall = comm.now_ns();
    comm.fao(1, 0, off, AccumOp::kSum);  // first armed op: the event
    after = comm.local_now_ns();
    after_wall = comm.now_ns();
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.drift_events, 1u);
  // Zero rate isolates the step: local time moved by (wall delta - 5'000).
  EXPECT_EQ(after - before, (after_wall - before_wall) - 5'000);
}

TEST(SimWorldClockDrift, RecordedPickStreamReplaysBitIdentically) {
  // kVirtualTime records ONLY drift picks (scheduling is deterministic);
  // replaying them under kVirtualTime must reproduce the run exactly:
  // same event count, same final local clocks on every rank.
  const auto run_once = [](const ScheduleTrace* replay,
                           ScheduleTrace* recorded,
                           std::vector<Nanos>* finals) {
    SimOptions opts = drift_options(2, 23, /*max_events=*/2,
                                    /*chance_permille=*/400);
    opts.policy = SchedPolicy::kVirtualTime;
    opts.record_schedule = recorded != nullptr;
    opts.replay = replay;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    std::vector<Nanos> local_ends(2, 0);
    const RunResult result = world->run([&](RmaComm& comm) {
      contended_body(comm, off, 20);
      local_ends[static_cast<usize>(comm.rank())] = comm.local_now_ns();
    });
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.replay_divergences, 0u);
    if (recorded != nullptr) *recorded = result.schedule;
    *finals = local_ends;
    return result.drift_events;
  };
  ScheduleTrace trace;
  std::vector<Nanos> original, replayed;
  const u64 events = run_once(nullptr, &trace, &original);
  EXPECT_GT(events, 0u) << "seed 23 injected nothing; pick another seed";
  // Every recorded pick is a drift-range pick or a no-drift rank: under
  // kVirtualTime no scheduling picks are recorded.
  for (const Rank pick : trace.picks) {
    EXPECT_TRUE(pick >= 0 || pick <= fault_pick(FaultKind::kDrift, 2, 0))
        << "non-drift pick " << pick << " recorded under kVirtualTime";
  }
  const u64 replayed_events = run_once(&trace, nullptr, &replayed);
  EXPECT_EQ(replayed_events, events);
  EXPECT_EQ(replayed, original);
}

TEST(SimWorldClockDrift, ReplayedNoDriftPrefixSuppressesTheEvents) {
  // Shrinking support: replaying a trace of all no-drift picks (the
  // ranks themselves) must yield a drift-free run even though the model
  // stays armed — the exhausted-cursor fallback is no-drift too.
  SimOptions opts = drift_options(2, 23, /*max_events=*/2,
                                  /*chance_permille=*/400);
  opts.policy = SchedPolicy::kVirtualTime;
  ScheduleTrace empty;  // exhausted immediately: every decision falls back
  opts.replay = &empty;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  bool identity = true;
  const RunResult result = world->run([&](RmaComm& comm) {
    contended_body(comm, off, 20);
    identity = identity && comm.local_now_ns() == comm.now_ns();
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.drift_events, 0u);
  EXPECT_TRUE(identity);
}

}  // namespace
}  // namespace rmalock::rma
