// Gray-failure network-model semantics: disarmed remote ops make no
// decision and record nothing (bit-compatible traces), armed ops respect
// the delay/partition budgets and count injected faults, straggler delays
// stretch the virtual clock, transient partitions stall blocking ops until
// the window closes while try_* ops fail fast within their deadline (and
// never park on an unchanged word), gray decisions share the picks stream
// below the tear range (rma/faults.hpp) and record/replay bit-identically.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

SimOptions gray_options(const topo::Topology& topology, u64 seed,
                        i32 max_delays, i32 max_partitions,
                        u32 chance_permille = 1000) {
  SimOptions opts;
  opts.topology = topology;
  opts.seed = seed;
  opts.max_delays = max_delays;
  opts.max_partitions = max_partitions;
  opts.delay_chance_permille = chance_permille;
  return opts;
}

/// Every rank hammers a counter on rank 0; the cross-rank fetch-and-ops are
/// the remote ops the armed gray model injects faults into.
void contended_body(RmaComm& comm, WinOffset off, i32 iters) {
  for (i32 i = 0; i < iters; ++i) {
    comm.fao(1, 0, off, AccumOp::kSum);
    comm.compute(100);
  }
}

TEST(SimWorldGray, DisarmedRemoteOpsMakeNoDecisionAndRecordNothing) {
  // max_delays == max_partitions == 0: remote ops are plain ops — no
  // faults, no randomness consumed, and no gray picks in a recorded trace,
  // keeping pre-gray-model traces bit-compatible. The nonzero chance knob
  // must be inert while the budgets are zero.
  SimOptions opts = gray_options(topo::Topology::uniform({}, 4), 7,
                                 /*max_delays=*/0, /*max_partitions=*/0,
                                 /*chance_permille=*/999);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const RunResult result =
      world->run([&](RmaComm& comm) { contended_body(comm, off, 10); });
  EXPECT_EQ(result.delays, 0u);
  EXPECT_EQ(result.partitions, 0u);
  for (const Rank pick : result.schedule.picks) {
    EXPECT_GE(pick, 0) << "fault pick in a disarmed run";
  }
}

TEST(SimWorldGray, ArmedDelaysSpendTheBudgetAndStretchTheClock) {
  const topo::Topology topology = topo::Topology::uniform({}, 4);
  const auto makespan = [&](i32 max_delays) {
    auto opts = gray_options(topology, 3, max_delays, /*max_partitions=*/0);
    opts.delay_factor = 64;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    Nanos end = 0;
    const RunResult result = world->run([&](RmaComm& comm) {
      contended_body(comm, off, 10);
      end = std::max(end, comm.now_ns());
    });
    EXPECT_TRUE(result.ok());
    // Chance 1000 permille: every armed remote op injects until the budget
    // is spent — and never past it.
    EXPECT_EQ(result.delays, static_cast<u64>(max_delays));
    return end;
  };
  // A straggler completes late rather than failing: x64 op costs must show
  // up as a strictly longer virtual makespan than the fault-free run's.
  EXPECT_GT(makespan(3), makespan(0));
}

TEST(SimWorldGray, PartitionStallsBlockingOpsUntilTheWindowCloses) {
  constexpr Nanos kSpan = 500'000;
  auto opts = gray_options(topo::Topology::uniform({}, 2), 5,
                           /*max_delays=*/0, /*max_partitions=*/1);
  opts.partition_span = kSpan;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->write_word(1, off, 42);
  i64 value = 0;
  Nanos after = 0;
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      // The first remote op opens the partition of its own target and then
      // stalls behind it: blocking ops wait the window out and complete.
      value = comm.get(1, off);
      after = comm.now_ns();
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.partitions, 1u);
  EXPECT_EQ(value, 42);
  EXPECT_GE(after, kSpan) << "blocking get did not wait out the partition";
}

TEST(SimWorldGray, TryOpsFailFastAgainstAPartitionedTarget) {
  constexpr Nanos kSpan = 1'000'000;
  auto opts = gray_options(topo::Topology::uniform({}, 2), 5,
                           /*max_delays=*/0, /*max_partitions=*/1);
  opts.partition_span = kSpan;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->write_word(1, off, 42);
  const RunResult result = world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    // First attempt opens the partition; the window outlives the deadline,
    // so the attempt fails fast WITHOUT applying the op, charging the
    // caller at most the deadline itself.
    const Nanos start = comm.now_ns();
    const TryResult denied = comm.try_get(1, off, start + 10'000);
    EXPECT_EQ(denied.status, TryStatus::kTimeout);
    EXPECT_LE(comm.now_ns(), start + 10'000 + 1);
    // A deadline past the window turns the partition into a straggler: the
    // op starts once the window closes and completes with the value.
    const TryResult granted = comm.try_get(1, off, start + 2 * kSpan);
    EXPECT_EQ(granted.status, TryStatus::kOk);
    EXPECT_EQ(granted.value, 42);
    EXPECT_GE(comm.now_ns(), kSpan);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.partitions, 1u);
}

TEST(SimWorldGray, TryOpsNeverParkOnAnUnchangedWord) {
  // A deadline-bounded attempt is not a spin primitive: re-reading a word
  // nobody writes must keep returning answers, where the same loop of
  // blocking gets parks and, with no writer left, ends deadlocked.
  constexpr i32 kReads = 20;
  const auto answers = [](bool try_ops) {
    SimOptions opts;
    opts.topology = topo::Topology::uniform({}, 2);
    opts.abort_on_deadlock = false;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    world->write_word(1, off, 7);
    i32 answered = 0;
    const RunResult result = world->run([&](RmaComm& comm) {
      if (comm.rank() != 0) return;
      for (i32 i = 0; i < kReads; ++i) {
        const i64 value =
            try_ops ? comm.try_get(1, off, comm.now_ns() + 1'000'000).value
                    : comm.get(1, off);
        EXPECT_EQ(value, 7);
        ++answered;
      }
    });
    return std::pair{result, answered};
  };
  const auto [tried, tried_answers] = answers(/*try_ops=*/true);
  EXPECT_TRUE(tried.ok());
  EXPECT_EQ(tried_answers, kReads);
  const auto [blocked, blocked_answers] = answers(/*try_ops=*/false);
  EXPECT_TRUE(blocked.deadlocked);
  EXPECT_LT(blocked_answers, kReads);
}

TEST(SimWorldGray, GrayPicksLiveBelowTheTearRange) {
  // With P == 2: delay picks are -(2 + 64 + 3 + r) ∈ {-69, -70}, partition
  // picks -(2*2 + 64 + 3 + t) ∈ {-71, -72} — disjoint from scheduler picks
  // (>= 0) and strictly below the crash and tear ranges.
  const i32 nprocs = 2;
  SimOptions opts = gray_options(topo::Topology::uniform({}, nprocs), 9,
                                 /*max_delays=*/2, /*max_partitions=*/1,
                                 /*chance_permille=*/600);
  opts.policy = SchedPolicy::kRandom;
  opts.record_schedule = true;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const RunResult result =
      world->run([&](RmaComm& comm) { contended_body(comm, off, 20); });
  ASSERT_GT(result.delays + result.partitions, 0u);
  u64 delay_picks = 0;
  u64 part_picks = 0;
  const Rank delay_base = fault_pick(FaultKind::kDelay, nprocs, 0);
  const Rank part_base = fault_pick(FaultKind::kPartition, nprocs, 0);
  for (const Rank pick : result.schedule.picks) {
    if (pick > delay_base) continue;  // scheduler / crash / tear pick
    if (pick > part_base) {
      ++delay_picks;
    } else {
      ++part_picks;
      EXPECT_GE(pick, part_base - (nprocs - 1)) << "pick below the gray range";
    }
  }
  EXPECT_EQ(delay_picks, result.delays);
  EXPECT_EQ(part_picks, result.partitions);
}

TEST(SimWorldGray, RecordReplayRoundTripsGrayDecisions) {
  const topo::Topology topology = topo::Topology::uniform({}, 2);
  SimOptions record_opts = gray_options(topology, 11, /*max_delays=*/2,
                                        /*max_partitions=*/1, /*chance=*/500);
  record_opts.policy = SchedPolicy::kRandom;
  record_opts.record_schedule = true;
  auto world = SimWorld::create(record_opts);
  const WinOffset off = world->allocate(1);
  const auto body = [&off](RmaComm& comm) { contended_body(comm, off, 15); };
  const RunResult recorded = world->run(body);
  ASSERT_GT(recorded.delays + recorded.partitions, 0u);

  SimOptions replay_opts = gray_options(topology, 11, /*max_delays=*/2,
                                        /*max_partitions=*/1, /*chance=*/500);
  replay_opts.policy = SchedPolicy::kReplay;
  replay_opts.replay = &recorded.schedule;
  replay_opts.record_schedule = true;
  auto replay_world = SimWorld::create(replay_opts);
  ASSERT_EQ(replay_world->allocate(1), off);
  const RunResult replayed = replay_world->run(body);
  EXPECT_EQ(replayed.replay_divergences, 0u);
  EXPECT_EQ(replayed.delays, recorded.delays);
  EXPECT_EQ(replayed.partitions, recorded.partitions);
  EXPECT_EQ(replayed.schedule, recorded.schedule);
  EXPECT_EQ(replay_world->read_word(0, off), world->read_word(0, off));
}

TEST(SimWorldGray, ArmedRunsAreDeterministicPerSeed) {
  const auto run_once = [](u64 seed) {
    auto opts = gray_options(topo::Topology::uniform({}, 2), seed,
                             /*max_delays=*/2, /*max_partitions=*/1,
                             /*chance=*/500);
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    const RunResult result =
        world->run([&](RmaComm& comm) { contended_body(comm, off, 20); });
    return result.delays * 100 + result.partitions;
  };
  EXPECT_EQ(run_once(21), run_once(21));
}

}  // namespace
}  // namespace rmalock::rma
