#include "rma/sim_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/test_support.hpp"

namespace rmalock::rma {
namespace {

using test::make_sim;

TEST(SimWorld, AllocateReturnsConsecutiveOffsets) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  EXPECT_EQ(world->allocate(2), 0);
  EXPECT_EQ(world->allocate(3), 2);
  EXPECT_EQ(world->allocate(1), 5);
  EXPECT_EQ(world->window_words(), 6u);
}

TEST(SimWorld, WindowWordsStartZeroed) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const WinOffset off = world->allocate(4);
  for (Rank r = 0; r < 3; ++r) {
    for (WinOffset o = off; o < off + 4; ++o) {
      EXPECT_EQ(world->read_word(r, o), 0);
    }
  }
}

TEST(SimWorld, DirectReadWriteWord) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(1, off, -77);
  EXPECT_EQ(world->read_word(1, off), -77);
  EXPECT_EQ(world->read_word(0, off), 0);  // windows are per rank
}

TEST(SimWorld, WindowWordsSurviveGrowthAndStayPerRank) {
  // Every rank's words live in one arena: growth must keep each earlier
  // word, and a vectored read must return the target's own consecutive
  // words, never a neighbouring rank's word at the same offset.
  const auto topology = topo::Topology::uniform({2}, 3);  // P = 6
  const i32 p = topology.nprocs();
  auto world = make_sim(topology);
  const auto value = [](Rank rank, WinOffset offset) {
    return 1000 * static_cast<i64>(rank + 1) + offset;
  };
  for (const usize words : {1, 3, 2, 5}) {
    const WinOffset base = world->allocate(words);
    for (Rank r = 0; r < p; ++r) {
      for (WinOffset o = base; o < base + static_cast<WinOffset>(words);
           ++o) {
        world->write_word(r, o, value(r, o));
      }
    }
    for (Rank r = 0; r < p; ++r) {
      for (WinOffset o = 0; o < base; ++o) {
        EXPECT_EQ(world->read_word(r, o), value(r, o))
            << "rank " << r << " offset " << o << " after growing to "
            << world->window_words() << " words";
      }
    }
  }
  const usize n = world->window_words();
  ASSERT_EQ(n, 11u);
  world->run([&](RmaComm& comm) {
    std::vector<i64> words(n);
    for (Rank target = 0; target < p; ++target) {
      comm.get_vec(target, 0, words.data(), n);
      for (usize i = 0; i < n; ++i) {
        EXPECT_EQ(words[i], value(target, static_cast<WinOffset>(i)))
            << "rank " << comm.rank() << " read rank " << target
            << " word " << i;
      }
      // A suffix read starting mid-window walks the same rank's words.
      comm.get_vec(target, 4, words.data(), 3);
      for (usize i = 0; i < 3; ++i) {
        EXPECT_EQ(words[i], value(target, static_cast<WinOffset>(4 + i)));
      }
    }
  });
}

TEST(SimWorldDeathTest, DirectWordAccessIsBoundsChecked) {
  // All ranks' words share one arena, where an unchecked rank or offset
  // would silently alias another rank's word: on 2 ranks, (rank 2,
  // offset 0) would land on (rank 0, offset 1).
  auto world = make_sim(topo::Topology::uniform({}, 2));
  world->allocate(2);
  EXPECT_DEATH((void)world->read_word(0, 2), "outside 2 ranks x 2 words");
  EXPECT_DEATH((void)world->read_word(-1, 0), "outside 2 ranks x 2 words");
  EXPECT_DEATH(world->write_word(2, 0, 1), "outside 2 ranks x 2 words");
  EXPECT_DEATH(world->write_word(0, -1, 1), "outside 2 ranks x 2 words");
}

TEST(SimWorld, PutAndGetRoundTrip) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.put(123, 1, off);
      comm.flush(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.get(1, off), 123);
      comm.flush(1);
    }
  });
}

TEST(SimWorld, FaoSumReturnsPrevious) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  const WinOffset off = world->allocate(1);
  std::vector<i64> previous(4, -1);
  world->run([&](RmaComm& comm) {
    previous[static_cast<usize>(comm.rank())] =
        comm.fao(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  EXPECT_EQ(world->read_word(0, off), 4);
  std::sort(previous.begin(), previous.end());
  EXPECT_EQ(previous, (std::vector<i64>{0, 1, 2, 3}));
}

TEST(SimWorld, FaoReplaceSwaps) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(0, off, 5);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      const i64 old = comm.fao(9, 0, off, AccumOp::kReplace);
      comm.flush(0);
      EXPECT_EQ(old, 5);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 9);
}

TEST(SimWorld, CasSemantics) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->write_word(0, off, 10);
  world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    EXPECT_EQ(comm.cas(11, 99, 0, off), 10);  // mismatch: unchanged
    comm.flush(0);
    EXPECT_EQ(comm.get(0, off), 10);
    comm.flush(0);
    EXPECT_EQ(comm.cas(11, 10, 0, off), 10);  // match: swapped
    comm.flush(0);
    EXPECT_EQ(comm.get(0, off), 11);
    comm.flush(0);
  });
}

TEST(SimWorld, AccumulateSumAndReplace) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const WinOffset sum = world->allocate(1);
  const WinOffset rep = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(2, 0, sum, AccumOp::kSum);
    comm.accumulate(comm.rank() + 1, 0, rep, AccumOp::kReplace);
    comm.flush(0);
  });
  EXPECT_EQ(world->read_word(0, sum), 6);
  const i64 last = world->read_word(0, rep);
  EXPECT_GE(last, 1);
  EXPECT_LE(last, 3);
}

TEST(SimWorld, ExactlyOneCasWinner) {
  auto world = make_sim(topo::Topology::uniform({2}, 8));
  const WinOffset off = world->allocate(1);
  i32 winners = 0;
  world->run([&](RmaComm& comm) {
    const i64 old = comm.cas(comm.rank() + 1, 0, 0, off);
    comm.flush(0);
    if (old == 0) ++winners;  // serialized engine: plain int is fine
  });
  EXPECT_EQ(winners, 1);
}

TEST(SimWorld, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [](u64 seed) {
    auto world = make_sim(topo::Topology::uniform({2}, 4), seed);
    const WinOffset off = world->allocate(1);
    auto result = world->run([&](RmaComm& comm) {
      for (int i = 0; i < 50; ++i) {
        comm.fao(1, 0, off, AccumOp::kSum);
        comm.flush(0);
      }
    });
    return std::pair<u64, Nanos>(result.steps, result.makespan_ns);
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a, b);
}

TEST(SimWorld, ClockAdvancesWithOps) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    const Nanos t0 = comm.now_ns();
    comm.put(1, 0, off);
    comm.flush(0);
    EXPECT_GT(comm.now_ns(), t0);
  });
}

TEST(SimWorld, ComputeAdvancesVirtualTime) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  world->run([&](RmaComm& comm) {
    const Nanos t0 = comm.now_ns();
    comm.compute(12345);
    EXPECT_EQ(comm.now_ns(), t0 + 12345);
  });
}

TEST(SimWorld, BarrierSynchronizesClocks) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  std::vector<Nanos> after(4);
  world->run([&](RmaComm& comm) {
    comm.compute(1000 * (comm.rank() + 1));  // ranks arrive staggered
    comm.barrier();
    after[static_cast<usize>(comm.rank())] = comm.now_ns();
  });
  for (Rank r = 1; r < 4; ++r) {
    EXPECT_EQ(after[static_cast<usize>(r)], after[0]);
  }
  EXPECT_GE(after[0], 4000);
}

TEST(SimWorld, DistanceCostOrdering) {
  // Inter-node ops must cost more virtual time than intra-node than self.
  rma::SimOptions opts;
  opts.topology = topo::Topology::nodes(2, 2);  // ranks 0,1 | 2,3
  auto world = SimWorld::create(opts);
  const WinOffset off = world->allocate(1);
  std::vector<Nanos> cost(3);
  world->run([&](RmaComm& comm) {
    if (comm.rank() != 0) return;
    Nanos t0 = comm.now_ns();
    comm.get(0, off);  // self
    cost[0] = comm.now_ns() - t0;
    t0 = comm.now_ns();
    comm.get(1, off);  // same node
    cost[1] = comm.now_ns() - t0;
    t0 = comm.now_ns();
    comm.get(2, off);  // other node
    cost[2] = comm.now_ns() - t0;
  });
  EXPECT_LT(cost[0], cost[1]);
  EXPECT_LT(cost[1], cost[2]);
}

TEST(SimWorld, NicOccupancyQueuesContendingOps) {
  // 16 processes hammering one word on rank 0 must finish later than the
  // wire latency alone because the target NIC serializes them.
  rma::SimOptions opts;
  opts.topology = topo::Topology::nodes(4, 4);
  auto world = SimWorld::create(opts);
  const WinOffset off = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  const LatencyModel& m = world->options().latency;
  // All 16 ops occupy the NIC back to back; the makespan must exceed the
  // accumulated occupancy of the 12 remote ones.
  EXPECT_GT(res.makespan_ns, 12 * m.atomic_occupancy_ns[2]);
  EXPECT_EQ(world->read_word(0, off), 16);
}

TEST(SimWorld, SpinWaitParksAndWakes) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset flag = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      i64 value = 0;
      do {  // classic local spin: must park, not burn steps
        value = comm.get(0, flag);
        comm.flush(0);
      } while (value == 0);
      EXPECT_EQ(value, 42);
    } else {
      comm.compute(100000);  // let rank 0 enter its spin first
      comm.put(42, 0, flag);
      comm.flush(0);
    }
  });
  // Parking keeps the step count tiny (no 100000/35 poll storm).
  EXPECT_LT(res.steps, 200u);
  EXPECT_FALSE(res.deadlocked);
}

TEST(SimWorld, ParkedWakeInheritsWriterTime) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset flag = world->allocate(1);
  Nanos waiter_done = 0;
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      i64 value = 0;
      do {
        value = comm.get(0, flag);
        comm.flush(0);
      } while (value == 0);
      waiter_done = comm.now_ns();
    } else {
      comm.compute(500000);
      comm.put(1, 0, flag);
      comm.flush(0);
    }
  });
  // The waiter cannot observe the write before the writer issued it.
  EXPECT_GE(waiter_done, 500000);
}

TEST(SimWorld, DeadlockIsDetectedAndReported) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  opts.abort_on_deadlock = false;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset flag = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    // Both processes wait for a write that never happens.
    i64 v = 0;
    do {
      v = comm.get(comm.rank(), flag);
      comm.flush(comm.rank());
    } while (v == 0);
  });
  EXPECT_TRUE(res.deadlocked);
  EXPECT_FALSE(res.step_limit_hit);
}

TEST(SimWorldDeathTest, DeadlockAbortsByDefault) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  auto world = SimWorld::create(std::move(opts));
  const WinOffset flag = world->allocate(1);
  EXPECT_DEATH(world->run([&](RmaComm& comm) {
                 i64 v = 0;
                 do {
                   v = comm.get(comm.rank(), flag);
                   comm.flush(comm.rank());
                 } while (v == 0);
               }),
               // The abort message names every blocked rank's wait cells.
               "deadlock(.|\n)*rank 0 state=[0-9]+ clock=[0-9]+ "
               "waits: \\(0,0\\)=0(.|\n)*rank 1 state=[0-9]+ clock=[0-9]+ "
               "waits: \\(1,0\\)=0");
}

TEST(SimWorld, StepLimitStopsRun) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.latency = LatencyModel::zero(1);
  opts.max_steps = 1000;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  const auto res = world->run([&](RmaComm& comm) {
    for (;;) {  // infinite mutual writing: live but unbounded
      comm.accumulate(1, 1 - comm.rank(), off, AccumOp::kSum);
      comm.flush(1 - comm.rank());
    }
  });
  EXPECT_TRUE(res.step_limit_hit);
  EXPECT_FALSE(res.deadlocked);
  EXPECT_LE(res.steps, 1100u);
}

TEST(SimWorld, WindowsPersistAcrossRuns) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.accumulate(5, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.accumulate(7, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 12);
}

TEST(SimWorld, ClocksResetEachRun) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  world->run([&](RmaComm& comm) { comm.compute(1000); });
  world->run([&](RmaComm& comm) { EXPECT_EQ(comm.now_ns(), 0); });
}

TEST(SimWorld, PerProcessRngStreamsDiffer) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  std::vector<u64> draws(4);
  world->run([&](RmaComm& comm) {
    draws[static_cast<usize>(comm.rank())] = comm.rng()();
  });
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::unique(draws.begin(), draws.end()), draws.end());
}

TEST(SimWorld, StatsAttributeDistanceClasses) {
  // Every (origin, target) pair on a 2-level, a 3-level and a skewed
  // machine (its single-element middle level means class 3 never occurs),
  // plus a 4-level one with fanouts that are not powers of two: each op is
  // counted in exactly the class distance_class() names.
  for (const topo::Topology& topology :
       {topo::Topology::nodes(4, 4), topo::Topology::uniform({2, 2}, 2),
        topo::Topology::uniform({1, 4}, 3),
        topo::Topology::uniform({3, 2, 3}, 2)}) {
    SCOPED_TRACE(topology.describe());
    const i32 p = topology.nprocs();
    auto world = make_sim(topology);
    const WinOffset off = world->allocate(1);
    world->run([&](RmaComm& comm) {
      const Rank me = comm.rank();
      for (Rank target = 0; target < p; ++target) {
        const i32 dclass = distance_class(topology, me, target);
        const OpStats before = comm.stats();
        comm.put(1, target, off);
        (void)comm.get(target, off);
        comm.flush(target);
        OpStats delta = comm.stats();
        delta -= before;
        EXPECT_EQ(delta.count(OpKind::kPut, dclass), 1u)
            << "origin " << me << " target " << target;
        EXPECT_EQ(delta.count(OpKind::kGet, dclass), 1u)
            << "origin " << me << " target " << target;
        EXPECT_EQ(delta.count(OpKind::kFlush, dclass), 1u)
            << "origin " << me << " target " << target;
        EXPECT_EQ(delta.total_ops(), 3u)
            << "origin " << me << " target " << target;
      }
    });
    std::vector<u64> pairs(static_cast<usize>(topology.num_levels()) + 1, 0);
    for (Rank a = 0; a < p; ++a) {
      for (Rank b = 0; b < p; ++b) {
        ++pairs[static_cast<usize>(distance_class(topology, a, b))];
      }
    }
    const OpStats stats = world->aggregate_stats();
    for (i32 c = 0; c <= topology.num_levels(); ++c) {
      const u64 expected = pairs[static_cast<usize>(c)];
      EXPECT_EQ(stats.count(OpKind::kPut, c), expected) << "class " << c;
      EXPECT_EQ(stats.count(OpKind::kGet, c), expected) << "class " << c;
      EXPECT_EQ(stats.count(OpKind::kFlush, c), expected) << "class " << c;
    }
  }
}

TEST(SimWorld, ResetStatsClears) {
  auto world = make_sim(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.put(1, 0, off);
    comm.flush(0);
  });
  EXPECT_GT(world->aggregate_stats().total_ops(), 0u);
  world->reset_stats();
  EXPECT_EQ(world->aggregate_stats().total_ops(), 0u);
}

TEST(SimWorld, RandomPolicyCompletesAndPreservesSemantics) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 8);
  opts.latency = LatencyModel::zero(1);
  opts.policy = SchedPolicy::kRandom;
  opts.seed = 3;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    for (int i = 0; i < 25; ++i) {
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 8 * 25);
}

TEST(SimWorld, PctPolicyCompletesAndPreservesSemantics) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 8);
  opts.latency = LatencyModel::zero(1);
  opts.policy = SchedPolicy::kPct;
  opts.seed = 5;
  opts.max_steps = 1'000'000;
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    for (int i = 0; i < 25; ++i) {
      comm.accumulate(1, 0, off, AccumOp::kSum);
      comm.flush(0);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 8 * 25);
}

TEST(SimWorld, RandomSeedsProduceDifferentInterleavings) {
  const auto order_fingerprint = [](u64 seed) {
    SimOptions opts;
    opts.topology = topo::Topology::uniform({}, 6);
    opts.latency = LatencyModel::zero(1);
    opts.policy = SchedPolicy::kRandom;
    opts.seed = seed;
    auto world = SimWorld::create(std::move(opts));
    const WinOffset off = world->allocate(1);
    u64 fingerprint = 0;
    world->run([&](RmaComm& comm) {
      for (int i = 0; i < 5; ++i) {
        const i64 ticket = comm.fao(1, 0, off, AccumOp::kSum);
        comm.flush(0);
        u64 h = fingerprint ^ (static_cast<u64>(ticket) * 31 +
                               static_cast<u64>(comm.rank()));
        fingerprint = splitmix64(h);
      }
    });
    return fingerprint;
  };
  // Not all seeds need to differ, but across 4 seeds at least two must.
  const u64 a = order_fingerprint(1);
  const u64 b = order_fingerprint(2);
  const u64 c = order_fingerprint(3);
  const u64 d = order_fingerprint(4);
  EXPECT_TRUE(a != b || a != c || a != d);
}

TEST(SimWorld, ScalesToThousandProcesses) {
  auto world = make_sim(topo::Topology::nodes(64, 16));  // P = 1024
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
    comm.barrier();
  });
  EXPECT_EQ(world->read_word(0, off), 1024);
}

TEST(SimWorld, MakespanEqualsSlowestProcess) {
  auto world = make_sim(topo::Topology::uniform({}, 3));
  const auto res = world->run([&](RmaComm& comm) {
    comm.compute(1000 * (comm.rank() + 1));
  });
  EXPECT_EQ(res.makespan_ns, 3000);
}

// ---------------------------------------------------------------------------
// Fault decisions: one encoding table, one decision rule
// ---------------------------------------------------------------------------

TEST(FaultEncoding, PinsThePicksTheGoldenTracesContain) {
  // Literal values recorded in tests/mc/data: changing any of them breaks
  // every trace file in the wild.
  EXPECT_EQ(fault_pick(FaultKind::kCrash, 4, 0), -2);
  EXPECT_EQ(fault_pick(FaultKind::kCrash, 4, 2), -4);
  EXPECT_EQ(fault_pick(FaultKind::kTear, 4, 1), -7);
  EXPECT_EQ(fault_pick(FaultKind::kDelay, 4, 3), -74);
  EXPECT_EQ(fault_pick(FaultKind::kPartition, 4, 0), -75);
  EXPECT_EQ(fault_pick(FaultKind::kDrift, 2, 1), -74);
}

/// Gray, crash and tear armed under kVirtualTime, where the schedule is
/// deterministic and the fault decisions are the only picks.
SimOptions armed_virtual_time(u64 seed, u32 chance_permille) {
  SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.seed = seed;
  opts.policy = SchedPolicy::kVirtualTime;
  opts.max_crashes = 1;
  opts.crash_chance_permille = chance_permille;
  opts.max_tears = 2;
  opts.tear_chance_permille = chance_permille;
  opts.max_delays = 2;
  opts.max_partitions = 1;
  opts.delay_chance_permille = chance_permille;
  return opts;
}

/// Remote ops (gray decisions), 3-word get_vecs (tear decisions) and
/// declared crash points from every rank against its neighbour.
struct FaultRun {
  RunResult result;
  i64 total = 0;
};
FaultRun run_fault_body(SimOptions opts) {
  auto world = SimWorld::create(std::move(opts));
  const WinOffset off = world->allocate(3);
  FaultRun run;
  run.result = world->run([&](RmaComm& comm) {
    const Rank peer = (comm.rank() + 1) % comm.nprocs();
    for (i32 i = 0; i < 6; ++i) {
      comm.crash_point();
      comm.fao(1, peer, off, AccumOp::kSum);
      i64 words[3];
      comm.get_vec(peer, off, words, 3);
      comm.compute(100);
    }
  });
  for (Rank r = 0; r < 2; ++r) run.total += world->read_word(r, off);
  return run;
}

u64 faults_of(const RunResult& r) {
  return r.crashes + r.tears + r.delays + r.partitions;
}

TEST(FaultDecision, VirtualTimeRecordingReplaysPickForPick) {
  SimOptions record = armed_virtual_time(/*seed=*/11, /*chance=*/400);
  record.record_schedule = true;
  const FaultRun recorded = run_fault_body(record);
  ASSERT_GT(recorded.result.crashes, 0u);
  ASSERT_GT(recorded.result.tears, 0u);
  ASSERT_GT(recorded.result.delays + recorded.result.partitions, 0u);

  // A different seed draws differently: only the trace can reproduce the
  // recorded faults.
  SimOptions replay = armed_virtual_time(/*seed=*/99, /*chance=*/400);
  replay.replay = &recorded.result.schedule;
  replay.record_schedule = true;
  const FaultRun replayed = run_fault_body(replay);
  EXPECT_EQ(replayed.result.replay_divergences, 0u);
  EXPECT_EQ(replayed.result.schedule, recorded.result.schedule);
  EXPECT_EQ(replayed.result.crashes, recorded.result.crashes);
  EXPECT_EQ(replayed.result.tears, recorded.result.tears);
  EXPECT_EQ(replayed.result.delays, recorded.result.delays);
  EXPECT_EQ(replayed.result.partitions, recorded.result.partitions);
  EXPECT_EQ(replayed.total, recorded.total);
}

TEST(FaultDecision, VirtualTimeNoFaultTraceInjectsNothing) {
  // Chance 0 records one no-fault pick (the caller's rank) per decision.
  SimOptions record = armed_virtual_time(/*seed=*/11, /*chance=*/0);
  record.record_schedule = true;
  const FaultRun clean = run_fault_body(record);
  ASSERT_EQ(faults_of(clean.result), 0u);
  ASSERT_FALSE(clean.result.schedule.empty());
  for (const Rank pick : clean.result.schedule.picks) ASSERT_GE(pick, 0);

  // Replayed against an always-fire configuration, the trace wins.
  SimOptions replay = armed_virtual_time(/*seed=*/11, /*chance=*/1000);
  replay.replay = &clean.result.schedule;
  const FaultRun replayed = run_fault_body(replay);
  EXPECT_EQ(faults_of(replayed.result), 0u);
  EXPECT_EQ(replayed.result.replay_divergences, 0u);
}

TEST(FaultDecision, VirtualTimeHookIsConsultedAtEveryArmedDecision) {
  SimOptions record = armed_virtual_time(/*seed=*/11, /*chance=*/0);
  record.record_schedule = true;
  const usize decisions = run_fault_body(record).result.schedule.size();
  ASSERT_GT(decisions, 0u);

  usize calls = 0;
  SimOptions hooked = armed_virtual_time(/*seed=*/11, /*chance=*/1000);
  hooked.pick_hook = [&calls](const std::vector<Rank>& candidates) {
    ++calls;
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_GE(candidates.back(), 0) << "the no-fault pick comes last";
    return candidates.back();
  };
  const FaultRun run = run_fault_body(hooked);
  EXPECT_EQ(calls, decisions);
  EXPECT_EQ(faults_of(run.result), 0u);
}

// glibc serves requests of up to 1032 bytes from a per-thread cache. A
// SimWorld past that takes malloc's slower path on every new and delete,
// which an exhaustive sweep pays once per explored schedule.
TEST(SimWorldLayout, FitsGlibcThreadCache) {
#if defined(__GLIBC__) && defined(__x86_64__)
  if (RMALOCK_ASAN || RMALOCK_TSAN) {
    GTEST_SKIP() << "the sanitizer runtime replaces malloc";
  }
  EXPECT_LE(sizeof(SimWorld), 1032U)
      << "every SimWorld now misses glibc's per-thread cache: one 24-byte "
         "member over the limit made the mc_exhaustive sweep explore 12% "
         "slower (docs/PERF.md section 9); move run-only state out of line";
#else
  GTEST_SKIP() << "the limit is glibc's on x86-64";
#endif
}

}  // namespace
}  // namespace rmalock::rma
