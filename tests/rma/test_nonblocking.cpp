// Nonblocking-op conformance: iput/iaccumulate/iget semantics must be
// identical on SimWorld and ThreadWorld, and SimWorld's pipelined cost
// accounting must match the LatencyModel arithmetic exactly.
//
// The portable contract (comm.hpp): effects are applied atomically; they
// are guaranteed visible to other processes no later than the issuer's next
// flush(target); a flush between two nonblocking ops orders them; iget
// returns the word as it is at issue. Cost (a SimWorld-only notion): issue
// charges the origin one injection slot (occupancy), flush charges
// max(completion + return trip) of the ops pending at the target.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "rma/latency_model.hpp"
#include "support/test_support.hpp"

namespace rmalock {
namespace {

// ---------------------------------------------------------------------------
// Cross-backend semantics (run identically on SimWorld and ThreadWorld)
// ---------------------------------------------------------------------------

/// rank 0 publishes two cells with nonblocking ops, flushes, then raises a
/// flag with a blocking put; every other rank spins on its own flag copy
/// and must then observe both nonblocking effects.
void check_visibility_at_flush(rma::World& world) {
  const WinOffset data = world.allocate(1);
  const WinOffset accum = world.allocate(1);
  const WinOffset flag = world.allocate(1);
  std::atomic<i64> wrong_data{0};
  std::atomic<i64> wrong_accum{0};

  const auto result = world.run([&](rma::RmaComm& comm) {
    const i32 p = comm.nprocs();
    if (comm.rank() == 0) {
      for (Rank r = 1; r < p; ++r) {
        comm.iput(42, r, data);
        comm.iaccumulate(5, r, accum, rma::AccumOp::kSum);
        comm.iaccumulate(2, r, accum, rma::AccumOp::kSum);
      }
      for (Rank r = 1; r < p; ++r) comm.flush(r);
      // Publication point: the flag is ordered after the flushed issues.
      for (Rank r = 1; r < p; ++r) {
        comm.put(1, r, flag);
        comm.flush(r);
      }
    } else {
      while (comm.get(comm.rank(), flag) != 1) {
        comm.flush(comm.rank());
      }
      const i64 d = comm.get(comm.rank(), data);
      const i64 a = comm.get(comm.rank(), accum);
      comm.flush(comm.rank());
      if (d != 42) wrong_data.fetch_add(1);
      if (a != 7) wrong_accum.fetch_add(1);
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(wrong_data.load(), 0);
  EXPECT_EQ(wrong_accum.load(), 0);
}

TEST(Nonblocking, VisibleAtFlushOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({2}, 2));
  check_visibility_at_flush(*world);
}

TEST(Nonblocking, VisibleAtFlushOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({2}, 2));
  check_visibility_at_flush(*world);
}

/// A flush between two nonblocking ops to one cell orders them: the second
/// value must win on both backends.
void check_flush_orders_same_cell(rma::World& world) {
  const WinOffset cell = world.allocate(1);
  const WinOffset flag = world.allocate(1);
  std::atomic<i64> wrong{0};
  const auto result = world.run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.iput(1, 1, cell);
      comm.flush(1);
      comm.iput(2, 1, cell);
      comm.flush(1);
      comm.put(1, 1, flag);
      comm.flush(1);
    } else if (comm.rank() == 1) {
      while (comm.get(1, flag) != 1) comm.flush(1);
      const i64 v = comm.get(1, cell);
      comm.flush(1);
      if (v != 2) wrong.fetch_add(1);
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Nonblocking, FlushOrdersSameCellOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  check_flush_orders_same_cell(*world);
}

TEST(Nonblocking, FlushOrdersSameCellOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({}, 2));
  check_flush_orders_same_cell(*world);
}

/// Every rank publishes two cells, then reads its own and its neighbour's
/// with both iget and get (one flush per pair): the reads must agree with
/// each other and with what was published. (No cell is read three times:
/// SimWorld would take that for a spin and park the reader.)
void check_iget_returns_get_value(rma::World& world) {
  const WinOffset cells = world.allocate(2);
  std::atomic<i64> mismatches{0};
  const auto result = world.run([&](rma::RmaComm& comm) {
    const Rank me = comm.rank();
    comm.put(100 + me, me, cells);
    comm.put(200 + me, me, cells + 1);
    comm.flush(me);
    comm.barrier();
    for (const Rank target : {me, (me + 1) % comm.nprocs()}) {
      const i64 a = comm.iget(target, cells);
      const i64 b = comm.iget(target, cells + 1);
      comm.flush(target);
      const i64 ga = comm.get(target, cells);
      const i64 gb = comm.get(target, cells + 1);
      comm.flush(target);
      if (a != ga || b != gb || a != 100 + target || b != 200 + target) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Nonblocking, IgetReturnsWhatGetReturnsOnSimWorld) {
  auto world = test::make_sim(topo::Topology::uniform({2}, 2));
  check_iget_returns_get_value(*world);
}

TEST(Nonblocking, IgetReturnsWhatGetReturnsOnThreadWorld) {
  auto world = test::make_threads(topo::Topology::uniform({2}, 2));
  check_iget_returns_get_value(*world);
}

TEST(Nonblocking, EffectsApplyAtIssueInEngineOrderOnSimWorld) {
  // SimWorld applies nonblocking effects at issue (engine order): the
  // issuer itself reads them back immediately, before any flush.
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    comm.iput(9, 1, cell);
    const i64 v = comm.get(1, cell);
    comm.flush(1);
    EXPECT_EQ(v, 9);
  });
}

// ---------------------------------------------------------------------------
// SimWorld cost accounting (pinned against the LatencyModel arithmetic)
// ---------------------------------------------------------------------------

/// Replicates SimWorld's nonblocking cost arithmetic for a burst of
/// remote atomic issues to distinct idle targets followed by per-target
/// flushes (the set_counters_to_write shape).
Nanos expected_pipelined_burst(const rma::LatencyModel& m,
                               const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  std::vector<Nanos> acks;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    const Nanos arrival = clock + cost / 2;  // departs at issue time
    clock += occ;  // origin injection slot (overlaps the wire time)
    const Nanos completion = arrival + occ;  // idle target NIC
    acks.push_back(completion + (cost - cost / 2));
  }
  for (const Nanos ack : acks) {
    clock += m.flush_ns;
    clock = std::max(clock, ack);
  }
  return clock;
}

/// The blocking (pre-pipelining) cost of the same burst: one full round
/// trip plus a flush per target.
Nanos expected_blocking_burst(const rma::LatencyModel& m,
                              const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    const Nanos completion = clock + cost / 2 + occ;
    clock = completion + (cost - cost / 2) + m.flush_ns;
  }
  return clock;
}

TEST(NonblockingCost, IssueChargesOneInjectionSlot) {
  // P=2 across two nodes: distance class 2 under the 2-level model.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    EXPECT_EQ(comm.now_ns() - t0, model.rma_occupancy_ns[2])
        << "issue must cost exactly the origin's injection slot";
    comm.flush(1);
    // Ack: request half + target occupancy + reply half — one occupancy
    // cheaper than it looks because the injection slot overlaps the wire.
    EXPECT_EQ(comm.now_ns() - t0,
              model.rma_ns[2] + model.rma_occupancy_ns[2])
        << "flush must charge the full pipelined round trip";
  });
}

TEST(NonblockingCost, BurstToDistinctTargetsIsOneRttPlusInjections) {
  // 9 single-process nodes: rank 0 broadcasts to 8 remote targets, all at
  // distance class 2 — the writer mode-switch shape.
  const topo::Topology topology = topo::Topology::uniform({9}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  const std::vector<i32> dclasses(8, 2);
  const Nanos expected = expected_pipelined_burst(model, dclasses);
  const Nanos blocking = expected_blocking_burst(model, dclasses);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    for (Rank r = 1; r <= 8; ++r) {
      comm.iaccumulate(1, r, cell, rma::AccumOp::kSum);
    }
    for (Rank r = 1; r <= 8; ++r) comm.flush(r);
    const Nanos elapsed = comm.now_ns() - t0;
    EXPECT_EQ(elapsed, expected) << "cost must match the model arithmetic";
    // The headline property: ~1 RTT + C injection slots, sublinear in C —
    // far below C round trips.
    const Nanos rtt = model.atomic_ns[2] + model.atomic_occupancy_ns[2];
    EXPECT_LE(elapsed, rtt + 9 * model.atomic_occupancy_ns[2] +
                           8 * model.flush_ns + 1);
    EXPECT_LT(elapsed * 3, blocking)
        << "pipelining must beat 8 serialized round trips by >3x";
  });
}

TEST(NonblockingCost, PendingOpsStillQueueInTheTargetNic) {
  // Two nonblocking issues to the *same* remote target serialize in its
  // NIC: the second completion is one occupancy later.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    comm.iput(2, 1, cell);
    comm.flush(1);
    const Nanos occ = model.rma_occupancy_ns[2];
    const Nanos cost = model.rma_ns[2];
    // First op departs at t0, completes at t0+cost/2+occ. The second
    // departs one injection slot later (t0+occ), arrives t0+occ+cost/2 —
    // exactly when the target NIC frees — and completes one occupancy
    // later; its ack adds the reply half.
    const Nanos expected = occ + cost / 2 + occ + (cost - cost / 2);
    EXPECT_EQ(comm.now_ns() - t0, std::max(model.flush_ns + 2 * occ,
                                           expected));
  });
}

TEST(NonblockingCost, IgetPairIsOneRoundTrip) {
  // The drain_readers shape: two reads at one remote target completed by
  // one flush. Pipelined, the second read departs one injection slot after
  // the first and queues behind it in the target NIC, and the flush
  // collects both acks: one round trip plus one extra occupancy. Blocking,
  // each read pays its own round trip.
  const topo::Topology topology = topo::Topology::uniform({2}, 1);
  auto world = test::make_sim_xc30(topology);
  const rma::LatencyModel model =
      rma::LatencyModel::xc30(topology.num_levels());
  const WinOffset cells = world->allocate(2);
  const Nanos cost = model.rma_ns[2];
  const Nanos occ = model.rma_occupancy_ns[2];
  const Nanos rtt = cost + occ;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    Nanos t0 = comm.now_ns();
    comm.iget(1, cells);
    comm.iget(1, cells + 1);
    EXPECT_EQ(comm.now_ns() - t0, 2 * occ)
        << "each issue must cost exactly the origin's injection slot";
    comm.flush(1);
    const Nanos pipelined = comm.now_ns() - t0;
    EXPECT_EQ(pipelined, std::max(2 * occ + model.flush_ns, rtt + occ))
        << "flush must settle one pipelined round trip";

    t0 = comm.now_ns();
    comm.get(1, cells);
    comm.get(1, cells + 1);
    comm.flush(1);
    const Nanos blocking = comm.now_ns() - t0;
    EXPECT_EQ(blocking, 2 * rtt + model.flush_ns)
        << "blocking gets pay one round trip each";
    EXPECT_GE(blocking - pipelined, rtt - occ)
        << "the pipelined pair must save a round trip";
  });
}

struct PollRun {
  rma::RunResult result;
  std::vector<obs::Event> events;  // all ranks, rank-major
  i64 seen = 0;                    // rank 0's read of the data cell
};

/// Rank 1 raises a flag on itself after some work; rank 0 polls it with
/// `read` + flush until it sees 1, then reads a second cell. The replay
/// policy without a trace always runs the smallest runnable rank, so rank 0
/// polls until it parks before rank 1 runs, and the recorded decision
/// sequences of two runs can be compared.
PollRun run_flag_poll(bool pipelined) {
  obs::Tracer tracer(2);
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 1);
  opts.policy = rma::SchedPolicy::kReplay;
  opts.record_schedule = true;
  opts.tracer = &tracer;
  auto world = rma::SimWorld::create(opts);
  const WinOffset flag = world->allocate(1);
  const WinOffset data = world->allocate(1);
  PollRun run;
  run.result = world->run([&](rma::RmaComm& comm) {
    const auto read = [&](WinOffset offset) {
      return pipelined ? comm.iget(1, offset) : comm.get(1, offset);
    };
    if (comm.rank() == 1) {
      comm.compute(5000);
      comm.put(42, 1, data);
      comm.put(1, 1, flag);
      comm.flush(1);
      return;
    }
    while (read(flag) != 1) comm.flush(1);
    run.seen = read(data);
    comm.flush(1);
  });
  for (i32 r = 0; r < 2; ++r) {
    for (const obs::Event& e : tracer.ring(r).snapshot()) {
      run.events.push_back(e);
    }
  }
  return run;
}

TEST(NonblockingEngine, IgetTakesTheStepsAndEventsOfGet) {
  const PollRun blocking = run_flag_poll(false);
  const PollRun pipelined = run_flag_poll(true);
  ASSERT_TRUE(blocking.result.ok());
  ASSERT_TRUE(pipelined.result.ok());
  EXPECT_EQ(pipelined.result.steps, blocking.result.steps);
  EXPECT_EQ(pipelined.result.schedule.picks, blocking.result.schedule.picks);
  // Same events in the same order; only their virtual timestamps move.
  ASSERT_EQ(pipelined.events.size(), blocking.events.size());
  for (usize i = 0; i < blocking.events.size(); ++i) {
    const obs::Event& b = blocking.events[i];
    const obs::Event& p = pipelined.events[i];
    EXPECT_EQ(std::tie(p.rank, p.seq, p.code, p.phase, p.a, p.b, p.c),
              std::tie(b.rank, b.seq, b.code, b.phase, b.a, b.b, b.c))
        << "event " << i;
  }
}

TEST(NonblockingEngine, ParkedIgetPollWakesOnTheWrite) {
  // The poll spins on an unchanged flag long enough to park, and the
  // flag write wakes it, exactly as for get.
  for (const bool pipelined : {false, true}) {
    const PollRun run = run_flag_poll(pipelined);
    ASSERT_TRUE(run.result.ok()) << "pipelined=" << pipelined;
    EXPECT_EQ(run.seen, 42) << "pipelined=" << pipelined;
    const auto count = [&run](obs::EventCode code) {
      return std::count_if(run.events.begin(), run.events.end(),
                           [code](const obs::Event& e) {
                             return e.rank == 0 && e.code == code;
                           });
    };
    EXPECT_GE(count(obs::EventCode::kPark), 1) << "pipelined=" << pipelined;
    EXPECT_EQ(count(obs::EventCode::kWake), count(obs::EventCode::kPark))
        << "pipelined=" << pipelined;
  }
}

TEST(NonblockingCost, ZeroModelKeepsNonblockingNearFree) {
  // The MC configuration (zero latency) must stay well-ordered: issue
  // costs 0 (occupancy 0), flush costs 1.
  auto world = test::make_sim(topo::Topology::uniform({}, 2));
  const WinOffset cell = world->allocate(1);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    const Nanos t0 = comm.now_ns();
    comm.iput(1, 1, cell);
    comm.flush(1);
    EXPECT_LE(comm.now_ns() - t0, 2);
  });
}

}  // namespace
}  // namespace rmalock
