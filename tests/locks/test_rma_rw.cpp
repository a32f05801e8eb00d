#include "locks/rma_rw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <tuple>
#include <vector>

#include "../support/test_support.hpp"
#include "mc/monitor.hpp"

namespace rmalock::locks {
namespace {

using test::make_sim;
using test::make_threads;

RmaRwParams make_params(const topo::Topology& topo, i32 tdc, i64 tl, i64 tr) {
  RmaRwParams params;
  params.tdc = tdc;
  params.locality.assign(static_cast<usize>(topo.num_levels()), tl);
  params.tr = tr;
  return params;
}

TEST(RmaRw, SingleReader) {
  auto world = make_sim(topo::Topology::uniform({2}, 2));
  RmaRw lock(*world);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    for (int i = 0; i < 20; ++i) {
      lock.acquire_read(comm);
      lock.release_read(comm);
    }
  });
  SUCCEED();
}

TEST(RmaRw, SingleWriter) {
  auto world = make_sim(topo::Topology::uniform({2}, 2));
  RmaRw lock(*world);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    for (int i = 0; i < 20; ++i) {
      lock.acquire_write(comm);
      lock.release_write(comm);
    }
  });
  SUCCEED();
}

TEST(RmaRw, ReadersOverlap) {
  auto world = make_sim(topo::Topology::nodes(2, 8));
  RmaRw lock(*world);
  i64 inside = 0;
  i64 max_inside = 0;
  world->run([&](rma::RmaComm& comm) {
    for (int i = 0; i < 5; ++i) {
      lock.acquire_read(comm);
      ++inside;
      max_inside = std::max(max_inside, inside);
      comm.compute(2000);
      --inside;
      lock.release_read(comm);
    }
  });
  EXPECT_GE(max_inside, 8) << "readers must share the critical section";
}

TEST(RmaRw, WriterExcludesReadersAndWriters) {
  auto world = make_sim(topo::Topology::nodes(2, 8));
  RmaRw lock(*world, make_params(world->topology(), 8, 4, 50));
  mc::CsMonitor monitor;
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() % 4 == 0;
    for (int i = 0; i < 20; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        monitor.enter_write();
        comm.compute(10);
        monitor.exit_write();
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        monitor.enter_read();
        comm.compute(10);
        monitor.exit_read();
        lock.release_read(comm);
      }
    }
  });
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.entries(), 320u);
}

TEST(RmaRw, ProtectedStateSeesNoTornUpdates) {
  auto world = make_sim(topo::Topology::nodes(2, 4));
  RmaRw lock(*world, make_params(world->topology(), 4, 2, 10));
  i64 a = 0;
  i64 b = 0;  // invariant under the lock: a == b
  i64 reader_errors = 0;
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() < 2;
    for (int i = 0; i < 30; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        ++a;
        comm.compute(20);  // scheduling point between the two updates
        ++b;
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        if (a != b) ++reader_errors;
        comm.compute(5);
        lock.release_read(comm);
      }
    }
  });
  EXPECT_EQ(reader_errors, 0);
  EXPECT_EQ(a, 60);
  EXPECT_EQ(b, 60);
}

TEST(RmaRw, CountersBalanceAfterQuiescence) {
  const auto topo = topo::Topology::nodes(4, 4);
  auto world = make_sim(topo);
  RmaRw lock(*world, make_params(topo, 4, 2, 20));
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() % 8 == 0;
    for (int i = 0; i < 25; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        lock.release_read(comm);
      }
    }
  });
  // ARRIVE == DEPART and no WRITE flag on every physical counter.
  for (const Rank host : lock.counter_hosts()) {
    const i64 arrive = world->read_word(host, lock.arrive_offset());
    const i64 depart = world->read_word(host, lock.depart_offset());
    EXPECT_LT(arrive, kWriteFlagThreshold) << "WRITE flag stuck on " << host;
    EXPECT_EQ(arrive, depart) << "counter at rank " << host;
  }
  // All queue tails empty.
  const DistributedTree& tree = lock.tree();
  for (Rank r = 0; r < topo.nprocs(); ++r) {
    for (i32 q = 1; q <= tree.num_levels(); ++q) {
      EXPECT_EQ(world->read_word(r, tree.tail_offset(q)), kNilRank);
    }
  }
}

TEST(RmaRw, TrBoundsReadersAdmittedWhileWriterWaits) {
  // The T_R guarantee (§4.3): from the moment a writer starts acquiring,
  // each physical counter admits at most ~T_R more readers before it
  // blocks, so the writer waits behind a bounded number of reader entries.
  const auto topo = topo::Topology::nodes(2, 8);
  auto world = make_sim(topo, 3);
  const i64 tr = 8;
  const i32 tdc = 8;  // 2 physical counters
  RmaRw lock(*world, make_params(topo, tdc, 2, tr));
  i64 reader_entries = 0;
  i64 entries_at_writer_start = -1;
  i64 entries_at_writer_admission = -1;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {  // the writer
      comm.compute(20000);   // let the readers churn first
      entries_at_writer_start = reader_entries;
      lock.acquire_write(comm);
      entries_at_writer_admission = reader_entries;
      lock.release_write(comm);
    } else {
      for (i32 i = 0; i < 200; ++i) {
        lock.acquire_read(comm);
        ++reader_entries;
        comm.compute(50);
        lock.release_read(comm);
      }
    }
  });
  ASSERT_GE(entries_at_writer_start, 0);
  const i64 admitted_while_waiting =
      entries_at_writer_admission - entries_at_writer_start;
  const i64 counters = static_cast<i64>(lock.counter_hosts().size());
  // Up to T_R per counter twice (one reset cycle may complete before the
  // writer's tail registration lands) plus in-flight readers.
  EXPECT_LE(admitted_while_waiting, 2 * counters * tr + topo.nprocs());
}

TEST(RmaRw, TwBoundsConsecutiveWriterAdmissions) {
  // T_W = T_L,1 * T_L,2 bounds writer batches while readers wait.
  const auto topo = topo::Topology::nodes(2, 8);
  auto world = make_sim(topo, 5);
  RmaRw lock(*world, make_params(topo, 8, 2, 1000));  // T_W = 2 * 2-ish
  std::vector<char> order;
  i32 readers_active = 8;
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() % 2 == 0;
    for (i32 i = 0; i < 20; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        // Only count entries while readers are still competing — after the
        // last reader finishes, an unbounded writer tail is legitimate.
        order.push_back(readers_active > 0 ? 'w' : 'W');
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        order.push_back('r');
        lock.release_read(comm);
      }
    }
    if (!writer) --readers_active;
  });
  i64 run = 0;
  i64 max_run = 0;
  bool reader_seen = false;
  for (const char c : order) {
    if (c == 'r') {
      reader_seen = true;
      run = 0;
    } else if (c == 'w' && reader_seen) {
      max_run = std::max(max_run, run + 1);
      ++run;
    }
  }
  const i64 tw = lock.params().tw();  // 4
  // Bound: root passes (T_L,1) x entries per root pass (T_L,2 + 1), plus
  // slack for writers that were already queued when the mode changed.
  EXPECT_LE(max_run, tw * 2 + topo.nprocs());
}

TEST(RmaRw, WriterPreemptsHeavyReaders) {
  // Starvation freedom for writers (§4.3): a writer must get in while
  // readers are still churning.
  const auto topo = topo::Topology::nodes(2, 8);
  auto world = make_sim(topo, 9);
  RmaRw lock(*world, make_params(topo, 8, 2, 5));  // small T_R favors writers
  i64 reader_ops_remaining = 15 * 100;
  i64 remaining_when_writer_done = -1;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {  // the lone writer
      for (int i = 0; i < 5; ++i) {
        lock.acquire_write(comm);
        lock.release_write(comm);
      }
      remaining_when_writer_done = reader_ops_remaining;
    } else {
      for (int i = 0; i < 100; ++i) {
        lock.acquire_read(comm);
        --reader_ops_remaining;
        lock.release_read(comm);
      }
    }
  });
  EXPECT_GT(remaining_when_writer_done, 0)
      << "writer should finish before the readers drain completely";
}

TEST(RmaRw, ReadersProgressUnderHeavyWriters) {
  // Starvation freedom for readers: T_W hands the lock to readers.
  const auto topo = topo::Topology::nodes(2, 4);
  auto world = make_sim(topo, 13);
  RmaRw lock(*world, make_params(topo, 4, 2, 50));
  i64 writer_ops_remaining = 7 * 60;
  i64 remaining_when_reader_done = -1;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {  // the lone reader
      for (int i = 0; i < 5; ++i) {
        lock.acquire_read(comm);
        lock.release_read(comm);
      }
      remaining_when_reader_done = writer_ops_remaining;
    } else {
      for (int i = 0; i < 60; ++i) {
        lock.acquire_write(comm);
        --writer_ops_remaining;
        lock.release_write(comm);
      }
    }
  });
  EXPECT_GT(remaining_when_reader_done, 0)
      << "reader should finish before the writers drain completely";
}

TEST(RmaRw, TopologyAwareCountersKeepReaderTrafficLocal) {
  // T_DC = procs/node: every reader's counter is on its own node; with a
  // large T_R nothing else is touched, so readers generate no inter-node
  // traffic at all (the paper's reader-locality claim, §3.2.1).
  const auto topo = topo::Topology::nodes(4, 4);
  auto world = make_sim(topo);
  RmaRw lock(*world, make_params(topo, /*tdc=*/4, 4, 100000));
  world->run([&](rma::RmaComm& comm) {
    for (int i = 0; i < 20; ++i) {
      lock.acquire_read(comm);
      lock.release_read(comm);
    }
  });
  EXPECT_EQ(world->aggregate_stats().total_at_least(2), 0u);

  // Contrast: counters on every 2nd node force half the readers remote.
  auto world2 = make_sim(topo);
  RmaRw lock2(*world2, make_params(topo, /*tdc=*/8, 4, 100000));
  world2->run([&](rma::RmaComm& comm) {
    for (int i = 0; i < 20; ++i) {
      lock2.acquire_read(comm);
      lock2.release_read(comm);
    }
  });
  EXPECT_GT(world2->aggregate_stats().total_at_least(2), 0u);
}

TEST(RmaRw, WithoutAHomeEveryWordKeepsThePaperLayout) {
  // Built without a home, RMA-RW lays its words out as the paper does: the
  // tree's NEXT/STATUS/TAIL per level, then ARRIVE and DEPART, with every
  // group's counter on its lowest rank (c(p) = ⌊p / T_DC⌋ · T_DC).
  const auto topo = topo::Topology::nodes(4, 4);
  auto world = make_sim(topo);
  RmaRw lock(*world);  // defaults: T_DC = 4, home 0
  EXPECT_EQ(lock.params().home, 0);
  const DistributedTree& tree = lock.tree();
  for (i32 q = 1; q <= topo.num_levels(); ++q) {
    EXPECT_EQ(tree.next_offset(q), 3 * (q - 1));
    EXPECT_EQ(tree.status_offset(q), 3 * (q - 1) + 1);
    EXPECT_EQ(tree.tail_offset(q), 3 * (q - 1) + 2);
  }
  EXPECT_EQ(lock.arrive_offset(), 3 * topo.num_levels());
  EXPECT_EQ(lock.depart_offset(), 3 * topo.num_levels() + 1);
  EXPECT_EQ(world->window_words(),
            static_cast<usize>(3 * topo.num_levels() + 2));
  EXPECT_EQ(lock.counter_hosts(), (std::vector<Rank>{0, 4, 8, 12}));
  for (Rank p = 0; p < topo.nprocs(); ++p) {
    EXPECT_EQ(lock.counter_of(p), p / 4 * 4);
  }
  // A reader on rank 6 arrives and departs on its group leader, rank 4.
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 6) return;
    lock.acquire_read(comm);
    lock.release_read(comm);
  });
  for (Rank r = 0; r < topo.nprocs(); ++r) {
    EXPECT_EQ(world->read_word(r, lock.arrive_offset()), r == 4 ? 1 : 0);
    EXPECT_EQ(world->read_word(r, lock.depart_offset()), r == 4 ? 1 : 0);
  }
}

TEST(RmaRw, UncontendedReaderPathIsCheap) {
  // One reader acquire+release = FAO(+1) + Accumulate(+1) and flushes.
  const auto topo = topo::Topology::nodes(2, 2);
  auto world = make_sim(topo);
  RmaRw lock(*world, make_params(topo, 2, 4, 1000));
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 1) return;
    lock.acquire_read(comm);
    lock.release_read(comm);
  });
  const rma::OpStats stats = world->aggregate_stats();
  EXPECT_EQ(stats.total(rma::OpKind::kFao), 1u);
  EXPECT_EQ(stats.total(rma::OpKind::kAccumulate), 1u);
  EXPECT_EQ(stats.total(rma::OpKind::kPut), 0u);
  EXPECT_EQ(stats.total(rma::OpKind::kCas), 0u);
}

// ---------------------------------------------------------------------------
// Pipelined writer mode switch (the nonblocking-issue acceptance property):
// set_counters_to_write over C remote counters must cost ~1 RTT plus one
// NIC injection slot per counter — not C round trips.
// ---------------------------------------------------------------------------

/// Replicates SimWorld's pipelined cost arithmetic for the WRITE-flag
/// broadcast: one nonblocking remote atomic per (idle, distinct) counter
/// host, then one flush per host.
Nanos expected_flag_broadcast_ns(const rma::LatencyModel& m,
                                 const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  std::vector<Nanos> acks;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    const Nanos arrival = clock + cost / 2;  // departs at issue time
    clock += occ;  // injection slot overlaps the wire time
    acks.push_back(arrival + occ + (cost - cost / 2));
  }
  for (const Nanos ack : acks) {
    clock = std::max(clock + m.flush_ns, ack);
  }
  return clock;
}

/// The pre-pipelining cost of the same broadcast: a full serialized round
/// trip (plus flush) per counter.
Nanos blocking_flag_broadcast_ns(const rma::LatencyModel& m,
                                 const std::vector<i32>& dclasses) {
  Nanos clock = 0;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    clock += m.atomic_ns[du] + m.atomic_occupancy_ns[du] + m.flush_ns;
  }
  return clock;
}

/// Reading one idle remote counter's ARRIVE/DEPART pair and flushing. With
/// iget the second read departs one injection slot after the first, queues
/// behind it in the target NIC, and the flush settles both acks; with get
/// each read pays its own round trip.
Nanos counter_read_ns(const rma::LatencyModel& m, i32 d, bool pipelined) {
  const auto du = static_cast<usize>(d);
  const Nanos cost = m.rma_ns[du];
  const Nanos occ = m.rma_occupancy_ns[du];
  if (!pipelined) return 2 * (cost + occ) + m.flush_ns;
  return std::max(2 * occ + m.flush_ns, cost + 2 * occ);
}

/// drain_readers over flagged counters that no reader holds: one read per
/// counter.
Nanos expected_drain_ns(const rma::LatencyModel& m,
                        const std::vector<i32>& dclasses, bool pipelined) {
  Nanos clock = 0;
  for (const i32 d : dclasses) clock += counter_read_ns(m, d, pipelined);
  return clock;
}

/// reset_counters: per counter, read the pair, clear DEPART and flush, then
/// issue the ARRIVE clear, whose ack the trailing flush round collects.
Nanos expected_reset_ns(const rma::LatencyModel& m,
                        const std::vector<i32>& dclasses, bool pipelined) {
  Nanos clock = 0;
  std::vector<Nanos> acks;
  for (const i32 d : dclasses) {
    const auto du = static_cast<usize>(d);
    const Nanos cost = m.atomic_ns[du];
    const Nanos occ = m.atomic_occupancy_ns[du];
    clock += counter_read_ns(m, d, pipelined);
    clock = std::max(clock + occ + m.flush_ns, clock + cost + occ);
    acks.push_back(clock + cost + occ);
    clock += occ;
  }
  for (const Nanos ack : acks) clock = std::max(clock + m.flush_ns, ack);
  return clock;
}

/// Counter hosts as seen from rank 1 of measured_mode_switch: its own
/// node's host (class 1) plus C-1 remote nodes' hosts (class 2).
std::vector<i32> counter_dclasses(i32 nodes) {
  std::vector<i32> d(static_cast<usize>(nodes), 2);
  d[0] = 1;
  return d;
}

/// Virtual time rank 1 spends in each writer mode-switch step on a C-node
/// machine (2 procs/node, T_DC = 2: one counter per node; every other rank
/// idle, so every counter is flagged and drained without readers).
struct ModeSwitchCost {
  Nanos flag = 0;
  Nanos drain = 0;
  Nanos reset = 0;
};

ModeSwitchCost measured_mode_switch(i32 nodes) {
  auto world = test::make_sim_xc30(topo::Topology::uniform({nodes}, 2));
  RmaRw lock(*world, make_params(world->topology(), /*tdc=*/2, /*tl=*/16,
                                 /*tr=*/1000));
  ModeSwitchCost cost;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 1) return;  // rank 1: hosts no counter itself
    const Nanos t0 = comm.now_ns();
    lock.set_counters_to_write(comm);
    const Nanos t1 = comm.now_ns();
    EXPECT_TRUE(lock.drain_readers(comm));
    const Nanos t2 = comm.now_ns();
    lock.reset_counters(comm);
    cost = {t1 - t0, t2 - t1, comm.now_ns() - t2};
  });
  return cost;
}

TEST(RmaRw, WriterModeSwitchCostIsPipelined) {
  const rma::LatencyModel m = rma::LatencyModel::xc30(2);
  const Nanos cost4 = measured_mode_switch(4).flag;
  const Nanos cost8 = measured_mode_switch(8).flag;
  EXPECT_EQ(cost4, expected_flag_broadcast_ns(m, counter_dclasses(4)))
      << "C=4 cost must match the latency-model arithmetic";
  EXPECT_EQ(cost8, expected_flag_broadcast_ns(m, counter_dclasses(8)))
      << "C=8 cost must match the latency-model arithmetic";
  // Sublinear: each extra counter adds ~one injection slot + flush, not a
  // round trip.
  EXPECT_LE(cost8 - cost4,
            4 * (m.atomic_occupancy_ns[2] + m.flush_ns) + 100);
  // And the absolute win over the serialized pre-pipelining shape.
  EXPECT_LT(cost8 * 2, blocking_flag_broadcast_ns(m, counter_dclasses(8)))
      << "pipelined broadcast must beat serialized round trips by >2x";
}

TEST(RmaRw, CounterSweepsPipelineTheirReads) {
  // drain_readers and reset_counters read each counter's ARRIVE/DEPART
  // pair with two igets and one flush: one round trip per counter where
  // the blocking get pair pays two.
  const rma::LatencyModel m = rma::LatencyModel::xc30(2);
  for (const i32 nodes : {4, 8}) {
    const std::vector<i32> d = counter_dclasses(nodes);
    const ModeSwitchCost cost = measured_mode_switch(nodes);
    EXPECT_EQ(cost.drain, expected_drain_ns(m, d, true))
        << "C=" << nodes << " drain must match the latency-model arithmetic";
    EXPECT_EQ(cost.reset, expected_reset_ns(m, d, true))
        << "C=" << nodes << " reset must match the latency-model arithmetic";
    Nanos round_trips = 0;
    for (const i32 c : d) round_trips += m.rma_ns[static_cast<usize>(c)];
    EXPECT_GE(expected_drain_ns(m, d, false) - cost.drain, round_trips)
        << "C=" << nodes << " drain must save a round trip per counter";
    EXPECT_GE(expected_reset_ns(m, d, false) - cost.reset, round_trips)
        << "C=" << nodes << " reset must save a round trip per counter";
  }
}

TEST(RmaRwDeathTest, RejectsBadParams) {
  auto world = make_sim(topo::Topology::nodes(2, 2));
  RmaRwParams bad = RmaRwParams::defaults(world->topology());
  bad.tr = 0;
  EXPECT_DEATH(RmaRw(*world, bad), "T_R");
  RmaRwParams wrong = RmaRwParams::defaults(world->topology());
  wrong.locality = {1};
  EXPECT_DEATH(RmaRw(*world, wrong), "threshold per level");
}

TEST(RmaRwParams, TwIsLocalityProduct) {
  const auto topo = topo::Topology::uniform({2, 2}, 2);
  RmaRwParams params = RmaRwParams::defaults(topo);
  params.locality = {5, 4, 3};
  EXPECT_EQ(params.tw(), 60);
}

TEST(RmaRwParams, DefaultsFollowPaperGuidance) {
  // §6: one physical counter per compute node is the recommended balance.
  const auto topo = topo::Topology::nodes(8, 16);
  const RmaRwParams params = RmaRwParams::defaults(topo);
  EXPECT_EQ(params.tdc, 16);
  EXPECT_EQ(params.locality.size(), 2u);
  EXPECT_GE(params.tr, 1);
}

// Mutual exclusion sweep: topology x T_DC x T_L x T_R x F_W x seed.
struct RwSweepCase {
  const char* spec;
  i32 tdc;
  i64 tl;
  i64 tr;
  i32 writer_mod;  // rank % writer_mod == 0 -> writer (0 = all readers)
};

// Without this, gtest prints the case as raw bytes: the spec pointer and the
// struct padding, which change from run to run and so rename the ctest entries
// on every build.
void PrintTo(const RwSweepCase& c, std::ostream* os) {
  *os << c.spec << " tdc=" << c.tdc << " tl=" << c.tl << " tr=" << c.tr
      << " wmod=" << c.writer_mod;
}

class RmaRwSweep
    : public ::testing::TestWithParam<std::tuple<RwSweepCase, u64>> {};

TEST_P(RmaRwSweep, MutualExclusionHolds) {
  const auto& [c, seed] = GetParam();
  const auto topo = topo::Topology::parse(c.spec);
  auto world = make_sim(topo, seed);
  RmaRw lock(*world, make_params(topo, c.tdc, c.tl, c.tr));
  mc::CsMonitor monitor;
  world->run([&](rma::RmaComm& comm) {
    const bool writer = c.writer_mod != 0 && comm.rank() % c.writer_mod == 0;
    for (int i = 0; i < 12; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        monitor.enter_write();
        comm.compute(10);
        monitor.exit_write();
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        monitor.enter_read();
        comm.compute(10);
        monitor.exit_read();
        lock.release_read(comm);
      }
    }
  });
  EXPECT_EQ(monitor.violations(), 0u)
      << "spec=" << c.spec << " tdc=" << c.tdc << " tl=" << c.tl
      << " tr=" << c.tr;
  EXPECT_EQ(monitor.entries(), static_cast<u64>(topo.nprocs()) * 12u);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSpace, RmaRwSweep,
    ::testing::Combine(
        ::testing::Values(
            RwSweepCase{"8", 4, 2, 4, 2},        // N=1, mixed
            RwSweepCase{"2x4", 4, 2, 4, 2},      // N=2, mixed
            RwSweepCase{"2x4", 1, 1, 1, 2},      // minimal thresholds
            RwSweepCase{"2x4", 8, 16, 1000, 3},  // large thresholds
            RwSweepCase{"4x4", 4, 2, 8, 4},      // wider machine
            RwSweepCase{"4x4", 16, 4, 2, 1},     // all writers
            RwSweepCase{"4x4", 4, 4, 6, 0},      // all readers
            RwSweepCase{"2x2x2", 2, 2, 4, 2},    // N=3
            RwSweepCase{"2x2x2x2", 2, 2, 4, 3},  // N=4 (paper checks to 4)
            RwSweepCase{"2x8", 16, 2, 3, 5}),    // cross-node counter
        ::testing::Values(1u, 17u)));

TEST(RmaRwThreads, StressMixedRoles) {
  const auto topo = topo::Topology::nodes(3, 2);
  auto world = make_threads(topo);
  RmaRw lock(*world, make_params(topo, 2, 2, 8));
  mc::AtomicCsMonitor monitor;
  world->run([&](rma::RmaComm& comm) {
    const bool writer = comm.rank() % 3 == 0;
    for (int i = 0; i < 150; ++i) {
      if (writer) {
        lock.acquire_write(comm);
        monitor.enter_write();
        monitor.exit_write();
        lock.release_write(comm);
      } else {
        lock.acquire_read(comm);
        monitor.enter_read();
        monitor.exit_read();
        lock.release_read(comm);
      }
    }
  });
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.entries(), 900u);
}

}  // namespace
}  // namespace rmalock::locks
