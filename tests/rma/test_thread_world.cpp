#include "rma/thread_world.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "../support/test_support.hpp"

namespace rmalock::rma {
namespace {

using test::make_threads;

TEST(ThreadWorld, PutGetRoundTrip) {
  auto world = make_threads(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.put(55, 1, off);
      comm.flush(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.get(1, off), 55);
    }
  });
}

TEST(ThreadWorld, GetVecReadsEveryWord) {
  auto world = make_threads(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(4);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      for (WinOffset w = 0; w < 4; ++w) {
        comm.put(100 + static_cast<i64>(w), 1, off + w);
      }
      comm.flush(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      i64 out[4] = {0, 0, 0, 0};
      comm.get_vec(1, off, out, 4);
      for (i64 w = 0; w < 4; ++w) EXPECT_EQ(out[w], 100 + w);
    }
  });
}

TEST(ThreadWorld, GetVecUnderConcurrentWritesSeesOnlyPublishedWords) {
  // ThreadComm::get_vec is per-word atomic (one acquire load per word, no
  // standalone fence): a concurrent writer storing whole values per word must
  // never be observed as a from-thin-air mix — every word read is one the
  // writer actually stored. The loop shape (writer keeps rewriting, reader
  // keeps reading) is the TSan-exercised shape of the lock-free read path;
  // a plain i64 load here would be a reported data race.
  auto world = make_threads(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(4);
  world->run([&](RmaComm& comm) {
    constexpr i64 kRounds = 2000;
    if (comm.rank() == 0) {
      for (i64 g = 1; g <= kRounds; ++g) {
        for (WinOffset w = 0; w < 4; ++w) {
          comm.put(g, 0, off + w);
        }
        comm.flush(0);
      }
    } else {
      i64 out[4] = {0, 0, 0, 0};
      for (i64 i = 0; i < kRounds; ++i) {
        comm.get_vec(0, off, out, 4);
        for (i64 w = 0; w < 4; ++w) {
          ASSERT_GE(out[w], 0);
          ASSERT_LE(out[w], kRounds);
        }
      }
    }
  });
}

TEST(ThreadWorld, FaoSumIsAtomicUnderContention) {
  auto world = make_threads(topo::Topology::uniform({}, 8));
  const WinOffset off = world->allocate(1);
  constexpr i64 kPerRank = 5000;
  world->run([&](RmaComm& comm) {
    for (i64 i = 0; i < kPerRank; ++i) {
      comm.fao(1, 0, off, AccumOp::kSum);
    }
  });
  EXPECT_EQ(world->read_word(0, off), 8 * kPerRank);
}

TEST(ThreadWorld, AccumulateReplaceLastWriterWins) {
  auto world = make_threads(topo::Topology::uniform({}, 4));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(comm.rank() + 100, 0, off, AccumOp::kReplace);
    comm.flush(0);
  });
  const i64 final_value = world->read_word(0, off);
  EXPECT_GE(final_value, 100);
  EXPECT_LE(final_value, 103);
}

TEST(ThreadWorld, ExactlyOneCasWinner) {
  auto world = make_threads(topo::Topology::uniform({}, 8));
  const WinOffset off = world->allocate(1);
  std::atomic<int> winners{0};
  world->run([&](RmaComm& comm) {
    const i64 old = comm.cas(comm.rank() + 1, 0, 0, off);
    comm.flush(0);
    if (old == 0) winners.fetch_add(1);
  });
  EXPECT_EQ(winners.load(), 1);
}

TEST(ThreadWorld, CasReturnsPreviousValueOnFailure) {
  auto world = make_threads(topo::Topology::uniform({}, 1));
  const WinOffset off = world->allocate(1);
  world->write_word(0, off, 7);
  world->run([&](RmaComm& comm) {
    EXPECT_EQ(comm.cas(9, 3, 0, off), 7);  // fails, returns 7
    EXPECT_EQ(comm.cas(9, 7, 0, off), 7);  // succeeds, returns 7
    EXPECT_EQ(comm.get(0, off), 9);
  });
}

TEST(ThreadWorld, BarrierSeparatesPhases) {
  auto world = make_threads(topo::Topology::uniform({}, 6));
  const WinOffset off = world->allocate(1);
  std::atomic<bool> phase_error{false};
  world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
    comm.barrier();
    // After the barrier every increment must be visible.
    if (comm.get(0, off) != 6) phase_error = true;
    comm.barrier();
  });
  EXPECT_FALSE(phase_error.load());
}

TEST(ThreadWorld, RepeatedBarriersDoNotDeadlock) {
  auto world = make_threads(topo::Topology::uniform({}, 4));
  world->run([&](RmaComm& comm) {
    for (int i = 0; i < 100; ++i) comm.barrier();
  });
  SUCCEED();
}

TEST(ThreadWorld, SpinLoopTerminatesUnderOversubscription) {
  // More processes than cores; the repeated-poll backoff must keep the
  // notifier schedulable.
  auto world = make_threads(topo::Topology::uniform({}, 8));
  const WinOffset flag = world->allocate(1);
  world->run([&](RmaComm& comm) {
    if (comm.rank() == 0) {
      comm.compute(200000);
      comm.put(1, 0, flag);
      comm.flush(0);
    } else {
      i64 v = 0;
      do {
        v = comm.get(0, flag);
        comm.flush(0);
      } while (v == 0);
    }
  });
  SUCCEED();
}

TEST(ThreadWorld, StatsAreCollectedPerRank) {
  auto world = make_threads(topo::Topology::nodes(2, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.put(1, 0, off);
    comm.flush(0);
  });
  const OpStats stats = world->aggregate_stats();
  EXPECT_EQ(stats.total(OpKind::kPut), 4u);
  EXPECT_EQ(stats.count(OpKind::kPut, 0), 1u);  // rank 0 to itself
  EXPECT_EQ(stats.count(OpKind::kPut, 1), 1u);  // rank 1 intra-node
  EXPECT_EQ(stats.count(OpKind::kPut, 2), 2u);  // ranks 2,3 inter-node
}

TEST(ThreadWorld, WindowsPersistAcrossRuns) {
  auto world = make_threads(topo::Topology::uniform({}, 2));
  const WinOffset off = world->allocate(1);
  world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  world->run([&](RmaComm& comm) {
    comm.accumulate(1, 0, off, AccumOp::kSum);
    comm.flush(0);
  });
  EXPECT_EQ(world->read_word(0, off), 4);
}

TEST(ThreadWorld, RngStreamsAreStablePerRank) {
  auto world = make_threads(topo::Topology::uniform({}, 4));
  std::vector<u64> first(4);
  std::vector<u64> second(4);
  world->run([&](RmaComm& comm) {
    first[static_cast<usize>(comm.rank())] = comm.rng()();
  });
  world->run([&](RmaComm& comm) {
    second[static_cast<usize>(comm.rank())] = comm.rng()();
  });
  EXPECT_EQ(first, second);  // reseeded per run from (seed, rank)
  std::sort(first.begin(), first.end());
  EXPECT_EQ(std::unique(first.begin(), first.end()), first.end());
}

}  // namespace
}  // namespace rmalock::rma
