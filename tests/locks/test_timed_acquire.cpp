// Deadline/retry acquire-path unit tests: RetryPolicy backoff shape
// (doubling, cap, jitter bounds, the no-backoff knob), timed acquires on
// the RMA-MCS, RMA-RW (write side), and lease locks — uncontended grants,
// timeouts under a long-held lock with nothing held afterwards, a miss at
// the root after winning the lower levels, RMA-RW's drain-timeout undo —
// and the lease-word epoch-wrap regression (pack() refuses to truncate an
// epoch past kMaxEpoch into the owner field).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../support/test_support.hpp"
#include "locks/deadline.hpp"
#include "locks/factory.hpp"
#include "locks/lease.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::locks {
namespace {

rma::SimOptions timed_options(const topo::Topology& topology, u64 seed) {
  rma::SimOptions opts;
  opts.topology = topology;
  opts.seed = seed;
  return opts;
}

TEST(RetryPolicy, BackoffDoublesUpToTheCap) {
  // Below the cap each attempt's jitter band sits wholly above the last
  // one's (0.75 * 2d > 1.25 * d), so delays rise strictly whatever the
  // draws; from the cap attempt on they never exceed kCapNs.
  const RetryPolicy policy;
  Xoshiro256 rng(1);
  Nanos previous = 0;
  u32 attempt = 0;
  for (; (RetryPolicy::kBaseNs << attempt) < RetryPolicy::kCapNs; ++attempt) {
    const Nanos delay = policy.delay_for(attempt, rng);
    EXPECT_GT(delay, previous) << "attempt " << attempt;
    previous = delay;
  }
  EXPECT_EQ(attempt, 7u);
  for (const u32 far : {attempt, attempt + 1, 63u}) {
    EXPECT_LE(policy.delay_for(far, rng), RetryPolicy::kCapNs)
        << "delay grew past the cap at attempt " << far;
  }
}

TEST(RetryPolicy, JitterStaysWithinItsAmplitude) {
  const RetryPolicy policy;
  Xoshiro256 rng(7);
  for (u32 attempt = 0; attempt < 8; ++attempt) {
    const Nanos center = attempt < 7 ? RetryPolicy::kBaseNs << attempt
                                     : RetryPolicy::kCapNs;
    const Nanos span = center * RetryPolicy::kJitterPermille / 1000;
    for (i32 i = 0; i < 20; ++i) {
      const Nanos delay = policy.delay_for(attempt, rng);
      EXPECT_GE(delay, center - span);
      EXPECT_LE(delay, center + span);
    }
  }
}

TEST(RetryPolicy, NoBackoffRetriesImmediately) {
  // The planted-livelock knob: delays collapse to zero, so a retry loop
  // under the MC's zero-latency clock can never expire its deadline.
  RetryPolicy policy;
  policy.backoff = false;
  Xoshiro256 rng(1);
  for (u32 attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.delay_for(attempt, rng), 0);
  }
}

/// Drives one lock through the timed path: rank 0 grabs the lock and sits
/// in a long critical section; rank 1's deadline-bounded acquire must time
/// out holding nothing; after rank 0 releases, rank 1's blocking acquire
/// must succeed (nothing leaked from the failed attempts).
template <typename MakeLock>
void timeout_under_contention(const MakeLock& make_lock) {
  auto world =
      rma::SimWorld::create(timed_options(topo::Topology::uniform({}, 2), 3));
  auto lock = make_lock(*world);
  constexpr Nanos kHold = 2'000'000;
  AcquireResult timed{};
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      lock->acquire(comm);
      comm.compute(kHold);
      lock->release(comm);
    } else {
      comm.compute(10'000);  // let rank 0 win the lock
      timed = lock->try_acquire_for(comm, comm.now_ns() + 100'000,
                                    RetryPolicy{});
      if (timed.ok()) lock->release(comm);
      // The failed timed attempts must not have corrupted the lock: a
      // blocking acquire still goes through once the holder is gone.
      lock->acquire(comm);
      comm.compute(10);
      lock->release(comm);
    }
  });
  EXPECT_EQ(timed.status, AcquireStatus::kTimeout)
      << lock->name() << ": deadline inside a " << kHold << "ns hold";
  EXPECT_GE(timed.attempts, 1u);
}

/// Uncontended timed acquire: must be granted, not time out.
template <typename MakeLock>
void uncontended_grant(const MakeLock& make_lock) {
  auto world =
      rma::SimWorld::create(timed_options(topo::Topology::uniform({}, 2), 5));
  auto lock = make_lock(*world);
  AcquireResult granted{};
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    granted =
        lock->try_acquire_for(comm, comm.now_ns() + 1'000'000, RetryPolicy{});
    if (granted.ok()) lock->release(comm);
  });
  EXPECT_TRUE(granted.ok()) << lock->name();
  EXPECT_EQ(granted.attempts, 1u) << lock->name();
}

std::unique_ptr<ExclusiveLock> make_mcs(rma::World& world) {
  return std::make_unique<RmaMcs>(world);
}

std::unique_ptr<ExclusiveLock> make_lease(rma::World& world) {
  return std::make_unique<LeaseExclusive>(
      world, std::make_unique<RmaMcs>(world), LeaseParams{});
}

TEST(TimedAcquire, McsGrantsUncontended) { uncontended_grant(make_mcs); }
TEST(TimedAcquire, McsTimesOutUnderContention) {
  timeout_under_contention(make_mcs);
}

TEST(TimedAcquire, LeaseGrantsUncontended) { uncontended_grant(make_lease); }
TEST(TimedAcquire, LeaseTimesOutUnderContention) {
  timeout_under_contention(make_lease);
}

TEST(TimedAcquire, RwWriteSideTimesOutUnderContention) {
  auto world =
      rma::SimWorld::create(timed_options(topo::Topology::uniform({}, 2), 9));
  RmaRw lock(*world, RmaRwParams::defaults(world->topology()));
  AcquireResult timed{};
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      lock.acquire_write(comm);
      comm.compute(2'000'000);
      lock.release_write(comm);
    } else {
      comm.compute(10'000);
      timed = lock.try_acquire_for(comm, comm.now_ns() + 100'000,
                                   RetryPolicy{});
      if (timed.ok()) lock.release_write(comm);
      lock.acquire_write(comm);
      comm.compute(10);
      lock.release_write(comm);
    }
  });
  EXPECT_EQ(timed.status, AcquireStatus::kTimeout);
}

TEST(TimedAcquire, RwFactoryExclusiveTimesOutUnderContention) {
  // make_exclusive returns the RW lock itself; its timed path must be
  // RMA-RW's timed writer, not the blocking default.
  timeout_under_contention([](rma::World& world) {
    return make_exclusive(Backend::kRmaRw, world);
  });
}

TEST(TimedAcquire, RwWriteSideGrantsUncontended) {
  auto world =
      rma::SimWorld::create(timed_options(topo::Topology::uniform({}, 2), 13));
  RmaRw lock(*world, RmaRwParams::defaults(world->topology()));
  AcquireResult granted{};
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    granted = lock.try_acquire_for(comm, comm.now_ns() + 1'000'000,
                                   RetryPolicy{});
    if (granted.ok()) lock.release_write(comm);
  });
  EXPECT_TRUE(granted.ok());
}

/// Every DQ tail of `tree` is nil on every rank.
void expect_queues_empty(const rma::World& world,
                         const DistributedTree& tree) {
  for (Rank r = 0; r < world.nprocs(); ++r) {
    for (i32 q = 1; q <= tree.num_levels(); ++q) {
      EXPECT_EQ(world.read_word(r, tree.tail_offset(q)), kNilRank)
          << "tail of level " << q << " on rank " << r;
    }
  }
}

/// Multi-level machine: rank 0 holds the lock for 2 ms; the first rank of
/// the machine's second half makes a timed acquire. Its own leaf (and, on
/// deeper machines, every level below the root) is empty, so it wins those
/// levels and misses at the root, where rank 0's element sits. It must
/// time out, leave the levels it won, and still get the lock by a blocking
/// acquire once rank 0 is gone.
template <typename Lock>
void leaf_won_root_missed(const topo::Topology& topology) {
  auto world = rma::SimWorld::create(timed_options(topology, 17));
  Lock lock(*world);
  const Rank timed_rank = world->nprocs() / 2;
  AcquireResult timed{};
  bool reacquired = false;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      lock.acquire(comm);
      comm.compute(2'000'000);
      lock.release(comm);
    } else if (comm.rank() == timed_rank) {
      comm.compute(10'000);  // let rank 0 win the root
      timed = lock.try_acquire_for(comm, comm.now_ns() + 100'000,
                                   RetryPolicy{});
      if (timed.ok()) lock.release(comm);
      lock.acquire(comm);
      reacquired = true;
      lock.release(comm);
    }
  });
  EXPECT_EQ(timed.status, AcquireStatus::kTimeout) << lock.name();
  EXPECT_GE(timed.attempts, 1u);
  EXPECT_TRUE(reacquired) << lock.name();
  expect_queues_empty(*world, lock.tree());
}

TEST(TimedAcquire, McsLeafWonRootMissedLeavesNothingQueued) {
  leaf_won_root_missed<RmaMcs>(topo::Topology::uniform({2}, 2));
  leaf_won_root_missed<RmaMcs>(topo::Topology::uniform({2, 2}, 2));
}

TEST(TimedAcquire, RwWriteSideLeafWonRootMissedLeavesNothingQueued) {
  leaf_won_root_missed<RmaRw>(topo::Topology::uniform({2}, 2));
  leaf_won_root_missed<RmaRw>(topo::Topology::uniform({2, 2}, 2));
}

TEST(TimedAcquire, RwDrainTimeoutUndoesTheWriterClaim) {
  // A reader holds for 2 ms; a timed writer on the other node wins every
  // queue level, flags the counters and drains — and the drain expires.
  // The undo must reopen the counters, leave every level and let a second
  // reader in while the first still holds.
  auto world = rma::SimWorld::create(
      timed_options(topo::Topology::uniform({2}, 2), 19));
  RmaRw lock(*world);
  AcquireResult timed{};
  Nanos first_released_at = 0;
  Nanos second_admitted_at = 0;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      lock.acquire_read(comm);
      comm.compute(2'000'000);
      first_released_at = comm.now_ns();
      lock.release_read(comm);
    } else if (comm.rank() == 2) {
      comm.compute(10'000);  // let rank 0 arrive first
      timed = lock.try_acquire_for(comm, comm.now_ns() + 100'000,
                                   RetryPolicy{});
      if (timed.ok()) lock.release_write(comm);
    } else if (comm.rank() == 1) {
      comm.compute(500'000);  // well past the writer's deadline
      lock.acquire_read(comm);
      second_admitted_at = comm.now_ns();
      lock.release_read(comm);
    }
  });
  EXPECT_EQ(timed.status, AcquireStatus::kTimeout);
  for (const Rank host : lock.counter_hosts()) {
    const i64 arrive = world->read_word(host, lock.arrive_offset());
    const i64 depart = world->read_word(host, lock.depart_offset());
    EXPECT_LT(arrive, kWriteFlagThreshold) << "WRITE flag left on " << host;
    EXPECT_EQ(arrive, depart) << "counter " << host;
  }
  EXPECT_EQ(world->read_word(lock.tree().tail_host(0, 1),
                             lock.tree().tail_offset(1)),
            kNilRank);
  expect_queues_empty(*world, lock.tree());
  EXPECT_GT(second_admitted_at, 0);
  EXPECT_LT(second_admitted_at, first_released_at)
      << "second reader was not admitted while the first still held";
}

TEST(LeaseWord, PackRoundTripsAtTheEpochCeiling) {
  // Epoch-wrap regression: the epoch field is 51 bits; packing must stay
  // exact all the way to kMaxEpoch without bleeding into the owner field
  // or the sign bit.
  for (const i64 epoch :
       {i64{0}, i64{1}, LeaseExclusive::kMaxEpoch - 1,
        LeaseExclusive::kMaxEpoch}) {
    for (const Rank owner : std::vector<Rank>{kNilRank, 0, 7, 4093}) {
      const i64 word = LeaseExclusive::pack(epoch, owner);
      EXPECT_GE(word, 0) << "sign bit corrupted at epoch " << epoch;
      EXPECT_EQ(LeaseExclusive::epoch_of(word), epoch);
      EXPECT_EQ(LeaseExclusive::owner_of(word), owner)
          << "owner field corrupted at epoch " << epoch;
    }
  }
}

TEST(LeaseWord, PackRefusesToTruncatePastMaxEpoch) {
  EXPECT_DEATH(
      (void)LeaseExclusive::pack(LeaseExclusive::kMaxEpoch + 1, Rank{0}),
      "overflows");
  EXPECT_DEATH((void)LeaseExclusive::pack(i64{-1}, Rank{0}), "overflows");
}

}  // namespace
}  // namespace rmalock::locks
