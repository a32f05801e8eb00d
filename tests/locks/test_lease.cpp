// LeaseExclusive unit tests: fresh epoch per grant, epoch-fenced steal of
// a suspected-dead owner's lease (with the fenced victim's release staying
// quiet), the planted no-fence bug's observable double-grant epoch, the
// administrative recover_orphan sweep, factory round-trips for the lease
// backends, and the restart-wedge regression (a rebooted owner must fence
// its own orphan before queueing on the inner lock).
#include "locks/lease.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_support.hpp"
#include "locks/factory.hpp"
#include "locks/rma_mcs.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::locks {
namespace {

rma::SimOptions lease_options(const topo::Topology& topology, u64 seed,
                              i32 max_crashes = 0) {
  rma::SimOptions opts;
  opts.topology = topology;
  opts.latency = rma::LatencyModel::zero(topology.num_levels());
  opts.seed = seed;
  opts.max_crashes = max_crashes;
  opts.crash_chance_permille = 1000;  // armed points always fire
  return opts;
}

std::unique_ptr<LeaseExclusive> make_lease(rma::World& world,
                                           LeaseParams params = {}) {
  return std::make_unique<LeaseExclusive>(
      world, std::make_unique<RmaMcs>(world), params);
}

TEST(Lease, EveryGrantGetsAFreshEpoch) {
  auto world = rma::SimWorld::create(
      lease_options(topo::Topology::uniform({}, 4), 1));
  auto lease = make_lease(*world);
  // SimWorld fibers are cooperative on one OS thread, so a plain vector
  // collects grants in global grant order without synchronization.
  std::vector<i64> epochs;
  world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 5; ++i) {
      epochs.push_back(lease->acquire_epoch(comm));
      comm.compute(50);
      lease->release(comm);
    }
  });
  ASSERT_EQ(epochs.size(), 20u);
  for (usize i = 1; i < epochs.size(); ++i) {
    EXPECT_LT(epochs[i - 1], epochs[i])
        << "grant " << i << " reused or regressed an epoch";
  }
  // All released: the lease word is free at the last grant's epoch.
  const i64 word = lease->lease_word(*world);
  EXPECT_EQ(LeaseExclusive::owner_of(word), kNilRank);
  EXPECT_EQ(LeaseExclusive::epoch_of(word), epochs.back());
}

TEST(Lease, FencedStealBumpsEpochAndFencedReleaseIsQuiet) {
  // The adversarial detector lets rank 1 "suspect" a perfectly live owner:
  // the steal must bump the epoch (fencing rank 0), and rank 0's later
  // release must see the foreign owner and touch nothing.
  rma::SimOptions opts = lease_options(topo::Topology::uniform({}, 2), 3);
  opts.adversarial_suspicion = true;
  auto world = rma::SimWorld::create(std::move(opts));
  auto lease = make_lease(*world);
  const WinOffset held = world->allocate(1);    // rank 0 holds the lease
  const WinOffset stolen = world->allocate(1);  // rank 1 stole it
  i64 owner_epoch = 0;
  i64 thief_epoch = 0;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      owner_epoch = lease->acquire_epoch(comm);
      comm.put(1, 1, held);
      comm.flush(1);
      while (comm.get(0, stolen) == 0) comm.flush(0);
      comm.flush(0);
      lease->release(comm);  // fenced: must be a quiet no-op
    } else {
      while (comm.get(1, held) == 0) comm.flush(1);
      comm.flush(1);
      thief_epoch = lease->acquire_epoch(comm);
      comm.put(1, 0, stolen);
      comm.flush(0);
    }
  });
  EXPECT_EQ(thief_epoch, owner_epoch + 1) << "steal did not fence the owner";
  // The thief still holds: the fenced release must not have freed (or
  // otherwise modified) the stolen lease.
  const i64 word = lease->lease_word(*world);
  EXPECT_EQ(LeaseExclusive::owner_of(word), 1);
  EXPECT_EQ(LeaseExclusive::epoch_of(word), thief_epoch);
}

TEST(Lease, NoFenceStealSharesTheEpoch) {
  // The planted recovery bug: reclaiming without bumping the epoch grants
  // the thief the victim's own epoch — the "two owners in one epoch"
  // violation mc::EpochMonitor exists to catch.
  auto world = rma::SimWorld::create(lease_options(
      topo::Topology::uniform({}, 2), 5, /*max_crashes=*/1));
  LeaseParams params;
  params.fence_on_steal = false;
  auto lease = make_lease(*world, params);
  i64 victim_epoch = 0;
  i64 thief_epoch = -1;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 1) {
      victim_epoch = lease->acquire_epoch(comm);
      comm.crash_point();  // dies holding the lease
      lease->release(comm);
    } else {
      while (!comm.suspected(1)) comm.compute(100);
      thief_epoch = lease->acquire_epoch(comm);
      lease->release(comm);
    }
  });
  EXPECT_EQ(thief_epoch, victim_epoch)
      << "without the fence the steal must visibly reuse the dead owner's "
         "epoch (a fenced steal would return epoch + 1)";
}

TEST(Lease, RecoverOrphanFencesOnlySuspectedOwners) {
  auto world = rma::SimWorld::create(lease_options(
      topo::Topology::uniform({}, 2), 7, /*max_crashes=*/1));
  auto lease = make_lease(*world);
  bool live_reclaim = true;
  bool free_reclaim = true;
  bool orphan_reclaim = false;
  i64 victim_epoch = 0;
  const WinOffset held = world->allocate(1);
  const WinOffset probed = world->allocate(1);  // live-probe done, may crash
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 1) {
      victim_epoch = lease->acquire_epoch(comm);
      comm.put(1, 0, held);
      comm.flush(0);
      while (comm.get(1, probed) == 0) comm.flush(1);
      comm.flush(1);
      comm.crash_point();
      lease->release(comm);
    } else {
      while (comm.get(0, held) == 0) comm.flush(0);
      comm.flush(0);
      // Owner is alive and unsuspected: the sweep must not touch it.
      live_reclaim = lease->recover_orphan(comm);
      comm.put(1, 1, probed);
      comm.flush(1);
      while (!comm.suspected(1)) comm.compute(100);
      orphan_reclaim = lease->recover_orphan(comm);
      // Already free: a second sweep finds nothing.
      free_reclaim = lease->recover_orphan(comm);
    }
  });
  EXPECT_FALSE(live_reclaim);
  EXPECT_TRUE(orphan_reclaim);
  EXPECT_FALSE(free_reclaim);
  // Reclaim leaves the lease free at the bumped epoch.
  const i64 word = lease->lease_word(*world);
  EXPECT_EQ(LeaseExclusive::owner_of(word), kNilRank);
  EXPECT_EQ(LeaseExclusive::epoch_of(word), victim_epoch + 1);
}

TEST(Lease, FactoryRoundTripsTheLeaseBackends) {
  for (const Backend backend : {Backend::kLeaseMcs, Backend::kLeaseRw}) {
    const std::string name = backend_name(backend);
    EXPECT_FALSE(backend_is_rw(backend)) << "lease wrappers are exclusive";

    auto world = rma::SimWorld::create(
        lease_options(topo::Topology::uniform({2}, 2), 9));
    auto lock = make_exclusive(backend, *world);
    ASSERT_NE(lock, nullptr);
    EXPECT_NE(lock->name().find("Lease<"), std::string::npos) << lock->name();
    i32 entries = 0;
    const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < 3; ++i) {
        lock->acquire(comm);
        ++entries;
        lock->release(comm);
      }
    });
    EXPECT_TRUE(result.ok()) << name;
    EXPECT_EQ(entries, world->nprocs() * 3) << name;
  }
}

TEST(Lease, RestartedOwnerSelfFencesItsOrphanedLease) {
  // Regression for the restart wedge: the victim crashes mid-CS and
  // reboots. Once it is live again the perfect detector clears it, so
  // other claimants wait for a release that will never come while the
  // rebooted victim queues behind them on the inner lock. The self-fence
  // on rejoin is what breaks the cycle; without it this run deadlocks.
  rma::SimOptions opts = lease_options(topo::Topology::uniform({}, 4), 11,
                                       /*max_crashes=*/1);
  opts.restart_crashed = true;
  opts.abort_on_deadlock = false;
  auto world = rma::SimWorld::create(std::move(opts));
  auto lease = make_lease(*world);
  constexpr Rank kVictim = 3;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 3; ++i) {
      (void)lease->acquire_epoch(comm);
      comm.compute(50);
      if (comm.rank() == kVictim && i == 0) {
        comm.crash_point();  // reboots, re-enters the loop from i == 0
      }
      lease->release(comm);
      comm.compute(20);
    }
  });
  EXPECT_TRUE(result.ok()) << "restart wedge: rebooted owner never fenced "
                              "its own orphaned lease";
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_TRUE(result.crashed_ranks.empty());
  EXPECT_EQ(LeaseExclusive::owner_of(lease->lease_word(*world)), kNilRank);
}

}  // namespace
}  // namespace rmalock::locks
