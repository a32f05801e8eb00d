// LockSpace unit tests: the O(1) owner-computes directory, topology-aware
// shard homing, the exact per-slot window footprint of every backend, eager
// construction of every slot before any run, the working-set gauge (on both
// worlds), per-shard accounting, the versioned payload, orphan recovery, and
// re-homing on the blocking grant path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"
#include "rma/thread_world.hpp"

namespace rmalock {
namespace {

rma::SimOptions sim_options(const topo::Topology& topology, u64 seed = 1) {
  rma::SimOptions opts;
  opts.topology = topology;
  opts.latency = rma::LatencyModel::zero(topology.num_levels());
  opts.seed = seed;
  return opts;
}

TEST(LockSpaceDirectory, ResolveIsInBoundsAndDeterministic) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 8;
  lockspace::LockSpace space(*world, config);
  ASSERT_EQ(space.shards(), 4);  // one per leaf by default
  for (u64 key = 0; key < 5000; ++key) {
    const lockspace::LockRef ref = space.resolve(key);
    EXPECT_GE(ref.shard, 0);
    EXPECT_LT(ref.shard, space.shards());
    EXPECT_GE(ref.slot, 0);
    EXPECT_LT(ref.slot, space.slots_per_shard());
    EXPECT_EQ(ref.home, space.home_of_shard(ref.shard));
    EXPECT_EQ(ref.global_slot,
              static_cast<u32>(ref.shard) * 8u + static_cast<u32>(ref.slot));
    const lockspace::LockRef again = space.resolve(key);
    EXPECT_EQ(again.shard, ref.shard);
    EXPECT_EQ(again.slot, ref.slot);
  }
}

TEST(LockSpaceDirectory, KeysSpreadOverAllShardsAndSlots) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 8;
  lockspace::LockSpace space(*world, config);
  std::set<u32> slots_seen;
  for (u64 key = 0; key < 4096; ++key) {
    slots_seen.insert(space.resolve(key).global_slot);
  }
  // 4096 hashed keys over 32 slots: every slot is hit with overwhelming
  // probability; a directory that ignored part of the hash would not cover.
  EXPECT_EQ(slots_seen.size(), space.total_slots());
}

TEST(LockSpaceDirectory, HomesSpreadLeafMajorAcrossNodes) {
  // 4 nodes x 4 procs: shards 0..3 land on distinct leaves (their rep
  // ranks), shard 4 wraps to leaf 0's second rank.
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({4}, 4)));
  lockspace::LockSpaceConfig config;
  config.shards = 6;
  lockspace::LockSpace space(*world, config);
  EXPECT_EQ(space.home_of_shard(0), 0);
  EXPECT_EQ(space.home_of_shard(1), 4);
  EXPECT_EQ(space.home_of_shard(2), 8);
  EXPECT_EQ(space.home_of_shard(3), 12);
  EXPECT_EQ(space.home_of_shard(4), 1);
  EXPECT_EQ(space.home_of_shard(5), 5);
  // Slot j sits j ranks past its shard's home, wrapping inside the leaf:
  // shard 4 (home 1, leaf 0 = ranks 0..3) cycles 1, 2, 3, 0, 1, ...
  EXPECT_EQ(space.home_of_slot(4, 0, 0), 1);
  EXPECT_EQ(space.home_of_slot(4, 2, 0), 3);
  EXPECT_EQ(space.home_of_slot(4, 3, 0), 0);
  EXPECT_EQ(space.home_of_slot(4, 5, 0), 2);
  EXPECT_EQ(space.home_of_slot(5, 3, 0), 4);  // shard 5: home 5, leaf 4..7
}

TEST(LockSpaceDirectory, SlotHomesSpreadInsideTheShardLeaf) {
  // 2 nodes x 16 procs, one shard per node, 16 slots per shard: the slots
  // of a shard get 16 distinct homes, all inside the shard's leaf.
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 16)));
  lockspace::LockSpaceConfig config;  // rma-rw, 16 slots per shard
  lockspace::LockSpace space(*world, config);
  ASSERT_EQ(space.shards(), 2);
  for (i32 shard = 0; shard < space.shards(); ++shard) {
    const Rank leaf_first = space.home_of_shard(shard);
    std::set<Rank> homes;
    for (i32 slot = 0; slot < space.slots_per_shard(); ++slot) {
      const Rank home = space.home_of_slot(shard, slot, 0);
      EXPECT_GE(home, leaf_first);
      EXPECT_LT(home, leaf_first + 16);
      homes.insert(home);
    }
    EXPECT_EQ(homes.size(), 16u) << "shard " << shard;
  }

  // An RMA-RW slot's counters follow its home: with T_DC = 16, slot j of
  // shard 0 (home j) keeps node 1's counter on rank 16 + j. So rank 16 + j
  // reads slot j's key without leaving its own window, and slot j+1's key
  // (counter on its neighbour) with intra-node ops.
  std::vector<u64> key_of_slot(16);
  std::vector<bool> found(16, false);
  for (u64 key = 0; std::count(found.begin(), found.end(), true) < 16;
       ++key) {
    const lockspace::LockRef ref = space.resolve(key);
    if (ref.shard != 0 || found[static_cast<usize>(ref.slot)]) continue;
    key_of_slot[static_cast<usize>(ref.slot)] = key;
    found[static_cast<usize>(ref.slot)] = true;
  }
  std::vector<u64> own_remote(32, 0);
  std::vector<u64> next_remote(32, 0);
  world->run([&](rma::RmaComm& comm) {
    const Rank me = comm.rank();
    if (me < 16) return;
    const auto remote_ops = [&comm] { return comm.stats().total_at_least(1); };
    const auto j = static_cast<usize>(me - 16);
    const u64 before = remote_ops();
    space.acquire_read(comm, key_of_slot[j]);
    space.release_read(comm, key_of_slot[j]);
    const u64 between = remote_ops();
    space.acquire_read(comm, key_of_slot[(j + 1) % 16]);
    space.release_read(comm, key_of_slot[(j + 1) % 16]);
    own_remote[static_cast<usize>(me)] = between - before;
    next_remote[static_cast<usize>(me)] = remote_ops() - between;
  });
  for (Rank r = 16; r < 32; ++r) {
    EXPECT_EQ(own_remote[static_cast<usize>(r)], 0u) << "rank " << r;
    EXPECT_GT(next_remote[static_cast<usize>(r)], 0u) << "rank " << r;
  }
}

/// Window words one instance of `backend` allocates on an n-level machine:
/// the word layouts of docs/DESIGN.md §3, restated as reference values.
usize slot_words(locks::Backend backend, usize n) {
  switch (backend) {
    case locks::Backend::kFompiSpin:
    case locks::Backend::kFompiRw:
      return 1;  // one lock word on the home rank
    case locks::Backend::kDMcs:
      return 3;  // NEXT + WAIT per process, TAIL on the home rank
    case locks::Backend::kDTree:
    case locks::Backend::kRmaMcs:
      return 3 * n;  // DistributedTree: NEXT/STATUS/TAIL per level
    case locks::Backend::kRmaRw:
      return 3 * n + 2;  // tree + ARRIVE/DEPART counter words
    case locks::Backend::kLeaseMcs:
      return 3 * n + 1;  // inner RMA-MCS + the lease word
    case locks::Backend::kLeaseRw:
      return 3 * n + 3;  // inner RMA-RW + the lease word
  }
  return 0;
}

TEST(LockSpaceFootprint, EveryBackendMatchesItsSlotWordsTable) {
  // The construction's window growth pins every backend's per-instance
  // footprint against the reference table (six slots, one instance each);
  // granting all six then counts each in the working-set gauge.
  const topo::Topology topology = topo::Topology::uniform({2, 2}, 2);  // N=3
  for (const locks::Backend backend : locks::all_backends()) {
    auto world = rma::SimWorld::create(sim_options(topology));
    const usize before = world->window_words();
    lockspace::LockSpaceConfig config;
    config.shards = 2;
    config.slots_per_shard = 3;
    config.backend = backend;
    lockspace::LockSpace space(*world, config);
    EXPECT_EQ(world->window_words() - before, 6 * slot_words(backend, 3))
        << locks::backend_name(backend);
    const std::vector<u64> keys = space.distinct_slot_keys(6);
    world->run([&](rma::RmaComm& comm) {
      if (comm.rank() != 0) return;
      for (const u64 key : keys) {
        space.acquire(comm, key);
        space.release(comm, key);
      }
    });
    EXPECT_EQ(space.instantiated_slots(), 6u) << locks::backend_name(backend);
  }
}

TEST(LockSpaceConstruction, EverySlotIsBuiltBeforeAnyRun) {
  // Construction alone initializes every slot's words on every rank: an
  // RMA-MCS instance's NEXT and TAIL words start at kNilRank and its
  // STATUS word at kStatusWait, all -1, where a fresh window word is 0.
  // No slot has been granted yet, so the working-set gauge reads 0.
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  const usize before = world->window_words();
  lockspace::LockSpaceConfig config;
  config.shards = 2;
  config.slots_per_shard = 3;
  config.backend = locks::Backend::kRmaMcs;
  lockspace::LockSpace space(*world, config);
  ASSERT_GT(world->window_words(), before);
  for (Rank rank = 0; rank < world->nprocs(); ++rank) {
    for (usize offset = before; offset < world->window_words(); ++offset) {
      EXPECT_EQ(world->read_word(rank, static_cast<WinOffset>(offset)), -1)
          << "rank " << rank << ", offset " << offset;
    }
  }
  EXPECT_EQ(space.instantiated_slots(), 0u);
}

TEST(LockSpaceWorkingSet, CountsSlotsAtTheirFirstGrant) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  EXPECT_EQ(space.instantiated_slots(), 0u);

  // Two keys on distinct slots, found by scanning the directory.
  u64 key_a = 0;
  u64 key_b = 1;
  while (space.resolve(key_b).global_slot == space.resolve(key_a).global_slot) {
    ++key_b;
  }
  world->run([&](rma::RmaComm& comm) {
    space.acquire(comm, key_a);
    space.release(comm, key_a);
    space.acquire(comm, key_a);  // same key: the gauge does not move
    space.release(comm, key_a);
  });
  EXPECT_EQ(space.instantiated_slots(), 1u);
  world->run([&](rma::RmaComm& comm) {
    space.acquire(comm, key_b);
    space.release(comm, key_b);
  });
  EXPECT_EQ(space.instantiated_slots(), 2u);
}

TEST(LockSpaceWorkingSet, ConcurrentFirstGrantsOnThreadWorld) {
  rma::ThreadOptions opts;
  opts.topology = topo::Topology::uniform({2}, 4);  // 8 real threads
  auto world = rma::ThreadWorld::create(std::move(opts));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  // All threads hammer the same small key set concurrently, so first
  // grants race on every slot; each slot still counts once in the gauge.
  const i32 acquires = 20;
  world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < acquires; ++i) {
      const u64 key = static_cast<u64>((comm.rank() + i) % 6);
      space.acquire(comm, key);
      space.release(comm, key);
    }
  });
  std::set<u32> distinct_slots;
  for (u64 key = 0; key < 6; ++key) {
    distinct_slots.insert(space.resolve(key).global_slot);
  }
  EXPECT_EQ(space.instantiated_slots(), distinct_slots.size());
  EXPECT_EQ(space.total_acquires(),
            static_cast<u64>(world->nprocs()) * acquires);
}

TEST(LockSpaceAccounting, PerShardCountersSplitReadsAndWrites) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);
  const u64 key = 7;
  const i32 shard = space.resolve(key).shard;
  world->run([&](rma::RmaComm& comm) {
    space.acquire_read(comm, key);
    space.release_read(comm, key);
    if (comm.rank() == 0) {
      space.acquire(comm, key);
      space.release(comm, key);
    }
  });
  EXPECT_EQ(space.shard_read_acquires(shard),
            static_cast<u64>(world->nprocs()));
  EXPECT_EQ(space.shard_write_acquires(shard), 1u);
  EXPECT_EQ(space.total_acquires(),
            static_cast<u64>(world->nprocs()) + 1u);
}

TEST(LockSpaceModes, ExclusiveBackendServesSharedModeBySerializing) {
  auto world = rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaMcs;
  lockspace::LockSpace space(*world, config);
  EXPECT_FALSE(space.rw_capable());
  const u64 key = 11;
  world->run([&](rma::RmaComm& comm) {
    space.acquire_read(comm, key);
    space.release_read(comm, key);
  });
  const i32 shard = space.resolve(key).shard;
  EXPECT_EQ(space.shard_read_acquires(shard),
            static_cast<u64>(world->nprocs()));
}

TEST(LockSpaceModes, EveryBackendTakesAndReleasesKeys) {
  for (const locks::Backend backend : locks::all_backends()) {
    auto world =
        rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
    lockspace::LockSpaceConfig config;
    config.backend = backend;
    config.slots_per_shard = 2;
    lockspace::LockSpace space(*world, config);
    const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < 3; ++i) {
        const u64 key = static_cast<u64>((comm.rank() + i) % 5);
        space.acquire(comm, key);
        space.release(comm, key);
      }
    });
    EXPECT_TRUE(result.ok()) << locks::backend_name(backend);
    EXPECT_EQ(space.total_acquires(),
              static_cast<u64>(world->nprocs()) * 3u)
        << locks::backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// Versioned payloads and the optimistic read path
// ---------------------------------------------------------------------------

TEST(LockSpaceOptimistic, CapabilityFollowsPayloadWords) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig plain;
  lockspace::LockSpace no_payload(*world, plain);
  EXPECT_FALSE(no_payload.optimistic_capable());
  EXPECT_EQ(no_payload.payload_words(), 0);

  auto world2 =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig with_payload;
  with_payload.payload_words = 4;
  lockspace::LockSpace payload(*world2, with_payload);
  EXPECT_TRUE(payload.optimistic_capable());
  EXPECT_EQ(payload.payload_words(), 4);
}

TEST(LockSpaceOptimistic, PayloadRoundTripAndVersionParity) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 3;
  lockspace::LockSpace space(*world, config);
  const u64 key = 42;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    // A fresh slot starts at version 0 (even, quiescent) with a zero image.
    EXPECT_EQ(space.payload_version(comm, key), 0);
    if (comm.rank() == 0) {
      const i64 image[3] = {7, 8, 9};
      space.acquire(comm, key);
      space.write_payload(comm, key, image, 3);
      space.release(comm, key);
    }
    comm.barrier();
    // Every completed write session bumps the version by exactly 2 (odd
    // while mid-publication, back to even at rest).
    const i64 version = space.payload_version(comm, key);
    EXPECT_EQ(version, 2);
    EXPECT_EQ(version % 2, 0);
    i64 out[3] = {0, 0, 0};
    space.locked_read(comm, key, out, 3);
    EXPECT_EQ(out[0], 7);
    EXPECT_EQ(out[1], 8);
    EXPECT_EQ(out[2], 9);
  });
  EXPECT_TRUE(result.ok());
}

TEST(LockSpaceOptimistic, UncontendedOptimisticReadSucceedsFirstTry) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 2;
  lockspace::LockSpace space(*world, config);
  const u64 key = 5;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      const i64 image[2] = {11, 11};
      space.acquire(comm, key);
      space.write_payload(comm, key, image, 2);
      space.release(comm, key);
    }
    comm.barrier();
    i64 out[2] = {0, 0};
    const lockspace::LockSpace::OptimisticResult r =
        space.optimistic_read(comm, key, out, 2);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.fell_back);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(out[0], 11);
    EXPECT_EQ(out[1], 11);
  });
  EXPECT_TRUE(result.ok());
}

TEST(LockSpaceOptimistic, ContendedReadsAlwaysReturnConsistentImages) {
  // Writers publish all-words-equal images; whatever mix of validated
  // optimistic snapshots and read-lock fallbacks the schedule produces,
  // no returned image may ever mix two write sessions.
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 4)));
  lockspace::LockSpaceConfig config;
  config.payload_words = 4;
  lockspace::LockSpace space(*world, config);
  const u64 key = 3;
  u64 torn = 0;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    std::vector<i64> buf(4, 0);
    for (i32 i = 0; i < 20; ++i) {
      if (comm.rank() % 2 == 0) {
        const i64 gen = comm.rank() * 100 + i;
        std::fill(buf.begin(), buf.end(), gen);
        space.acquire(comm, key);
        space.write_payload(comm, key, buf.data(), 4);
        space.release(comm, key);
      } else {
        space.optimistic_read(comm, key, buf.data(), 4);
        for (i32 w = 1; w < 4; ++w) {
          if (buf[static_cast<usize>(w)] != buf[0]) ++torn;
        }
      }
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(torn, 0u);
}

TEST(LockSpaceRecovery, RecoverOrphansReclaimsOnlyTheOrphanedLease) {
  // A victim instantiates several named lease locks (so the sweep has
  // live-but-free slots it must skip), then dies holding one of them. A
  // survivor's administrative sweep reclaims exactly that lease, and the
  // orphaned name serves new claimants again.
  rma::SimOptions opts = sim_options(topo::Topology::uniform({2}, 2));
  opts.max_crashes = 1;
  opts.crash_chance_permille = 1000;  // the armed point fires for sure
  auto world = rma::SimWorld::create(opts);
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kLeaseMcs;
  config.slots_per_shard = 4;
  lockspace::LockSpace space(*world, config);

  const Rank victim = static_cast<Rank>(world->nprocs() - 1);
  constexpr u64 kOrphanKey = 3;
  u64 reclaimed = 0;
  u64 reclaimed_again = 0;
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == victim) {
      for (u64 key = 0; key < 8; ++key) {
        space.acquire(comm, key);
        space.release(comm, key);
      }
      space.acquire(comm, kOrphanKey);
      comm.crash_point();  // dies holding the lease
      space.release(comm, kOrphanKey);
    } else if (comm.rank() == 0) {
      while (!comm.suspected(victim)) comm.compute(500);
      reclaimed = space.recover_orphans(comm);
      // The reclaimed name must be acquirable again; every other slot was
      // already free, so a second sweep finds nothing.
      space.acquire(comm, kOrphanKey);
      space.release(comm, kOrphanKey);
      reclaimed_again = space.recover_orphans(comm);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(reclaimed_again, 0u);
}

// ---------------------------------------------------------------------------
// Re-homing on the blocking grant path
// ---------------------------------------------------------------------------

struct BlockingRehomeRun {
  rma::RunResult result;
  bool committed = false;
  bool read_returned = false;
  Nanos grant_ns = 0;   // rank 1's blocking grant
  Nanos commit_ns = 0;  // rank 2's rehome commit
  u64 instantiated = 0; // metrics()[0].instantiated_slots
};

/// Rank 0 holds the only key for 50 us; rank 1 queues behind it with a
/// blocking acquire; rank 2 re-homes the shard while rank 1 waits; rank 3
/// takes a blocking read long after the migration committed.
BlockingRehomeRun run_blocking_rehome(bool skip_fence) {
  auto world =
      rma::SimWorld::create(sim_options(topo::Topology::uniform({2}, 2)));
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaMcs;
  config.shards = 1;
  config.slots_per_shard = 1;
  config.rehome_epochs = 1;
  config.rehome_skip_fence = skip_fence;
  lockspace::LockSpace space(*world, config);
  constexpr u64 kKey = 0;
  BlockingRehomeRun run;
  run.result = world->run([&](rma::RmaComm& comm) {
    switch (comm.rank()) {
      case 0:
        space.acquire(comm, kKey);
        comm.compute(50'000);
        space.release(comm, kKey);
        break;
      case 1:
        comm.compute(1'000);
        space.acquire(comm, kKey);
        run.grant_ns = comm.now_ns();
        space.release(comm, kKey);
        break;
      case 2:
        comm.compute(5'000);
        run.committed = space.rehome_shard(comm, /*shard=*/0, 1'000'000);
        run.commit_ns = comm.now_ns();
        break;
      default:
        comm.compute(1'000'000);
        space.acquire_read(comm, kKey);
        space.release_read(comm, kKey);
        run.read_returned = true;
        break;
    }
  });
  run.instantiated = space.metrics()[0].instantiated_slots;
  return run;
}

TEST(LockSpaceRehome, BlockingAcquireChasesTheMigratedPlane) {
  // Rank 1's grant on the drained plane lands after rank 2 flipped the
  // shard to migrating: the fence must deflect it to the successor plane,
  // so its grant cannot precede the commit. Rank 3's read resolves the
  // committed epoch and instantiates nothing new.
  const BlockingRehomeRun fenced = run_blocking_rehome(/*skip_fence=*/false);
  EXPECT_TRUE(fenced.result.ok());
  EXPECT_TRUE(fenced.committed);
  EXPECT_TRUE(fenced.read_returned);
  EXPECT_EQ(fenced.instantiated, 2u);
  EXPECT_GE(fenced.grant_ns, fenced.commit_ns);

  // Negative control: without the fence rank 1 enters its critical
  // section on the abandoned plane while the migration is still draining.
  const BlockingRehomeRun planted = run_blocking_rehome(/*skip_fence=*/true);
  EXPECT_TRUE(planted.result.ok());
  EXPECT_TRUE(planted.committed);
  EXPECT_LT(planted.grant_ns, planted.commit_ns);
}

}  // namespace
}  // namespace rmalock
