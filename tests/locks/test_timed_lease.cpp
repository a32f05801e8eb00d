// TimedLease unit tests: monotone fencing tokens across free takes,
// still_valid expiring on the holder's own clock, the reclaim path waiting
// out duration + grace + margin before stealing an abandoned hold, the
// reclaimed-from holder's release staying quiet, the end-to-end fencing
// handshake with LockSpace::write_payload_fenced (stale token rejected at
// the resource), name() surfacing the planted no-margin variant, and a
// ThreadWorld smoke run.
#include "locks/timed_lease.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "../support/test_support.hpp"
#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::locks {
namespace {

using test::make_sim;
using test::make_threads;

lockspace::LockSpaceConfig payload_space(bool skip_token = false) {
  lockspace::LockSpaceConfig config;
  config.backend = Backend::kRmaMcs;
  config.shards = 1;
  config.slots_per_shard = 1;
  config.payload_words = 2;
  config.skip_token_check = skip_token;
  return config;
}

TEST(TimedLease, EveryGrantGetsAFreshToken) {
  auto world = make_sim(topo::Topology::uniform({}, 4));
  TimedLease lease(*world, {});
  // SimWorld fibers are cooperative on one OS thread, so a plain vector
  // collects grants in global grant order without synchronization.
  std::vector<i64> tokens;
  world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 3; ++i) {
      tokens.push_back(lease.acquire_token(comm));
      comm.compute(100);
      lease.release(comm);
    }
  });
  ASSERT_EQ(tokens.size(), 12u);
  for (usize i = 1; i < tokens.size(); ++i) {
    EXPECT_LT(tokens[i - 1], tokens[i])
        << "grant " << i << " reused or regressed a fencing token";
  }
  // All released: the word is free at the last grant's epoch.
  const i64 word = lease.lease_word(*world);
  EXPECT_EQ(TimedLease::owner_of(word), kNilRank);
  EXPECT_EQ(TimedLease::epoch_of(word), tokens.back());
}

TEST(TimedLease, StillValidExpiresOnTheHoldersOwnClock) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  TimedLease lease(*world, {});
  bool valid_at_grant = false;
  bool valid_inside = false;
  bool valid_after = true;
  world->run([&](rma::RmaComm& comm) {
    (void)lease.acquire_token(comm);
    valid_at_grant = lease.still_valid(comm);
    comm.compute(TimedLease::kDurationNs - 1'000);
    valid_inside = lease.still_valid(comm);
    comm.compute(2'000);  // 1'000 past the duration: belief must end
    valid_after = lease.still_valid(comm);
    lease.release(comm);
  });
  EXPECT_TRUE(valid_at_grant);
  EXPECT_TRUE(valid_inside);
  EXPECT_FALSE(valid_after)
      << "a holder believed its lease past kDurationNs on its own clock";
}

TEST(TimedLease, ReclaimWaitsOutDurationGraceAndMargin) {
  // Rank 0 takes the lease and abandons it (no release). Rank 1 must be
  // able to reclaim — but only after observing the unchanged hold for
  // duration + reclaim_grace + safety_margin on its own clock, and the
  // reclaim grant must bump the token, fencing the abandoned holder.
  auto world = make_sim(topo::Topology::uniform({}, 2));
  TimedLease lease(*world, {});
  const TimedLeaseParams& p = lease.params();
  const WinOffset held = world->allocate(1);
  i64 owner_token = 0;
  i64 thief_token = 0;
  Nanos waited = 0;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      owner_token = lease.acquire_token(comm);
      comm.put(1, 1, held);
      comm.flush(1);
      // Abandon: sit out far past every belief window without releasing.
      comm.compute(10 * (TimedLease::kDurationNs + p.safety_margin_ns));
    } else {
      while (comm.get(1, held) == 0) comm.flush(1);
      comm.flush(1);
      const Nanos begin = comm.local_now_ns();
      thief_token = lease.acquire_token(comm);
      waited = comm.local_now_ns() - begin;
    }
  });
  EXPECT_EQ(thief_token, owner_token + 1)
      << "time-based reclaim did not fence the abandoned holder";
  EXPECT_GE(waited, TimedLease::kDurationNs + TimedLease::kReclaimGraceNs +
                        p.safety_margin_ns)
      << "reclaimed before the full observation window elapsed";
  const i64 word = lease.lease_word(*world);
  EXPECT_EQ(TimedLease::owner_of(word), 1);
  EXPECT_EQ(TimedLease::epoch_of(word), thief_token);
}

TEST(TimedLease, ReleaseAfterReclaimIsQuiet) {
  // The reclaimed-from holder eventually calls release: it must notice the
  // foreign grant (bumped epoch) and touch nothing — the thief still owns.
  auto world = make_sim(topo::Topology::uniform({}, 2));
  TimedLease lease(*world, {});
  const WinOffset held = world->allocate(1);
  const WinOffset stolen = world->allocate(1);
  i64 thief_token = 0;
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == 0) {
      (void)lease.acquire_token(comm);
      comm.put(1, 1, held);
      comm.flush(1);
      while (comm.get(0, stolen) == 0) comm.flush(0);
      comm.flush(0);
      lease.release(comm);  // fenced: must be a quiet no-op
    } else {
      while (comm.get(1, held) == 0) comm.flush(1);
      comm.flush(1);
      thief_token = lease.acquire_token(comm);  // time-based reclaim
      comm.put(1, 0, stolen);
      comm.flush(0);
    }
  });
  const i64 word = lease.lease_word(*world);
  EXPECT_EQ(TimedLease::owner_of(word), 1)
      << "a stale release freed (or clobbered) the thief's grant";
  EXPECT_EQ(TimedLease::epoch_of(word), thief_token);
}

TEST(TimedLease, StaleTokenIsRejectedAtTheResource) {
  // The end-to-end fencing story: the abandoned holder never learns of the
  // reclaim, yet its payload write fails at the resource because its token
  // is older than the newest one the slot has admitted.
  auto world = make_sim(topo::Topology::uniform({}, 2));
  TimedLease lease(*world, {});
  lockspace::LockSpace space(*world, payload_space());
  const WinOffset held = world->allocate(1);
  const WinOffset written = world->allocate(1);
  bool fresh_accepted = false;
  bool stale_accepted = true;
  std::vector<i64> readback(2, 0);
  world->run([&](rma::RmaComm& comm) {
    std::vector<i64> buf(2, 0);
    if (comm.rank() == 0) {
      const i64 token = lease.acquire_token(comm);
      comm.put(1, 1, held);
      comm.flush(1);
      while (comm.get(0, written) == 0) comm.flush(0);
      comm.flush(0);
      // Still believes? Doesn't matter: the token is stale either way.
      std::fill(buf.begin(), buf.end(), token);
      stale_accepted =
          space.write_payload_fenced(comm, /*key=*/0, token, buf.data(), 2);
      space.locked_read(comm, /*key=*/0, readback.data(), 2);
    } else {
      while (comm.get(1, held) == 0) comm.flush(1);
      comm.flush(1);
      const i64 token = lease.acquire_token(comm);  // reclaim: token bumped
      std::fill(buf.begin(), buf.end(), token);
      fresh_accepted =
          space.write_payload_fenced(comm, /*key=*/0, token, buf.data(), 2);
      comm.put(1, 0, written);
      comm.flush(0);
    }
  });
  EXPECT_TRUE(fresh_accepted);
  EXPECT_FALSE(stale_accepted)
      << "the resource admitted a write carrying a reclaimed token";
  // The payload still carries the reclaimer's stamp (token 2), untouched
  // by the rejected stale write.
  EXPECT_EQ(readback, std::vector<i64>(2, 2));
}

TEST(TimedLease, AdmittedVersionCarriesTokenAndSequence) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  TimedLease lease(*world, {});
  lockspace::LockSpace space(*world, payload_space());
  world->run([&](rma::RmaComm& comm) {
    const i64 token = lease.acquire_token(comm);
    std::vector<i64> buf(2, token);
    i64 admitted = 0;
    ASSERT_TRUE(space.write_payload_fenced(comm, /*key=*/0, token,
                                           buf.data(), 2, &admitted));
    // Closing version word: (token << kTokenSeqBits) | seq, seq even.
    EXPECT_EQ(lockspace::LockSpace::token_of_version(admitted), token);
    const i64 seq = admitted & lockspace::LockSpace::kTokenSeqMask;
    EXPECT_EQ(seq % 2, 0) << "write session left the seqlock odd";
    EXPECT_GT(seq, 0);
    lease.release(comm);
  });
}

TEST(TimedLease, NameSurfacesThePlantedNoMarginVariant) {
  auto world = make_sim(topo::Topology::uniform({}, 1));
  TimedLease fenced(*world, {});
  EXPECT_EQ(fenced.name(), "TimedLease");
  TimedLeaseParams no_margin;
  no_margin.safety_margin_ns = 0;
  TimedLease planted(*world, no_margin);
  EXPECT_EQ(planted.name(), "TimedLease (no margin)");
}

TEST(TimedLease, ThreadWorldSmoke) {
  // Real threads, perfect clocks (ThreadWorld's local_now_ns is now_ns):
  // the timed lease degrades to a plain mutual-exclusion lock as long as
  // holds stay well inside kDurationNs. The counter is atomic on purpose —
  // the OS may preempt a holder past its belief window, and a reclaim then
  // is correct lease behavior, not a bug for this smoke to flag.
  auto world = make_threads(topo::Topology::uniform({}, 2));
  TimedLease lease(*world, {});
  std::atomic<i64> entries{0};
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 4; ++i) {
      lease.acquire(comm);
      entries.fetch_add(1, std::memory_order_relaxed);
      lease.release(comm);
      comm.compute(200);
    }
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(entries.load(), 8);
}

}  // namespace
}  // namespace rmalock::locks
