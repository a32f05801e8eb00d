#include "locks/timed_lease.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

TimedLease::TimedLease(rma::World& world, TimedLeaseParams params)
    : params_(params), grants_(static_cast<usize>(world.nprocs())) {
  RMALOCK_CHECK(params_.home >= 0 && params_.home < world.nprocs());
  RMALOCK_CHECK(params_.safety_margin_ns >= 0);
  RMALOCK_CHECK_MSG(world.nprocs() < (1 << LeaseExclusive::kOwnerBits) - 1,
                    "lease owner field holds ranks up to "
                        << ((1 << LeaseExclusive::kOwnerBits) - 2)
                        << ", world has " << world.nprocs());
  lease_ = world.allocate(1, pack(0, kNilRank));
}

i64 TimedLease::probe(rma::RmaComm& comm) const {
  // Fetch-and-add of zero: reads the word atomically without the runtime's
  // spin-wait parking (which only tracks Get). A timed claimant must stay
  // runnable to notice expiry on its own clock — a parked waiter wakes only
  // when the word is written, which a paused holder never does.
  const i64 word = comm.fao(0, params_.home, lease_, rma::AccumOp::kSum);
  comm.flush(params_.home);
  return word;
}

i64 TimedLease::acquire_token(rma::RmaComm& comm) {
  const Rank me = comm.rank();
  // The observation window: a reclaim is legal only after this process has
  // watched the *same* lease word, unchanged, for duration + margin on its
  // own clock. The window restarts whenever the word changes hands or a
  // claim race is lost; it never carries over between acquire calls.
  i64 observed = probe(comm);
  Nanos observed_at = comm.local_now_ns();
  for (;;) {
    const i64 epoch = epoch_of(observed);
    const Rank owner = owner_of(observed);
    // A backward local-clock step across a skew event makes this elapsed
    // negative — which only delays the reclaim, never hastens it.
    const bool expired_here =
        owner != kNilRank && owner != me &&
        comm.local_now_ns() - observed_at >=
            kDurationNs + kReclaimGraceNs + params_.safety_margin_ns;
    if (owner == kNilRank || owner == me || expired_here) {
      // Free take, our own stale grant (a restarted holder re-acquiring),
      // or a hold that expired on our clock. Every grant bumps the epoch —
      // that bump IS the fencing token: a reclaimed-from holder's token is
      // now stale at any token-validating resource, whether or not the
      // holder ever learns of the reclaim.
      const i64 token = epoch + 1;
      if (comm.cas(pack(token, me), observed, params_.home, lease_) ==
          observed) {
        Grant& my = grants_[static_cast<usize>(me)];
        my.token = token;
        my.granted_at = comm.local_now_ns();
        return token;
      }
      // Lost the race: somebody else's grant or release got in between.
      observed = probe(comm);
      observed_at = comm.local_now_ns();
      continue;
    }
    // Held and not yet expired on our clock: burn kProbeNs locally, then
    // re-probe. The compute keeps virtual time moving toward expiry.
    comm.compute(kProbeNs);
    const i64 word = probe(comm);
    if (word != observed) {
      observed = word;
      observed_at = comm.local_now_ns();
    }
  }
}

void TimedLease::release(rma::RmaComm& comm) {
  const Rank me = comm.rank();
  const Grant& my = grants_[static_cast<usize>(me)];
  const i64 word = comm.get(params_.home, lease_);
  comm.flush(params_.home);
  if (owner_of(word) != me || epoch_of(word) != my.token) {
    // Reclaimed while we were paused or drift-slow: the bumped epoch
    // already fenced this grant, nothing to undo. (An expired-but-not-yet-
    // reclaimed hold is still ours to release normally below.)
    return;
  }
  // Keep the epoch on release; the next grant bumps it. A CAS failure means
  // a reclaim landed between the read and the swap — equally quiet.
  comm.cas(pack(epoch_of(word), kNilRank), word, params_.home, lease_);
}

bool TimedLease::still_valid(rma::RmaComm& comm) const {
  const Grant& my = grants_[static_cast<usize>(comm.rank())];
  return comm.local_now_ns() - my.granted_at < kDurationNs;
}

i64 TimedLease::lease_word(const rma::World& world) const {
  return world.read_word(params_.home, lease_);
}

std::string TimedLease::name() const {
  std::string name = "TimedLease";
  if (params_.safety_margin_ns == 0) name += " (no margin)";
  return name;
}

}  // namespace rmalock::locks
