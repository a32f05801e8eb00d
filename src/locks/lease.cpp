#include "locks/lease.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

LeaseExclusive::LeaseExclusive(rma::World& world,
                               std::unique_ptr<ExclusiveLock> inner,
                               LeaseParams params)
    : inner_(std::move(inner)), params_(params) {
  RMALOCK_CHECK(inner_ != nullptr);
  RMALOCK_CHECK(params_.home >= 0 && params_.home < world.nprocs());
  RMALOCK_CHECK_MSG(world.nprocs() < (1 << kOwnerBits) - 1,
                    "lease owner field holds ranks up to "
                        << ((1 << kOwnerBits) - 2) << ", world has "
                        << world.nprocs());
  lease_ = world.allocate(1, pack(0, kNilRank));
}

i64 LeaseExclusive::pack(i64 epoch, Rank owner) {
  // Refuse to truncate: an epoch past kMaxEpoch would shift into the sign
  // bit and corrupt both fields. 2^51 grants is unreachable in practice
  // (the wrap regression test drives it directly), so fail loudly.
  RMALOCK_CHECK_MSG(epoch >= 0 && epoch <= kMaxEpoch,
                    "lease epoch " << epoch << " overflows the "
                                   << kEpochBits << "-bit epoch field");
  RMALOCK_CHECK_MSG(owner >= kNilRank && owner < (1 << kOwnerBits) - 1,
                    "lease owner " << owner
                                   << " overflows the owner field");
  return (epoch << kOwnerBits) | (owner + 1);
}

i64 LeaseExclusive::acquire_epoch(rma::RmaComm& comm) {
  const Rank me = comm.rank();
  // Self-recovery, before queueing on the inner lock: if a previous
  // incarnation of this process crashed holding the lease and has since
  // restarted, every other claimant sees a live-again owner and waits for
  // a release that will never come — while this process would queue
  // *behind* the current inner-lock holder, deadlocking the lock. Fence
  // the orphan first (a legitimately held lease can never be observed
  // here: acquire-while-holding is a caller bug), which also wakes any
  // claimant parked on the lease word. A CAS failure means a racing
  // recovery sweep already fenced it — equally done.
  const i64 pre = comm.get(params_.home, lease_);
  comm.flush(params_.home);
  if (owner_of(pre) == me) {
    comm.cas(pack(epoch_of(pre) + 1, kNilRank), pre, params_.home, lease_);
  }
  inner_->acquire(comm);
  for (;;) {
    const i64 word = comm.get(params_.home, lease_);
    comm.flush(params_.home);
    const i64 epoch = epoch_of(word);
    const Rank owner = owner_of(word);
    if (owner != kNilRank && owner != me && !comm.suspected(owner)) {
      // Live owner: keep polling the lease word. The runtime parks us and
      // wakes on the owner's release write — or on a crash event, which
      // returns the get so this loop re-evaluates suspicion.
      continue;
    }
    // Free, our own previous incarnation's orphan, or a suspected-dead
    // owner's lease. A free take always starts a fresh epoch; a reclaim
    // fences the old owner by bumping it (unless the planted bug is on).
    const i64 next_epoch =
        (owner == kNilRank || params_.fence_on_steal) ? epoch + 1 : epoch;
    if (comm.cas(pack(next_epoch, me), word, params_.home, lease_) == word) {
      inner_->release(comm);
      return next_epoch;
    }
    // Lost a race with a release or a recovery sweep: re-probe.
  }
}

AcquireResult LeaseExclusive::try_acquire_for(rma::RmaComm& comm,
                                              Nanos deadline_ns,
                                              const RetryPolicy& retry) {
  const Rank me = comm.rank();
  return retry_until(comm, deadline_ns, retry, [&] {
    // Deadline-bounded probe of the lease word. Unlike acquire_epoch we
    // never queue on the inner lock: a timed claimant must hold nothing on
    // timeout, and the inner queue would strand us behind a gray holder —
    // exactly what the deadline exists to escape. The cost is CAS
    // contention between concurrent timed claimants, which the backoff
    // absorbs.
    const rma::TryResult probe =
        comm.try_get(params_.home, lease_, deadline_ns);
    if (!probe.ok()) return false;
    const i64 word = probe.value;
    const i64 epoch = epoch_of(word);
    const Rank owner = owner_of(word);
    if (owner != kNilRank && owner != me && !comm.suspected(owner)) {
      return false;
    }
    // Same fencing rule as acquire_epoch: a free take or a reclaim
    // (including our own restarted orphan) starts a fresh epoch, so a
    // timed grant composes with epoch fencing exactly like a blocking one
    // and release() applies unchanged.
    const i64 next_epoch =
        (owner == kNilRank || params_.fence_on_steal) ? epoch + 1 : epoch;
    const rma::TryResult claim = comm.try_cas(pack(next_epoch, me), word,
                                              params_.home, lease_,
                                              deadline_ns);
    return claim.ok() && claim.value == word;
  });
}

void LeaseExclusive::release(rma::RmaComm& comm) {
  const Rank me = comm.rank();
  const i64 word = comm.get(params_.home, lease_);
  comm.flush(params_.home);
  if (owner_of(word) != me) {
    // Fenced: a recovery reclaimed our lease (we were suspected dead).
    // Nothing to undo — the bumped epoch already invalidated this hold.
    return;
  }
  // Keep the epoch on release; the next grant bumps it. A CAS failure here
  // means we were fenced between the read and the swap — equally quiet.
  comm.cas(pack(epoch_of(word), kNilRank), word, params_.home, lease_);
}

bool LeaseExclusive::recover_orphan(rma::RmaComm& comm) {
  const i64 word = comm.get(params_.home, lease_);
  comm.flush(params_.home);
  const Rank owner = owner_of(word);
  if (owner == kNilRank || !comm.suspected(owner)) return false;
  return comm.cas(pack(epoch_of(word) + 1, kNilRank), word, params_.home,
                  lease_) == word;
}

i64 LeaseExclusive::lease_word(const rma::World& world) const {
  return world.read_word(params_.home, lease_);
}

std::string LeaseExclusive::name() const {
  std::string name = "Lease<" + inner_->name() + ">";
  if (!params_.fence_on_steal) name += " (no fence)";
  return name;
}

}  // namespace rmalock::locks
