// TimedLease — wall-clock leases with end-to-end fencing tokens.
//
// LeaseExclusive recovers crashed owners through the failure detector
// (RmaComm::suspected). Real deployments often have no detector at all and
// instead bound ownership by *time*: a grant is valid for `kDurationNs` on
// the holder's clock, and a claimant may reclaim the lease once it has
// watched the same hold for `kDurationNs + safety_margin_ns` on its *own*
// clock. That protocol is only as safe as the clocks: a paused or
// drift-slow holder still believes its lease valid while a drift-fast
// claimant has already reclaimed it — the classic distributed-lease hazard
// (Kleppmann's "How to do distributed locking" fencing argument).
//
// TimedLease therefore makes the grant epoch a *fencing token* that travels
// with the holder to the resource: every grant — free take or time-based
// reclaim — bumps the epoch, and the protected resource
// (LockSpace::write_payload_fenced) rejects writes carrying a token older
// than the newest it has admitted. End to end, a stale holder's write fails
// at the resource even though the holder itself never noticed the reclaim.
//
// Two knobs exist to plant the classic bugs for the model checker
// (mc::drift_workload, bench/mc_verification.cpp):
//
//   * safety_margin_ns == 0 trusts the local clocks outright: safe under
//     perfect clocks, violated under SimOptions::max_drift_events — a slow
//     holder and a fast claimant overlap inside the drift window.
//   * Skipping the token check at the resource (LockSpaceConfig::
//     skip_token_check) re-opens the hazard even with a correct margin,
//     because margins only *shrink* the overlap window; fencing is what
//     closes it.
//
// The margin needed under bounded drift: with rate error ±ρ‰ and skew steps
// of ±W, a holder's duration stretches to ~D·(1000+ρ)/1000 of real time
// while a claimant's observation of D+M shrinks to ~(D+M)·(1000−ρ)/1000, so
// M ≳ D·2ρ/(1000−ρ) plus a few W of slop. The defaults (D = M = 40 µs with
// ρ = 200‰, W = 2 µs) leave comfortable room on the safe side.
//
// Unlike the queue locks, a timed claimant must keep its own clock running
// to notice expiry, so the wait loop never blocks on the lease word (a
// parked waiter only wakes when the word is *written* — which a paused
// holder by definition never does). Probes use fetch-and-add of zero, which
// the simulator does not poll-park, interleaved with compute() so virtual
// time advances.
#pragma once

#include <vector>

#include "locks/lease.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {

struct TimedLeaseParams {
  /// Rank hosting the lease word.
  Rank home = 0;
  /// Extra time beyond kDurationNs a claimant must observe an unchanged
  /// hold (on its *own* clock) before reclaiming. 0 plants the
  /// trust-the-clocks bug for model-checking true positives.
  Nanos safety_margin_ns = 40'000;
};

class TimedLease final : public ExclusiveLock {
 public:
  /// Lease validity on the *holder's* clock, from the grant.
  static constexpr Nanos kDurationNs = 40'000;
  /// Local compute between expiry probes of a waiting claimant.
  static constexpr Nanos kProbeNs = 2'000;
  /// Fixed real-time allowance for the holder's in-flight last write: a
  /// well-behaved client checks still_valid and THEN writes, so its final
  /// write can land up to one op-pipeline past its belief boundary even
  /// with perfect clocks. The claimant waits this much extra before
  /// reclaiming. Deliberately NOT part of safety_margin_ns — the margin
  /// compensates clock error (and margin = 0 is the planted trusts-the-
  /// clocks bug), while this grace covers network/op latency that exists
  /// even when every clock is true.
  static constexpr Nanos kReclaimGraceNs = 5'000;

  /// Collective: allocates and initializes the lease word.
  TimedLease(rma::World& world, TimedLeaseParams params);

  void acquire(rma::RmaComm& comm) override { (void)acquire_token(comm); }
  void release(rma::RmaComm& comm) override;
  [[nodiscard]] std::string name() const override;

  /// acquire() returning the grant's fencing token (the bumped epoch).
  /// The caller passes it to token-validating resources
  /// (LockSpace::write_payload_fenced) and to safety monitors.
  [[nodiscard]] i64 acquire_token(rma::RmaComm& comm);

  /// Purely local validity check — no RMA, no yields, no decision points:
  /// true iff this process's latest grant is still inside kDurationNs on
  /// its own (possibly drifting) clock. This is the holder's *belief*, not
  /// ground truth; believing a stale lease valid is exactly the state the
  /// fencing token defends against.
  [[nodiscard]] bool still_valid(rma::RmaComm& comm) const;

  /// The fencing token of `rank`'s latest grant (0 before any grant).
  [[nodiscard]] i64 token(Rank rank) const {
    return grants_[static_cast<usize>(rank)].token;
  }

  [[nodiscard]] const TimedLeaseParams& params() const { return params_; }

  // The lease word reuses LeaseExclusive's (epoch << kOwnerBits) | (owner+1)
  // packing, so monitors and tests decode both lease families with one
  // helper set.
  [[nodiscard]] static i64 pack(i64 epoch, Rank owner) {
    return LeaseExclusive::pack(epoch, owner);
  }
  [[nodiscard]] static i64 epoch_of(i64 word) {
    return LeaseExclusive::epoch_of(word);
  }
  [[nodiscard]] static Rank owner_of(i64 word) {
    return LeaseExclusive::owner_of(word);
  }

  // Post-run introspection for tests (read through World, not RmaComm).
  [[nodiscard]] i64 lease_word(const rma::World& world) const;

 private:
  /// Per-process grant record. Strictly process-local state (each rank only
  /// ever touches its own entry), kept outside the window because no other
  /// process may read it: a grant's local timestamp is meaningless on any
  /// other clock — comparing it across ranks is the bug this lock's
  /// campaigns exist to catch.
  struct Grant {
    i64 token = 0;
    Nanos granted_at = 0;  // local_now_ns() at the grant
  };

  /// One atomic probe of the lease word that the simulator never
  /// poll-parks (see the header comment).
  [[nodiscard]] i64 probe(rma::RmaComm& comm) const;

  TimedLeaseParams params_;
  WinOffset lease_ = -1;
  std::vector<Grant> grants_;
};

}  // namespace rmalock::locks
