// Critical-section monitors used by the model checker and the test suite.
//
// The monitors verify the paper's §4 correctness properties from outside
// the lock: mutual exclusion is violated iff a writer enters while anyone
// is inside, or a reader enters while a writer is inside. Deadlock freedom
// is checked by the engine itself (SimWorld reports deadlocks), and
// starvation shows up as a step-limit hit with missing CS entries.
//
// CsMonitor relies on SimWorld's serialized execution (only one process
// runs between RMA calls); AtomicCsMonitor is its thread-safe counterpart
// for ThreadWorld stress tests.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <vector>

#include "common/types.hpp"

namespace rmalock::mc {

class CsMonitor {
 public:
  void enter_read() {
    if (writers_ != 0) ++violations_;
    ++readers_;
    ++entries_;
  }
  void exit_read() { --readers_; }

  void enter_write() {
    if (writers_ != 0 || readers_ != 0) ++violations_;
    ++writers_;
    ++entries_;
  }
  void exit_write() { --writers_; }

  // Exclusive locks enter as writers.
  void enter() { enter_write(); }
  void exit() { exit_write(); }

  [[nodiscard]] u64 violations() const { return violations_; }
  [[nodiscard]] u64 entries() const { return entries_; }

 private:
  i64 readers_ = 0;
  i64 writers_ = 0;
  u64 violations_ = 0;
  u64 entries_ = 0;
};

/// Safety monitor for lease/epoch locks (locks::LeaseExclusive): the
/// property is "never two owners in one epoch". Each grant enters with its
/// epoch; a violation is an enter while the same epoch is still active.
/// Crashed holders never exit — their epoch stays active forever — so a
/// recovery that re-grants a dead owner's epoch (the planted no-fence bug,
/// or a false suspicion reclaimed without fencing) is always caught, while
/// correctly fenced recoveries (fresh epoch per grant) never trip it.
///
/// Note the property is deliberately *not* "epochs grow monotonically":
/// under adversarial suspicion a thief's higher-epoch grant can reach the
/// monitor before the fenced victim's earlier grant does, which is benign.
/// Relies on SimWorld's serialized execution, like CsMonitor.
class EpochMonitor {
 public:
  void enter(i64 epoch) {
    ++entries_;
    if (active_[epoch]++ > 0) ++violations_;
  }
  void exit(i64 epoch) {
    auto it = active_.find(epoch);
    if (it != active_.end() && --it->second <= 0) active_.erase(it);
  }

  [[nodiscard]] u64 violations() const { return violations_; }
  [[nodiscard]] u64 entries() const { return entries_; }
  /// Epochs currently active (crashed holders keep theirs forever).
  [[nodiscard]] usize active() const { return active_.size(); }

 private:
  std::map<i64, i64> active_;
  u64 violations_ = 0;
  u64 entries_ = 0;
};

/// Consistency monitor for LockSpace's versioned optimistic reads. Write
/// sessions (serialized by the per-key write lock) stamp every payload word
/// with a per-key generation that only grows, storing the words in
/// ascending index order. Therefore any *single-instant* snapshot of the
/// payload is non-increasing along the word index — a fully quiescent
/// payload is all-equal, and a mid-write one is [new... old...]. An
/// observation where a LATER word carries a NEWER generation than an
/// earlier word cannot correspond to any instant: it is exactly the
/// signature of a torn (time-split) read that validation failed to reject.
/// Checking this property (rather than all-equal) is what keeps the
/// planted skip-validation bug invisible to torn-read-blind runs: without
/// the fault model, even the buggy reader only ever sees single-instant
/// snapshots.
class OptimisticReadMonitor {
 public:
  /// Records one returned payload; tallies a violation iff some earlier
  /// word is older than some later word.
  void record(const i64* payload, usize n) {
    ++reads_;
    for (usize i = 1; i < n; ++i) {
      if (payload[i - 1] < payload[i]) {
        ++violations_;
        return;
      }
    }
  }

  [[nodiscard]] u64 violations() const { return violations_; }
  [[nodiscard]] u64 reads() const { return reads_; }

 private:
  u64 reads_ = 0;
  u64 violations_ = 0;
};

/// Safety monitor for time-based leases with fencing tokens (TimedLease +
/// LockSpace::write_payload_fenced). Two properties fold into violations():
///
///   * Belief overlap — "never two believing holders": a session spans
///     from the grant until the holder first *observes* expiry (its next
///     still_valid() == false) or releases. Sessions are recorded as
///     *virtual-time* intervals and compared pairwise after the run: two
///     different ranks whose intervals strictly overlap mean the clocks let
///     two holders each think the lease theirs at the same instant. This is
///     what safety_margin_ns = 0 admits under drift (and what a sufficient
///     margin prevents) — it fires whether or not the resource ends up
///     rejecting the stale writes, because the *lease* already failed.
///     Comparing VT intervals (instead of call order) is only sound under
///     SchedPolicy::kVirtualTime, where per-process clocks advance along one
///     consistent global timeline; preemptive policies (kRandom/kPct) run
///     code out of virtual-time order, so "overlap" there would conflate
///     scheduler pauses with clock failures. Drift campaigns therefore pin
///     kVirtualTime and explore drift decisions as the adversary.
///   * Stale-token commit — an *accepted* write whose token is older than
///     a later-admitted session's token, in the order the *resource*
///     admitted them. Each accepted write reports the slot's session
///     sequence number (the low seq bits of the admitted version word);
///     sorting commits by seq recovers the slot's own admission order, which
///     is scheduling-robust — no execution-order artifact can invert it. An
///     inversion means the resource let a fenced-out holder mutate state:
///     with token checks on this never happens (the overlap above is caught
///     upstream instead); the planted skip_token_check bug is exactly this
///     property's true positive.
///
/// A write the resource rejects is not a violation — a fencing token doing
/// its job is the defense working, not the hazard. Relies on SimWorld's
/// serialized execution, like CsMonitor.
class WallClockLeaseMonitor {
 public:
  /// A believing session starts at virtual time `now`: the caller was just
  /// granted the lease (and a well-behaved client keeps writing only while
  /// still_valid()).
  void session_begin(Rank rank, Nanos now) {
    sessions_.push_back(Session{rank, now, now, /*open=*/true});
    open_[rank] = sessions_.size() - 1;
  }
  /// One payload write under the rank's current belief; `accepted` is
  /// write_payload_fenced's verdict (always true through the planted
  /// skip_token_check path and the unfenced write_payload baseline), `seq`
  /// the slot's admitted session sequence number for accepted writes
  /// (ignored when !accepted).
  void commit(i64 token, bool accepted, i64 seq = 0) {
    ++writes_;
    if (!accepted) return;
    commits_.push_back(Commit{seq, token});
  }
  /// The session ends at virtual time `now`: the holder released, was
  /// fenced out, or observed its own expiry.
  void session_end(Rank rank, Nanos now) {
    auto it = open_.find(rank);
    if (it == open_.end()) return;
    Session& s = sessions_[it->second];
    s.end = now;
    s.open = false;
    open_.erase(it);
  }

  /// Different-rank session pairs whose virtual-time intervals strictly
  /// overlap (a never-closed session extends to +inf).
  [[nodiscard]] u64 belief_overlaps() const {
    u64 overlaps = 0;
    for (usize i = 0; i < sessions_.size(); ++i) {
      for (usize j = i + 1; j < sessions_.size(); ++j) {
        const Session& a = sessions_[i];
        const Session& b = sessions_[j];
        if (a.rank == b.rank) continue;
        const Nanos a_end = a.open ? kForever : a.end;
        const Nanos b_end = b.open ? kForever : b.end;
        if (a.begin < b_end && b.begin < a_end) ++overlaps;
      }
    }
    return overlaps;
  }
  /// Token inversions in the resource's admission (seq) order.
  [[nodiscard]] u64 stale_commits() const {
    std::vector<Commit> ordered = commits_;
    std::sort(ordered.begin(), ordered.end(),
              [](const Commit& a, const Commit& b) { return a.seq < b.seq; });
    u64 stale = 0;
    i64 max_token = 0;
    for (const Commit& c : ordered) {
      if (c.token < max_token) ++stale;
      max_token = std::max(max_token, c.token);
    }
    return stale;
  }
  [[nodiscard]] u64 violations() const {
    return belief_overlaps() + stale_commits();
  }
  [[nodiscard]] u64 writes() const { return writes_; }

 private:
  static constexpr Nanos kForever = std::numeric_limits<Nanos>::max();
  struct Session {
    Rank rank;
    Nanos begin;
    Nanos end;
    bool open;
  };
  struct Commit {
    i64 seq;
    i64 token;
  };
  std::vector<Session> sessions_;
  std::map<Rank, usize> open_;
  std::vector<Commit> commits_;
  u64 writes_ = 0;
};

/// Progress monitor for deadline/retry acquire paths: a bounded-retry
/// progress witness. Every try_acquire_for reports its attempt count; the
/// monitor accumulates attempts per rank and resets on success. A correct
/// policy (capped exponential backoff) is *self-bounding* even under the
/// model checker's zero-latency network: each backoff advances the virtual
/// clock via compute(), so the deadline expires after ~10 attempts and a
/// round records a small, bounded count. A retry loop with no backoff
/// freezes the clock — the deadline never expires, the loop spins to the
/// RetryPolicy::kMaxAttempts valve, and the cumulative count blows past any
/// reasonable bound: that is a livelock, flagged when a rank exceeds
/// `bound` attempts without ever acquiring. Relies on SimWorld's
/// serialized execution, like CsMonitor.
class LivelockMonitor {
 public:
  explicit LivelockMonitor(u64 bound) : bound_(bound) {}

  void record(Rank rank, u32 attempts, bool acquired) {
    u64& cumulative = cumulative_[rank];
    cumulative += attempts;
    max_cumulative_ = std::max(max_cumulative_, cumulative);
    if (!acquired && cumulative > bound_) ++violations_;
    if (acquired) cumulative = 0;
  }

  [[nodiscard]] u64 violations() const { return violations_; }
  /// Largest attempts-without-success any rank accumulated (tests pin the
  /// correct-policy ceiling well below the bound).
  [[nodiscard]] u64 max_cumulative_attempts() const { return max_cumulative_; }

 private:
  u64 bound_;
  std::map<Rank, u64> cumulative_;
  u64 violations_ = 0;
  u64 max_cumulative_ = 0;
};

class AtomicCsMonitor {
 public:
  void enter_read() {
    // Encode (writers << 32 | readers) in one word so the check is atomic.
    const u64 state = state_.fetch_add(1, std::memory_order_acq_rel);
    if ((state >> 32) != 0) violations_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit_read() { state_.fetch_sub(1, std::memory_order_acq_rel); }

  void enter_write() {
    const u64 state =
        state_.fetch_add(u64{1} << 32, std::memory_order_acq_rel);
    if (state != 0) violations_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit_write() { state_.fetch_sub(u64{1} << 32, std::memory_order_acq_rel); }

  void enter() { enter_write(); }
  void exit() { exit_write(); }

  [[nodiscard]] u64 violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 entries() const {
    return entries_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> state_{0};
  std::atomic<u64> violations_{0};
  std::atomic<u64> entries_{0};
};

}  // namespace rmalock::mc
