#include "locks/rma_rw.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

RmaRw::RmaRw(rma::World& world, RmaRwParams params)
    : tree_(world),
      params_(std::move(params)),
      counter_hosts_(
          world.topology().counter_hosts(params_.tdc, params_.home)),
      arrive_(world.allocate(1)),
      depart_(world.allocate(1)) {
  RMALOCK_CHECK_MSG(params_.home >= 0 && params_.home < world.nprocs(),
                    "RmaRwParams::home=" << params_.home << " outside [0, "
                                         << world.nprocs() << ")");
  RMALOCK_CHECK_MSG(params_.locality.size() ==
                        static_cast<usize>(tree_.num_levels()),
                    "RmaRwParams::locality needs one threshold per level");
  for (const i64 t : params_.locality) {
    RMALOCK_CHECK_MSG(t >= 1, "T_L must be >= 1 at every level");
  }
  RMALOCK_CHECK_MSG(params_.tr >= 1, "T_R must be >= 1");
  RMALOCK_CHECK_MSG(params_.tr < kWriteFlagThreshold / 2,
                    "T_R too large for the WRITE-flag encoding");
}

// ---------------------------------------------------------------------------
// Counter manipulation (Listing 6)
// ---------------------------------------------------------------------------

void RmaRw::set_counters_to_write(rma::RmaComm& comm) {
  // Raise the WRITE flag on every counter: blocks new readers (their FAO
  // result jumps past T_R, so they back off). The flags are independent, so
  // issue them all nonblocking and complete them in one flush round: the
  // broadcast pipelines in the NIC and costs ~1 round trip + one injection
  // slot per counter instead of one full round trip per counter.
  for (const Rank host : counter_hosts_) {
    comm.iaccumulate(kWriteFlag, host, arrive_, rma::AccumOp::kSum);
  }
  for (const Rank host : counter_hosts_) {
    comm.flush(host);
  }
}

bool RmaRw::drain_readers(rma::RmaComm& comm, Nanos deadline_ns,
                          u32 max_polls) {
  // §4.1: after changing all counters the writer "checks each counter
  // again for active readers" — wait until every reader that slipped in
  // before the flag has left the CS (ARRIVE - flag == DEPART; back-offs
  // cancel their own arrivals). Each poll reads the pair with two pipelined
  // gets completed by one flush: one round trip, not two.
  for (const Rank host : counter_hosts_) {
    for (u32 polls = 1;; ++polls) {
      if (polls > max_polls ||
          (deadline_ns != kNoDeadline && comm.now_ns() >= deadline_ns)) {
        return false;
      }
      const i64 arrived = comm.iget(host, arrive_);
      const i64 departed = comm.iget(host, depart_);
      comm.flush(host);
      if (arrived < kWriteFlagThreshold) {
        // Defensive self-healing: the flag can only disappear through a
        // counter reset; re-apply and re-check (cannot fire with the
        // flag-preserving reader reset, see DESIGN.md §2.5).
        comm.iaccumulate(kWriteFlag, host, arrive_, rma::AccumOp::kSum);
        comm.flush(host);
        continue;
      }
      if (arrived - kWriteFlag == departed) break;
    }
  }
  return true;
}

void RmaRw::reset_counters(rma::RmaComm& comm) {
  // Pipelined, in the *original* per-host op order (read, read, clear
  // DEPART, clear ARRIVE — so recorded schedules keep replaying
  // bit-identically over this path, see tests/mc/test_replay_compat.cpp);
  // the two reads share one flush.
  //
  // Per counter the invariant is unchanged: DEPART is cleared *before*
  // ARRIVE drops below the flag threshold — once readers can run again, a
  // reader-side reset may claim the DEPART quantum by CAS (see
  // reader_reset_counter); clearing it first means such a claim can only
  // see 0 and back off, never double-subtract. The flush between the two
  // iaccumulates pins that ordering (it is the nonblocking ops' ordering
  // point). Only the ARRIVE clear's acknowledgement is deferred: it
  // overlaps with the next counter's reads and is collected by the
  // trailing flush round.
  for (const Rank host : counter_hosts_) {
    const i64 arrived = comm.iget(host, arrive_);
    const i64 departed = comm.iget(host, depart_);
    comm.flush(host);
    i64 sub_arrive = -departed;
    if (arrived >= kWriteFlagThreshold) {
      sub_arrive -= kWriteFlag;  // reset the WRITE mode if it was set
    }
    comm.iaccumulate(-departed, host, depart_, rma::AccumOp::kSum);
    comm.flush(host);  // DEPART cleared before ARRIVE moves
    comm.iaccumulate(sub_arrive, host, arrive_, rma::AccumOp::kSum);
  }
  for (const Rank host : counter_hosts_) {
    comm.flush(host);
  }
}

void RmaRw::reader_reset_counter(rma::RmaComm& comm, Rank counter) {
  if (params_.paper_faithful_reader_reset) {
    // Listing 6's reset_counter verbatim — subtracts the WRITE flag if it
    // is set, which admits the mutual-exclusion race of DESIGN.md §2.5.
    const i64 arrived = comm.iget(counter, arrive_);
    const i64 departed = comm.iget(counter, depart_);
    comm.flush(counter);
    i64 sub_arrive = -departed;
    if (arrived >= kWriteFlagThreshold) sub_arrive -= kWriteFlag;
    comm.accumulate(sub_arrive, counter, arrive_, rma::AccumOp::kSum);
    comm.accumulate(-departed, counter, depart_, rma::AccumOp::kSum);
    comm.flush(counter);
    return;
  }
  // Reclaim the departed quantum exactly once: claim DEPART by CAS'ing it
  // to zero, then subtract the claimed amount from ARRIVE. Blind paired
  // subtraction (the literal Listing 6 shape) is not safe once resets are
  // concurrent (DESIGN.md §2.6): two resetters reading the same DEPART
  // both subtract it, the words go negative, and subsequent resets of
  // negative values swing ARRIVE with growing amplitude — eventually into
  // the WRITE-flag range with no writer around to clear it. The CAS claim
  // also never touches the WRITE flag, so a reader whose "no writers
  // waiting" check went stale cannot erase a just-arrived writer's flag
  // (DESIGN.md §2.5).
  const i64 departed = comm.get(counter, depart_);
  comm.flush(counter);
  if (departed <= 0) return;  // nothing to reclaim (or already claimed)
  const i64 previous = comm.cas(0, departed, counter, depart_);
  comm.flush(counter);
  if (previous != departed) return;  // another resetter claimed it
  comm.iaccumulate(-departed, counter, arrive_, rma::AccumOp::kSum);
  comm.flush(counter);
}

// ---------------------------------------------------------------------------
// Readers (Listings 9 / 10)
// ---------------------------------------------------------------------------

void RmaRw::acquire_read(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquireRead);
    const Rank counter = counter_of(comm.rank());
    bool barrier = false;
    for (;;) {
      if (barrier) {
        // Wait for the counter to come back under T_R. Listing 9 waits
        // passively, relying on the exact T_R-th arrival to have performed
        // the reset — but concurrent back-off decrements can reorder the
        // observed FAO values so that *no* reader sees exactly T_R while
        // the root queue is empty, leaving ARRIVE stuck at >= T_R forever
        // (see DESIGN.md §2.6). Backed-off readers therefore share the
        // reset duty: whoever observes a plain (unflagged) T_R overrun with
        // no writer queued reclaims the departed count (exactly once, via
        // the CAS claim in reader_reset_counter).
        for (;;) {
          const i64 current = comm.get(counter, arrive_);
          comm.flush(counter);
          if (current < params_.tr) break;  // counter reopened
          // T_R overrun, no WRITE flag, no waiting writers: reopen
          // ourselves. Otherwise a writer is queued: it will flag, drain,
          // and reset.
          if (current < kWriteFlagThreshold && tree_.root_queue_empty(comm)) {
            reader_reset_counter(comm, counter);
          }
        }
      }
      // Increment the arrival counter.
      const i64 current = comm.fao(1, counter, arrive_, rma::AccumOp::kSum);
      comm.flush(counter);
      if (current < params_.tr) break;  // admitted: we are in the CS
      // T_R reached (or WRITE mode).
      barrier = true;
      // The first to reach T_R passes the lock to the writers if any are
      // waiting at the root; with none waiting, keep reading.
      if (current == params_.tr && tree_.root_queue_empty(comm)) {
        reader_reset_counter(comm, counter);
        barrier = false;
      }
      // Back off and try again.
      comm.iaccumulate(-1, counter, arrive_, rma::AccumOp::kSum);
      comm.flush(counter);
    }
  }
  rma::obs_event(comm, obs::EventCode::kReadSection, obs::Phase::kBegin);
}

void RmaRw::release_read(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kReadSection, obs::Phase::kEnd);
  const Rank counter = counter_of(comm.rank());
  comm.iaccumulate(1, counter, depart_, rma::AccumOp::kSum);
  comm.flush(counter);
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

void RmaRw::acquire_write(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire);
    // Levels N..2 by Listing 4; unless the lock was passed to us within an
    // element on the way, take the root by Listing 7.
    if (!tree_.climb(comm, 2)) acquire_root_writer(comm);
  }
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kBegin);
}

// Listing 7.
void RmaRw::acquire_root_writer(rma::RmaComm& comm) {
  const std::optional<i64> status = tree_.enqueue_and_wait(comm, 1);
  // Writer-to-writer pass: the counters are already in WRITE mode and
  // `status` carries the root pass count.
  if (status.has_value() && *status != kStatusModeChange) return;
  // No predecessor, or it handed us MODE_CHANGE: the readers have the
  // lock; take it back.
  set_counters_to_write(comm);
  drain_readers(comm);
  tree_.start_count(comm, 1);
}

AcquireResult RmaRw::try_acquire_for(rma::RmaComm& comm, Nanos deadline_ns,
                                     const RetryPolicy& retry) {
  AcquireResult result{};
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire, /*a=*/1);
    result = retry_until(comm, deadline_ns, retry, [&] {
      if (!tree_.try_climb(comm, 1)) return false;
      // Sole entry at the root: take the lock from the readers, but bound
      // the drain by the deadline — a straggling reader must not convert
      // a timed acquire into an unbounded wait.
      set_counters_to_write(comm);
      if (drain_readers(comm, deadline_ns, RetryPolicy::kMaxAttempts)) return true;
      // Undo the claim. Reopen the counters first: the flags were ours,
      // and readers must not stay blocked by a writer that is giving up.
      // Then leave the root DQ, handing any successor MODE_CHANGE (the
      // readers hold the lock, exactly the signal a threshold-exhausted
      // release sends), and the levels below it.
      reset_counters(comm);
      tree_.leave(comm, 1, kStatusModeChange);
      tree_.unwind(comm, 2);
      return false;
    });
  }
  if (result.ok()) {
    rma::obs_event(comm, obs::EventCode::kCriticalSection,
                   obs::Phase::kBegin);
  }
  return result;
}

void RmaRw::release_write(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kEnd);
  tree_.release(comm, params_.locality, [&] { release_root_writer(comm); });
}

// Listing 8.
void RmaRw::release_root_writer(rma::RmaComm& comm) {
  // Count of consecutive root-level lock passes.
  i64 next_stat = tree_.own_status(comm, 1) + 1;
  if (next_stat >= params_.locality[0]) {
    // T_W reached: pass the lock to the readers.
    reset_counters(comm);
    next_stat = kStatusModeChange;
  }
  const i64 known = tree_.own_successor(comm, 1);
  if (known == kNilRank && next_stat != kStatusModeChange) {
    reset_counters(comm);  // no known successor: pass the lock to the readers
    next_stat = kStatusModeChange;
  }
  // Leave the DQ unless some writer has already entered it; with the queue
  // empty the readers have the lock.
  const i64 succ = tree_.leave_or_await_successor(comm, 1, known);
  // Pass the lock (or the MODE_CHANGE notification) to the successor.
  if (succ != kNilRank) tree_.notify(comm, succ, 1, next_stat);
}

}  // namespace rmalock::locks
