// DistributedTree — the DQ + DT machinery shared by RMA-MCS and RMA-RW
// (§3.2.2, §3.2.3; Listings 4-5).
//
// One D-MCS queue (DQ) exists per machine element per level; all DQs form a
// tree (DT) mirroring the machine. Queue entries:
//
//   * at the leaf level q = N, processes enqueue their own per-process
//     queue node (NEXT/STATUS words in their own window);
//   * at levels q < N, what queues up are *elements* of level q+1: each such
//     element owns one statically-placed queue node hosted in the window of
//     its representative rank (the element's lowest rank). Whichever process
//     currently acts for the element uses that shared node.
//
// The per-element nodes are the detail that makes the paper's protocols
// well-defined: the process that releases a level upward (Listing 5 line 12)
// is generally *not* the process that enqueued there (the paper's own Fig. 2
// walkthrough: W_x releases level 2 where W1 enqueued), so the node must
// belong to the element — the design of Chabbi et al.'s HMCS, which §2.3.2
// cites as DT's basis (see DESIGN.md §2.2). Queue entries are encoded as the
// *host rank* of the enqueued node; with per-level offsets that identifies
// the node uniquely.
//
// The paper's correctness argument (§4.1) applies: within one element, only
// the current local winner climbs, so an element's node is used by at most
// one process at a time.
#pragma once

#include <optional>
#include <vector>

#include "locks/status.hpp"
#include "rma/world.hpp"
#include "topo/topology.hpp"

namespace rmalock::locks {

class DistributedTree {
 public:
  /// Collective: allocates NEXT/STATUS/TAIL words for every level.
  explicit DistributedTree(rma::World& world);

  [[nodiscard]] i32 num_levels() const { return topo_.num_levels(); }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  // --- tree walks ----------------------------------------------------------
  // The leaf-to-root protocols of RMA-MCS and RMA-RW's writers. Levels are
  // walked here and nowhere else; the locks supply only what differs at
  // the root.

  /// Blocking climb (Listing 4 at each level) from the leaf level N up to
  /// level `top`. Returns true as soon as the lock is passed to the caller
  /// within an element — it then holds the global lock (the element keeps
  /// its positions above that level). Returns false when the caller won
  /// every level N..top as its element's representative.
  bool climb(rma::RmaComm& comm, i32 top);

  /// Timed climb from the leaf up to level `top`: try_enqueue_level at each
  /// level, so the caller never waits behind a predecessor. True iff every
  /// level N..top was won. On a miss at level q nothing was enqueued there;
  /// the levels already won are left again (unwind(q + 1)) through the
  /// normal release-upward handoff — any successor that meanwhile enqueued
  /// behind the caller is told to acquire the parent level itself — and
  /// the caller holds nothing.
  bool try_climb(rma::RmaComm& comm, i32 top);

  /// Listing 5: descend from the leaf; the first level q >= 2 where a
  /// successor exists and T_L,q = locality[q-1] is not exhausted takes the
  /// lock locally. If no level does, `release_root()` releases the root
  /// queue. Then every level below the one released is left (unwind).
  template <typename ReleaseRoot>
  void release(rma::RmaComm& comm, const std::vector<i64>& locality,
               ReleaseRoot&& release_root) {
    const i32 q = pass_locally(comm, locality);
    if (q == 1) release_root();
    unwind(comm, q + 1);
  }

  /// Leaves levels `from`..N, in that order, after the level above them
  /// was released (or never won): finish_release_upward at each.
  void unwind(rma::RmaComm& comm, i32 from);

  // --- one level -----------------------------------------------------------

  /// Result of an acquire attempt at one level.
  struct LevelClaim {
    /// True: the lock was passed within this element — the caller holds the
    /// *global* lock and `status` carries the count of consecutive local
    /// acquires. False: the caller became the element's representative and
    /// must acquire the parent level (its STATUS is set to ACQUIRE_START).
    bool acquired = false;
    i64 status = kStatusAcquireStart;
  };

  /// Listing 4 for queue level q: enqueue into the DQ of the caller's
  /// element at level q, spin until the predecessor passes the lock or
  /// tells us to climb.
  LevelClaim acquire_level(rma::RmaComm& comm, i32 q);

  /// The MCS enqueue of Listing 4 (and of Listing 7 at the root): reset the
  /// caller's node, swap it into the level-q tail, link behind any
  /// predecessor and spin until it writes our STATUS. Returns that STATUS,
  /// or nullopt when the DQ was empty (no predecessor to wait for).
  std::optional<i64> enqueue_and_wait(rma::RmaComm& comm, i32 q);

  /// Sets the caller's level-q STATUS to ACQUIRE_START: it is the element's
  /// representative with a fresh pass count.
  void start_count(rma::RmaComm& comm, i32 q);

  /// Listing 5 lines 13-23: leave the DQ at level q after the parent level
  /// has been released; any (possibly just-arrived) successor is told to
  /// acquire the parent level itself.
  void finish_release_upward(rma::RmaComm& comm, i32 q) {
    leave(comm, q, kStatusAcquireParent);
  }

  /// Leaves the DQ at level q, handing any (possibly just-arrived)
  /// successor `signal` as its STATUS.
  void leave(rma::RmaComm& comm, i32 q, i64 signal);

  /// The MCS queue exit at level q. `succ` is the caller's last read of its
  /// node's NEXT. A known successor is returned as is. Otherwise the tail
  /// is swung back to nil by CAS: kNilRank means the DQ is empty and the
  /// caller has left it; if an entry is mid-enqueue, waits until it links
  /// in behind the caller and returns it.
  [[nodiscard]] i64 leave_or_await_successor(rma::RmaComm& comm, i32 q,
                                             i64 succ);

  /// Full release of the root queue for exclusive (RMA-MCS) semantics:
  /// pass to a successor with the incremented count (no threshold — §3.5:
  /// T_L,1 is not applicable without readers), or empty the queue.
  void release_root_exclusive(rma::RmaComm& comm);

  // --- the caller's node at one level --------------------------------------

  /// Reads the caller's level-q STATUS (the pass count while it holds).
  [[nodiscard]] i64 own_status(rma::RmaComm& comm, i32 q);
  /// Reads the caller's level-q NEXT (kNilRank: no known successor).
  [[nodiscard]] i64 own_successor(rma::RmaComm& comm, i32 q);
  /// Writes `value` into successor `succ`'s level-q STATUS.
  void notify(rma::RmaComm& comm, i64 succ, i32 q, i64 value);

  /// The root-tail probe of RMA-RW's readers (Listing 9): true iff no
  /// writer is queued at the root.
  [[nodiscard]] bool root_queue_empty(rma::RmaComm& comm);

  // --- placement ---------------------------------------------------------

  /// Host rank of the queue node the caller uses when enqueuing at queue
  /// level q: itself at the leaf level, the representative of its level-q+1
  /// element above.
  [[nodiscard]] Rank node_host(Rank p, i32 q) const {
    if (q == num_levels()) return p;
    return topo_.rep_rank(q + 1, topo_.element_of(p, q + 1));
  }

  /// The paper's tail_rank[q, e(p,q)]: rank hosting the TAIL pointer of the
  /// DQ serving p's element at level q.
  [[nodiscard]] Rank tail_host(Rank p, i32 q) const {
    return topo_.rep_rank(q, topo_.element_of(p, q));
  }

  [[nodiscard]] WinOffset next_offset(i32 q) const {
    return next_[static_cast<usize>(q - 1)];
  }
  [[nodiscard]] WinOffset status_offset(i32 q) const {
    return status_[static_cast<usize>(q - 1)];
  }
  [[nodiscard]] WinOffset tail_offset(i32 q) const {
    return tail_[static_cast<usize>(q - 1)];
  }

 private:
  /// Timed-acquire building block: CAS-if-empty enqueue at level q. Enters
  /// the DQ only when it is empty (tail == nil), so the caller never waits
  /// behind a predecessor — the unbounded spin of acquire_level is replaced
  /// by an instant succeed-or-fail attempt. On success the caller is the
  /// element's representative with STATUS = ACQUIRE_START, exactly like a
  /// contention-free acquire_level winner, so the normal release paths
  /// apply unchanged. On failure nothing was enqueued. The exclusivity
  /// argument for the shared element node is the same as acquire_level's:
  /// callers attempt level q only after winning level q+1.
  bool try_enqueue_level(rma::RmaComm& comm, i32 q);

  /// The descent of release(): try_pass_local at levels N..2; returns the
  /// level that passed the lock, or 1 if none did.
  i32 pass_locally(rma::RmaComm& comm, const std::vector<i64>& locality);

  /// Listing 5 lines 2-9: if a successor exists at level q and the locality
  /// threshold `tl` is not reached, pass the lock (with the incremented
  /// count) and return true — the release is complete. Otherwise return
  /// false: the caller must release the parent level first and then call
  /// finish_release_upward(q).
  bool try_pass_local(rma::RmaComm& comm, i32 q, i64 tl);

  topo::Topology topo_;
  // Window offsets, one triple per level (index q-1).
  std::vector<WinOffset> next_;
  std::vector<WinOffset> status_;
  std::vector<WinOffset> tail_;
};

}  // namespace rmalock::locks
