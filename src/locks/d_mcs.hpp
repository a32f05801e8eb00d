// D-MCS — the distributed topology-oblivious MCS lock (§2.4, Listings 2-3).
//
// Processes waiting for the lock form one queue that may span nodes. Each
// process exposes, in its window, a pointer to its successor (NEXT) and a
// spin flag (STATUS); a designated tail_rank additionally hosts the queue
// tail pointer (TAIL). A process enqueues with one FAO on TAIL, spins on
// its *own* STATUS word (local spinning, the MCS property), and is released
// by a single Put from its predecessor.
//
// D-MCS is both a comparison target and the building block of the
// topology-aware locks: every DQ in RMA-MCS/RMA-RW is a D-MCS queue. So
// D-MCS *is* the one-level DistributedTree (locks/dtree.hpp): the tree of
// a one-node machine spanning every rank, with its root TAIL on tail_rank.
// Listing 2 is the tree's enqueue_and_wait at level 1 and Listing 3 its
// leave.
#pragma once

#include "locks/dtree.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {

class DMcs final : public ExclusiveLock {
 public:
  /// Collective. `tail_rank` hosts the global tail pointer.
  explicit DMcs(rma::World& world, Rank tail_rank = 0);

  void acquire(rma::RmaComm& comm) override;
  void release(rma::RmaComm& comm) override;
  [[nodiscard]] std::string name() const override { return "D-MCS"; }

  [[nodiscard]] Rank tail_rank() const { return tree_.tail_host(0, 1); }

 private:
  DistributedTree tree_;
};

}  // namespace rmalock::locks
