// RMA-MCS — the topology-aware distributed MCS lock (§3.5).
//
// RMA-MCS is the distributed tree of queues (DT) without the distributed
// counter: writers-only semantics. A process acquires the D-MCS queue of
// its own element at every level from the leaves (level N) towards the
// root; if the lock is passed to it within an element before it reaches
// the root, it enters the CS immediately (the locality shortcut). On
// release, the lock stays inside an element until that level's locality
// threshold T_L,q is exhausted, then moves to the enclosing element —
// trading fairness for drastically fewer expensive inter-element (e.g.,
// inter-node) lock transfers.
//
// T_L,1 does not apply (§3.5): the root has no parent and no readers, so
// root passes are unbounded.
#pragma once

#include <vector>

#include "locks/dtree.hpp"
#include "locks/lock.hpp"

namespace rmalock::locks {

struct RmaMcsParams {
  /// T_L,q for q = 1..N (index q-1). The root entry is ignored (§3.5).
  /// Levels with expensive transfers (higher in the machine) deserve
  /// larger thresholds (§6 "Selecting RMA-RW Parameters").
  std::vector<i64> locality;

  static RmaMcsParams defaults(const topo::Topology& topo) {
    RmaMcsParams p;
    p.locality.assign(static_cast<usize>(topo.num_levels()), 16);
    return p;
  }
};

class RmaMcs final : public ExclusiveLock {
 public:
  /// Collective. Pass params with `locality[q-1]` = T_L,q.
  RmaMcs(rma::World& world, RmaMcsParams params);
  explicit RmaMcs(rma::World& world)
      : RmaMcs(world, RmaMcsParams::defaults(world.topology())) {}

  void acquire(rma::RmaComm& comm) override;
  void release(rma::RmaComm& comm) override;
  /// Timed acquire: DistributedTree::try_climb to the root under
  /// retry_until — never waits behind a predecessor, so a gray (straggling
  /// or partitioned) holder cannot strand the caller in a queue. A failed
  /// climb leaves the already-won levels and retries with backoff until
  /// the deadline. A successful claim is indistinguishable from a
  /// contention-free acquire(), so release() applies unchanged.
  AcquireResult try_acquire_for(rma::RmaComm& comm, Nanos deadline_ns,
                                const RetryPolicy& retry) override;
  [[nodiscard]] std::string name() const override { return "RMA-MCS"; }

  [[nodiscard]] const RmaMcsParams& params() const { return params_; }
  [[nodiscard]] const DistributedTree& tree() const { return tree_; }

 private:
  DistributedTree tree_;
  RmaMcsParams params_;
};

}  // namespace rmalock::locks
