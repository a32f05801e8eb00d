#include "locks/dtree.hpp"

#include <utility>

#include "common/check.hpp"

namespace rmalock::locks {

DistributedTree::DistributedTree(rma::World& world)
    : DistributedTree(world, world.topology(), 0) {}

DistributedTree::DistributedTree(rma::World& world, topo::Topology topology,
                                 Rank root_tail)
    : topo_(std::move(topology)), root_tail_(root_tail) {
  RMALOCK_CHECK_MSG(topo_.nprocs() == world.nprocs() && root_tail >= 0 &&
                        root_tail < world.nprocs(),
                    "tree topology or root tail does not fit the world");
  const i32 n = topo_.num_levels();
  next_.reserve(static_cast<usize>(n));
  status_.reserve(static_cast<usize>(n));
  tail_.reserve(static_cast<usize>(n));
  for (i32 q = 1; q <= n; ++q) {
    next_.push_back(world.allocate(1, kNilRank));
    status_.push_back(world.allocate(1, kStatusWait));
    tail_.push_back(world.allocate(1, kNilRank));
  }
}

bool DistributedTree::climb(rma::RmaComm& comm, i32 top) {
  for (i32 q = num_levels(); q >= top; --q) {
    if (acquire_level(comm, q).acquired) return true;
  }
  return false;
}

bool DistributedTree::try_climb(rma::RmaComm& comm, i32 top) {
  for (i32 q = num_levels(); q >= top; --q) {
    if (!try_enqueue_level(comm, q)) {
      unwind(comm, q + 1);
      return false;
    }
  }
  return true;
}

i32 DistributedTree::pass_locally(rma::RmaComm& comm,
                                  const std::vector<i64>& locality) {
  i32 q = num_levels();
  while (q >= 2 &&
         !try_pass_local(comm, q, locality[static_cast<usize>(q - 1)])) {
    --q;
  }
  return q;
}

void DistributedTree::unwind(rma::RmaComm& comm, i32 from) {
  for (i32 q = from; q <= num_levels(); ++q) {
    finish_release_upward(comm, q);
  }
}

// Listing 4.
DistributedTree::LevelClaim DistributedTree::acquire_level(rma::RmaComm& comm,
                                                           i32 q) {
  const std::optional<i64> status = enqueue_and_wait(comm, q);
  // If the predecessor released the lock to the parent level (T_L,q was
  // reached), we must acquire it there ourselves; otherwise the lock was
  // passed to us and we directly own the global lock.
  if (status.has_value() && *status != kStatusAcquireParent) {
    return LevelClaim{/*acquired=*/true, *status};
  }
  RMALOCK_CHECK_MSG(q > 1 || !status.has_value(),
                    "root must never delegate upward");
  // Start to acquire the next level of the tree.
  start_count(comm, q);
  return LevelClaim{/*acquired=*/false, kStatusAcquireStart};
}

std::optional<i64> DistributedTree::enqueue_and_wait(rma::RmaComm& comm,
                                                     i32 q) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  const WinOffset next = next_offset(q);
  const WinOffset status_off = status_offset(q);

  comm.iput(kNilRank, node, next);
  comm.iput(kStatusWait, node, status_off);
  comm.flush(node);
  // Enter the DQ at level q within this machine element.
  const Rank tail_rank = tail_host(p, q);
  const i64 pred = comm.fao(node, tail_rank, tail_offset(q),
                            rma::AccumOp::kReplace);
  comm.flush(tail_rank);
  if (pred == kNilRank) return std::nullopt;
  // Make the predecessor see us.
  comm.iput(node, static_cast<Rank>(pred), next);
  comm.flush(static_cast<Rank>(pred));
  i64 status = kStatusWait;
  do {  // wait until the predecessor passes the lock (or tells us to climb)
    status = comm.get(node, status_off);
    comm.flush(node);
  } while (status == kStatusWait);
  return status;
}

void DistributedTree::start_count(rma::RmaComm& comm, i32 q) {
  const Rank node = node_host(comm.rank(), q);
  comm.iput(kStatusAcquireStart, node, status_offset(q));
  comm.flush(node);
}

bool DistributedTree::try_enqueue_level(rma::RmaComm& comm, i32 q) {
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  // Prepare the node before publishing it: an empty-queue winner starts at
  // ACQUIRE_START directly (there is no predecessor to pass us anything).
  comm.iput(kNilRank, node, next_offset(q));
  comm.iput(kStatusAcquireStart, node, status_offset(q));
  comm.flush(node);
  const Rank tail_rank = tail_host(p, q);
  const i64 prev = comm.cas(node, kNilRank, tail_rank, tail_offset(q));
  comm.flush(tail_rank);
  return prev == kNilRank;
}

// Listing 5, lines 2-9.
bool DistributedTree::try_pass_local(rma::RmaComm& comm, i32 q, i64 tl) {
  const Rank node = node_host(comm.rank(), q);
  const i64 succ = comm.get(node, next_offset(q));
  const i64 status = comm.get(node, status_offset(q));
  comm.flush(node);
  if (succ != kNilRank && status < tl) {
    // Pass the lock to succ at this level together with the number of past
    // lock passings within this machine element.
    notify(comm, succ, q, status + 1);
    return true;
  }
  return false;
}

// Listing 5, lines 13-23 (as finish_release_upward: runs after the parent
// level has been released).
void DistributedTree::leave(rma::RmaComm& comm, i32 q, i64 signal) {
  const i64 succ = leave_or_await_successor(comm, q, own_successor(comm, q));
  if (succ != kNilRank) notify(comm, succ, q, signal);
}

i64 DistributedTree::leave_or_await_successor(rma::RmaComm& comm, i32 q,
                                              i64 succ) {
  if (succ != kNilRank) return succ;
  // Check whether some process has just enqueued itself.
  const Rank p = comm.rank();
  const Rank node = node_host(p, q);
  const Rank tail_rank = tail_host(p, q);
  const i64 current = comm.cas(kNilRank, node, tail_rank, tail_offset(q));
  comm.flush(tail_rank);
  if (current == node) return kNilRank;  // queue empty: fully dequeued
  do {  // otherwise wait until the successor makes itself visible
    succ = comm.get(node, next_offset(q));
    comm.flush(node);
  } while (succ == kNilRank);
  return succ;
}

void DistributedTree::release_root_exclusive(rma::RmaComm& comm) {
  const Rank node = node_host(comm.rank(), 1);
  const i64 known = comm.get(node, next_offset(1));
  const i64 status = comm.get(node, status_offset(1));
  comm.flush(node);
  const i64 succ = leave_or_await_successor(comm, 1, known);
  // Pass the root lock with the incremented count (never ACQUIRE_PARENT:
  // the root has no parent, and without readers no threshold applies).
  if (succ != kNilRank) notify(comm, succ, 1, status + 1);
}

i64 DistributedTree::own_status(rma::RmaComm& comm, i32 q) {
  const Rank node = node_host(comm.rank(), q);
  const i64 status = comm.get(node, status_offset(q));
  comm.flush(node);
  return status;
}

i64 DistributedTree::own_successor(rma::RmaComm& comm, i32 q) {
  const Rank node = node_host(comm.rank(), q);
  const i64 succ = comm.get(node, next_offset(q));
  comm.flush(node);
  return succ;
}

void DistributedTree::notify(rma::RmaComm& comm, i64 succ, i32 q,
                             i64 value) {
  comm.iput(value, static_cast<Rank>(succ), status_offset(q));
  comm.flush(static_cast<Rank>(succ));
}

bool DistributedTree::root_queue_empty(rma::RmaComm& comm) {
  const Rank tail_rank = tail_host(comm.rank(), 1);
  const i64 tail = comm.get(tail_rank, tail_offset(1));
  comm.flush(tail_rank);
  return tail == kNilRank;
}

}  // namespace rmalock::locks
