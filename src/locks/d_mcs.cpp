#include "locks/d_mcs.hpp"

namespace rmalock::locks {

DMcs::DMcs(rma::World& world, Rank tail_rank)
    : tree_(world, topo::Topology::uniform({}, world.nprocs()), tail_rank) {}

// Listing 2.
void DMcs::acquire(rma::RmaComm& comm) { tree_.enqueue_and_wait(comm, 1); }

// Listing 3: a successor is handed STATUS = ACQUIRE_START, its permission
// to enter.
void DMcs::release(rma::RmaComm& comm) {
  tree_.leave(comm, 1, kStatusAcquireStart);
}

}  // namespace rmalock::locks
