#include "locks/fompi_spin.hpp"

namespace rmalock::locks {

namespace {
constexpr i64 kFree = 0;
constexpr i64 kHeld = 1;
}  // namespace

FompiSpin::FompiSpin(rma::World& world, Rank home)
    : home_(home), word_(world.allocate(1, kFree)) {}

void FompiSpin::acquire(rma::RmaComm& comm) {
  for (;;) {
    // Test: spin on a plain Get until the word looks free (cheaper than
    // hammering CAS, and the only remote-atomic traffic is the claim).
    i64 observed = kHeld;
    do {
      observed = comm.get(home_, word_);
      comm.flush(home_);
    } while (observed != kFree);
    // Test-and-set: claim the word.
    const i64 previous = comm.cas(kHeld, kFree, home_, word_);
    comm.flush(home_);
    if (previous == kFree) return;
    // Lost the race; brief randomized backoff de-synchronizes the herd.
    comm.compute(comm.rng().range(100, 400));
  }
}

void FompiSpin::release(rma::RmaComm& comm) {
  comm.iput(kFree, home_, word_);
  comm.flush(home_);
}

}  // namespace rmalock::locks
