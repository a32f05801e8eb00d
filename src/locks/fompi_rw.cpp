#include "locks/fompi_rw.hpp"

#include "locks/status.hpp"

namespace rmalock::locks {

FompiRw::FompiRw(rma::World& world, Rank home)
    : home_(home), word_(world.allocate(1)) {}

void FompiRw::acquire_read(rma::RmaComm& comm) {
  for (;;) {
    // Wait until no writer is present before generating atomic traffic.
    i64 observed = kWriteFlag;
    do {
      observed = comm.get(home_, word_);
      comm.flush(home_);
    } while (observed >= kWriteFlag);
    const i64 previous = comm.fao(1, home_, word_, rma::AccumOp::kSum);
    comm.flush(home_);
    if (previous < kWriteFlag) return;  // no writer: we are in
    // A writer slipped in; undo our registration and retry.
    comm.iaccumulate(-1, home_, word_, rma::AccumOp::kSum);
    comm.flush(home_);
    comm.compute(comm.rng().range(100, 400));
  }
}

void FompiRw::release_read(rma::RmaComm& comm) {
  comm.iaccumulate(-1, home_, word_, rma::AccumOp::kSum);
  comm.flush(home_);
}

void FompiRw::acquire_write(rma::RmaComm& comm) {
  for (;;) {
    // A writer may only claim a completely empty word (no readers, no
    // writer), so spin until it reads zero.
    i64 observed = 1;
    do {
      observed = comm.get(home_, word_);
      comm.flush(home_);
    } while (observed != 0);
    const i64 previous = comm.cas(kWriteFlag, 0, home_, word_);
    comm.flush(home_);
    if (previous == 0) return;
    comm.compute(comm.rng().range(100, 400));
  }
}

void FompiRw::release_write(rma::RmaComm& comm) {
  // Subtract the flag instead of storing zero: concurrent reader FAO(+1)
  // registrations that are about to back off must not be erased.
  comm.iaccumulate(-kWriteFlag, home_, word_, rma::AccumOp::kSum);
  comm.flush(home_);
}

}  // namespace rmalock::locks
