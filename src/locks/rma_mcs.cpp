#include "locks/rma_mcs.hpp"

#include "common/check.hpp"

namespace rmalock::locks {

RmaMcs::RmaMcs(rma::World& world, RmaMcsParams params)
    : tree_(world), params_(std::move(params)) {
  RMALOCK_CHECK_MSG(params_.locality.size() ==
                        static_cast<usize>(tree_.num_levels()),
                    "RmaMcsParams::locality needs one threshold per level");
  for (usize q = 1; q < params_.locality.size(); ++q) {
    RMALOCK_CHECK_MSG(params_.locality[q] >= 1,
                      "T_L must be >= 1 at every level");
  }
}

void RmaMcs::acquire(rma::RmaComm& comm) {
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire);
    // Either the lock is passed to us within an element on the way up, or
    // we climb past the root with no predecessor anywhere: we own the lock
    // both ways.
    tree_.climb(comm, 1);
  }
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kBegin);
}

AcquireResult RmaMcs::try_acquire_for(rma::RmaComm& comm, Nanos deadline_ns,
                                      const RetryPolicy& retry) {
  AcquireResult result{};
  {
    rma::ObsSpan span(comm, obs::EventCode::kAcquire, /*a=*/1);
    result = retry_until(comm, deadline_ns, retry,
                         [&] { return tree_.try_climb(comm, 1); });
  }
  if (result.ok()) {
    rma::obs_event(comm, obs::EventCode::kCriticalSection,
                   obs::Phase::kBegin);
  }
  return result;
}

void RmaMcs::release(rma::RmaComm& comm) {
  rma::obs_event(comm, obs::EventCode::kCriticalSection, obs::Phase::kEnd);
  tree_.release(comm, params_.locality,
                [&] { tree_.release_root_exclusive(comm); });
}

}  // namespace rmalock::locks
