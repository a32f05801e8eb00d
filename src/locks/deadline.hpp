// Deadline-bounded acquisition: the shared vocabulary of the gray-failure
// survival path (ISSUE 8).
//
// The paper's protocols spin forever — correct on a healthy interconnect,
// pathological under gray failures (stragglers, transient partitions) where
// an op may take orders of magnitude longer than budgeted. The timed
// acquire path bounds every wait with an absolute deadline in the calling
// process's now_ns() timeline and retries failed attempts under a shared
// RetryPolicy: capped exponential backoff with jitter, where the delays are
// modeled as RmaComm::compute() virtual time and the jitter is drawn from
// the schedule-owned per-process Rng — so timed runs remain fully
// deterministic, record/replayable, and explorable.
//
// The backoff is also what makes livelock *detectable* in the model
// checker: under the MC's zero-latency cost model, clocks only advance
// through compute(), so a correctly backing-off retry loop provably expires
// its deadline after a bounded number of attempts — while a no-backoff loop
// freezes the clock, never expires, and runs into the max_attempts safety
// valve, which the starvation monitor flags (see mc/monitor.hpp).
#pragma once

#include <limits>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "rma/comm.hpp"

namespace rmalock::locks {

/// Outcome of a deadline-bounded acquire.
enum class AcquireStatus : u8 {
  kAcquired,  // lock held; release as usual
  kTimeout,   // deadline expired before the lock was obtained; nothing held
  kDegraded,  // LockSpace quarantine fail-fast: shard unhealthy, not tried
};

struct AcquireResult {
  AcquireStatus status = AcquireStatus::kAcquired;
  /// Acquisition attempts spent (>= 1 whenever the lock was tried at all);
  /// the model checker's livelock monitor aggregates this as its
  /// bounded-retry progress witness.
  u32 attempts = 1;

  [[nodiscard]] bool ok() const { return status == AcquireStatus::kAcquired; }
};

/// "No deadline": the blocking paths' value for a deadline parameter.
inline constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

/// Shared retry policy: capped exponential backoff with jitter. Delays are
/// virtual time (RmaComm::compute) and jitter comes from the deterministic
/// per-process Rng, so timed acquires stay schedule-reproducible.
struct RetryPolicy {
  /// First retry delay; doubles per attempt up to cap_ns.
  Nanos base_ns = 500;
  /// Backoff ceiling.
  Nanos cap_ns = 64'000;
  /// Jitter amplitude as a permille fraction of the current delay
  /// (delay +- delay * jitter_permille / 1000).
  u32 jitter_permille = 250;
  /// False = retry immediately with no delay. This is the knob the planted
  /// no-backoff livelock bug flips; correct callers leave it on.
  bool backoff = true;
  /// Safety valve: a retry loop gives up after this many attempts even if
  /// its deadline never expires (which can only happen when the clock is
  /// frozen — i.e. under the no-backoff bug in the zero-latency MC model).
  u32 max_attempts = 512;

  /// Delay before retry number `attempt` (0-based), jittered from `rng`.
  /// Never exceeds cap_ns, jitter included: the cap is the caller's promise
  /// about worst-case added latency per retry, and a +25% jittered
  /// excursion above it would break deadline math built on it.
  [[nodiscard]] Nanos delay_for(u32 attempt, Xoshiro256& rng) const {
    if (!backoff) return 0;
    const u32 shift = attempt < 20 ? attempt : 20;
    // Compare against the shifted-down cap instead of shifting the base
    // up: base_ns << 20 overflows i64 for a base over ~8.8 ms, and signed
    // overflow (like shifting a non-positive base) is UB — the comparison
    // runs in the safe direction.
    const Nanos delay_base =
        (base_ns <= 0 || base_ns >= (cap_ns >> shift)) ? cap_ns
                                                       : base_ns << shift;
    Nanos delay = delay_base;
    if (jitter_permille > 0) {
      const Nanos span = delay * jitter_permille / 1000;
      if (span > 0) {
        delay += static_cast<Nanos>(
                     rng.below(2 * static_cast<u64>(span) + 1)) -
                 span;
        if (delay > cap_ns) delay = cap_ns;
      }
    }
    return delay;
  }
};

/// The one retry loop of every timed acquire. Calls `attempt()` (true = the
/// lock is held) until it succeeds, the deadline passes, or
/// `retry.max_attempts` attempts are spent; between attempts it backs off
/// delay_for(k) of virtual time (RmaComm::compute) drawn from comm.rng().
/// An already-expired deadline still gets one attempt. A failed attempt
/// must leave nothing held.
template <typename Attempt>
AcquireResult retry_until(rma::RmaComm& comm, Nanos deadline_ns,
                          const RetryPolicy& retry, Attempt&& attempt) {
  for (u32 attempts = 1;; ++attempts) {
    if (attempt()) return AcquireResult{AcquireStatus::kAcquired, attempts};
    // The attempts valve fires even when the clock is frozen (see
    // RetryPolicy::max_attempts); the deadline governs the common case.
    if (attempts >= retry.max_attempts || comm.now_ns() >= deadline_ns) {
      return AcquireResult{AcquireStatus::kTimeout, attempts};
    }
    const Nanos delay = retry.delay_for(attempts - 1, comm.rng());
    if (delay > 0) comm.compute(delay);
  }
}

}  // namespace rmalock::locks
