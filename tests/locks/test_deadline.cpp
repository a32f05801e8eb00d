// RetryPolicy / retry_until edge cases. delay_for's contract is "never
// exceeds cap_ns, jitter included, and never trips UB": exponential doubling
// up to the cap, attempt numbers past the shift guard, multi-millisecond
// bases whose naive base << attempt would overflow i64, non-positive bases,
// and the jittered excursion being clamped at the cap. Plus the retry_until
// loop's contract (one attempt on an expired deadline, the max_attempts
// valve on a frozen clock, backoff time exactly the drawn delays) and a
// Backoff::pause escalation smoke.
#include "locks/deadline.hpp"

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"

namespace rmalock::locks {
namespace {

RetryPolicy no_jitter() {
  RetryPolicy retry;
  retry.jitter_permille = 0;
  return retry;
}

TEST(RetryPolicy, NoBackoffMeansZeroDelay) {
  RetryPolicy retry;
  retry.backoff = false;
  Xoshiro256 rng(1);
  for (u32 attempt = 0; attempt < 40; ++attempt) {
    EXPECT_EQ(retry.delay_for(attempt, rng), 0);
  }
}

TEST(RetryPolicy, DoublesPerAttemptUpToTheCap) {
  const RetryPolicy retry = no_jitter();  // base 500, cap 64'000
  Xoshiro256 rng(2);
  EXPECT_EQ(retry.delay_for(0, rng), 500);
  EXPECT_EQ(retry.delay_for(1, rng), 1'000);
  EXPECT_EQ(retry.delay_for(2, rng), 2'000);
  EXPECT_EQ(retry.delay_for(6, rng), 32'000);
  // 500 << 7 = 64'000 == cap; every later attempt stays pinned there.
  for (u32 attempt = 7; attempt < 64; ++attempt) {
    EXPECT_EQ(retry.delay_for(attempt, rng), 64'000) << attempt;
  }
}

TEST(RetryPolicy, HugeBaseDoesNotOverflow) {
  // base << attempt would overflow i64 from attempt 21 on even for small
  // bases, and immediately for multi-millisecond ones. The safe-direction
  // comparison must return the cap, not a shifted garbage value.
  RetryPolicy retry = no_jitter();
  retry.base_ns = i64{1} << 40;  // ~18 minutes
  retry.cap_ns = 64'000;
  Xoshiro256 rng(3);
  for (const u32 attempt : {0u, 1u, 19u, 20u, 21u, 1000u, 0xffffffffu}) {
    EXPECT_EQ(retry.delay_for(attempt, rng), 64'000) << attempt;
  }
}

TEST(RetryPolicy, NonPositiveBaseFallsBackToTheCap) {
  // Shifting a zero or negative i64 left is UB territory and a zero delay
  // would spin the clock frozen (the livelock the backoff exists to
  // avoid) — a degenerate base degrades to the cap instead.
  for (const Nanos base : {Nanos{0}, Nanos{-500}}) {
    RetryPolicy retry = no_jitter();
    retry.base_ns = base;
    Xoshiro256 rng(4);
    for (u32 attempt = 0; attempt < 30; ++attempt) {
      EXPECT_EQ(retry.delay_for(attempt, rng), retry.cap_ns) << base;
    }
  }
}

TEST(RetryPolicy, JitterNeverEscapesZeroToCap) {
  // delay +- 25% jitter across every attempt and many draws: always within
  // [0, cap_ns], never negative, never past the cap — the cap is the
  // caller's worst-case-latency promise that deadline math is built on.
  const RetryPolicy retry;  // jitter_permille = 250
  Xoshiro256 rng(5);
  for (u32 attempt = 0; attempt < 24; ++attempt) {
    for (i32 draw = 0; draw < 200; ++draw) {
      const Nanos delay = retry.delay_for(attempt, rng);
      EXPECT_GE(delay, 0) << "attempt " << attempt;
      EXPECT_LE(delay, retry.cap_ns) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, JitterActuallySpreadsTheDelay) {
  // Below the cap the draw must explore both sides of the base delay;
  // a constant stream would mean the jitter term is dead code.
  const RetryPolicy retry;
  Xoshiro256 rng(6);
  bool below = false;
  bool above = false;
  for (i32 draw = 0; draw < 200; ++draw) {
    const Nanos delay = retry.delay_for(2, rng);  // base delay 2'000
    below = below || delay < 2'000;
    above = above || delay > 2'000;
  }
  EXPECT_TRUE(below && above) << "jitter never left the base delay";
}

TEST(RetryUntil, ExpiredDeadlineStillMakesExactlyOneAttempt) {
  auto world = test::make_sim(topo::Topology::uniform({}, 1));
  u32 calls = 0;
  AcquireResult result{};
  world->run([&](rma::RmaComm& comm) {
    comm.compute(1'000);
    result = retry_until(comm, /*deadline_ns=*/0, RetryPolicy{}, [&] {
      ++calls;
      return false;
    });
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(result.status, AcquireStatus::kTimeout);
  EXPECT_EQ(result.attempts, 1u);
}

TEST(RetryUntil, FrozenClockStopsAtExactlyMaxAttempts) {
  // The planted-livelock shape: without backoff the zero-latency model
  // barely moves the clock, so the attempts valve ends the loop long
  // before the deadline.
  auto world = test::make_sim(topo::Topology::uniform({}, 1));
  const WinOffset word = world->allocate(1);
  RetryPolicy retry;
  retry.backoff = false;
  retry.max_attempts = 7;
  u32 calls = 0;
  AcquireResult result{};
  Nanos elapsed = -1;
  world->run([&](rma::RmaComm& comm) {
    const Nanos start = comm.now_ns();
    result = retry_until(comm, start + 1'000, retry, [&] {
      ++calls;
      comm.accumulate(1, 0, word, rma::AccumOp::kSum);
      comm.flush(0);
      return false;
    });
    elapsed = comm.now_ns() - start;
  });
  EXPECT_EQ(calls, 7u);
  EXPECT_EQ(world->read_word(0, word), 7);
  EXPECT_EQ(result.status, AcquireStatus::kTimeout);
  EXPECT_EQ(result.attempts, 7u);
  EXPECT_LT(elapsed, 1'000) << "the deadline, not the valve, fired";
}

TEST(RetryUntil, BackoffAdvancesTheClockByExactlyTheDrawnDelays) {
  // Attempts that issue no RMA op cost nothing, so the caller's clock moves
  // by the backoff alone: delay_for(0..k-2) before attempts 2..k, drawn
  // from the caller's rng in order.
  auto world = test::make_sim(topo::Topology::uniform({}, 1));
  const RetryPolicy retry;
  constexpr u32 kAttempts = 6;
  u32 calls = 0;
  AcquireResult result{};
  Nanos elapsed = -1;
  Nanos expected = 0;
  bool rng_in_step = false;
  world->run([&](rma::RmaComm& comm) {
    Xoshiro256 replica = comm.rng();
    for (u32 k = 0; k + 1 < kAttempts; ++k) {
      expected += retry.delay_for(k, replica);
    }
    const Nanos start = comm.now_ns();
    result = retry_until(comm, start + 1'000'000'000, retry,
                         [&] { return ++calls == kAttempts; });
    elapsed = comm.now_ns() - start;
    rng_in_step = replica() == comm.rng()();
  });
  EXPECT_EQ(calls, kAttempts);
  EXPECT_EQ(result.status, AcquireStatus::kAcquired);
  EXPECT_EQ(result.attempts, kAttempts);
  EXPECT_GT(expected, 0);
  EXPECT_EQ(elapsed, expected);
  EXPECT_TRUE(rng_in_step) << "retry_until drew more or fewer jitter values";
}

TEST(Backoff, PauseEscalatesAndResetRestartsTheLadder) {
  // Timing is untestable; the contract that is: pause() always returns
  // (spin, yield, and the 50 us sleep tiers all terminate) and reset()
  // re-enters the cheap spin tier without wedging.
  Backoff backoff;
  for (i32 i = 0; i < 30; ++i) backoff.pause();  // through all three tiers
  backoff.reset();
  for (i32 i = 0; i < 3; ++i) backoff.pause();
  SUCCEED();
}

}  // namespace
}  // namespace rmalock::locks
