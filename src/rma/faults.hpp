// Fault model of SimWorld: the knobs that arm the five fault classes and
// the encoding of their decisions in a recorded pick stream.
//
// The knob record (FaultKnobs) is declared once and shared by
// rma::SimOptions, mc::CheckConfig and mc::TraceCase, so a campaign's
// knobs reach the engine and its trace files by one assignment each.
//
// Every armed fault site is an explorable decision, taken by SimWorld's
// one fault-decision primitive under the same rule for every scheduling
// policy: the replay trace if it has a pick left, else the pick hook if
// set, else no fault if a replay is running or the policy is kReplay, else
// a stochastic draw against the class's chance. A class whose budget is 0
// (or spent) makes no decision and records no pick, so traces recorded
// before that class existed replay unchanged.
//
// Pick encoding. Fault decisions share the pick stream with scheduling
// decisions (rma::ScheduleTrace). Choosing no fault records the caller's
// rank r >= 0; a fault records a negative pick
//
//   pick = -(procs_factor * P + offset + subject)
//
// from kFaultEncodings, with P the process count:
//
//   | class     | subject              | pick                          |
//   |-----------|----------------------|-------------------------------|
//   | crash     | crashing rank r      | -(r + 2)                      |
//   | tear      | prefix length k      | -(P + 2 + k)                  |
//   | delay     | straggling origin r  | -(P + kTearPickSpan + 3 + r)  |
//   | partition | partitioned target t | -(2P + kTearPickSpan + 3 + t) |
//   | drift     | drifting origin r    | -(3P + kTearPickSpan + 3 + r) |
//
// The +2 keeps crash picks clear of kNilRank (-1). The five ranges are
// disjoint for every rank and every tear split below kTearPickSpan, so a
// pick names its class without context.
#pragma once

#include <array>

#include "common/types.hpp"

namespace rmalock::rma {

/// The 15 fault knobs. Every budget defaults to 0: the class is disarmed.
struct FaultKnobs {
  // --- crash: fail-stop at declared crash points -------------------------
  // RmaComm::crash_point() kills the process; window memory survives its
  // owner (the NIC keeps serving a dead host's registered memory).

  /// Maximum number of crash events per run (the budget the exhaustive
  /// explorer bounds, like its preemption bound).
  i32 max_crashes = 0;
  /// Chance (permille) of crashing at an armed crash point when drawn.
  u32 crash_chance_permille = 500;
  /// Restart crashed processes: a crashed process re-enters the scheduler
  /// and, when next picked, reboots and re-runs the body from the top as a
  /// fresh incarnation, so restart timing is an ordinary scheduling
  /// decision. When false, crashes are permanent. Restarting bodies must
  /// not contain barriers: the barrier accounting cannot tell a reborn
  /// first-barrier arrival from a later one.
  bool restart_crashed = false;
  /// Failure detector model for RmaComm::suspected(): false = perfect
  /// (suspected iff crashed); true = adversarial (every other rank is
  /// always suspected, the timeout that always fires). Lease fencing must
  /// keep its epoch-safety property even under the adversarial detector.
  bool adversarial_suspicion = false;

  // --- tear: multi-word reads atomic per word only -----------------------
  // An armed get_vec of n >= 2 words either reads atomically or reads a
  // k-word prefix (1 <= k < n), yields the cpu so writers can run, then
  // reads the rest.

  /// Maximum number of torn reads per run.
  i32 max_tears = 0;
  /// Chance (permille) of tearing an armed multi-word get_vec when drawn.
  u32 tear_chance_permille = 500;

  // --- gray network: stragglers and transient partitions -----------------
  // An armed remote op either completes normally, completes as a straggler
  // (its completion charge times delay_factor), or opens a partition of
  // its target (remote ops against it stall until the window closes;
  // try_* ops fail fast instead).

  /// Maximum number of straggler delays per run.
  i32 max_delays = 0;
  /// Chance (permille) of a gray fault at an armed remote op when drawn;
  /// shared by delays and partitions.
  u32 delay_chance_permille = 200;
  /// Straggler multiplier of a delayed op's completion charge.
  i64 delay_factor = 16;
  /// Maximum number of transient partitions per run.
  i32 max_partitions = 0;
  /// Virtual duration of one partition: remote ops against the target
  /// stall until `origin clock + partition_span`.
  Nanos partition_span = 50'000;

  // --- drift: per-process clocks off true time ---------------------------
  // An armed remote op either keeps the caller's local clock map or
  // re-anchors it to an extreme rate (± max_drift_permille) and skew step
  // (± skew_window): the NTP reality time-based leases lean on.

  /// Maximum number of drift events per run.
  i32 max_drift_events = 0;
  /// Chance (permille) of drifting at an armed remote op when drawn.
  u32 drift_chance_permille = 200;
  /// Worst-case clock rate error (permille): a drifted clock advances at
  /// (1000 ± this)/1000 of true time.
  u32 max_drift_permille = 200;
  /// Bound on the absolute skew offset (the NTP step clamp). A drift event
  /// sets the caller's skew to ± this.
  Nanos skew_window = 2'000;

  /// This record, for copying the knobs between the structs that share it.
  [[nodiscard]] FaultKnobs& knobs() { return *this; }
  [[nodiscard]] const FaultKnobs& knobs() const { return *this; }
};

/// The five fault classes, indexing kFaultEncodings.
enum class FaultKind : u8 { kCrash, kTear, kDelay, kPartition, kDrift };

/// Width reserved for the tear range: tear splits are checked against it
/// when tears are armed, so the gray and drift ranges sit at fixed offsets
/// below it for every payload size.
inline constexpr Rank kTearPickSpan = 64;

/// One row of the pick encoding: pick = -(procs_factor * P + offset +
/// subject).
struct FaultEncoding {
  i32 procs_factor;
  i32 offset;
};

/// The pick encoding of every fault class (see the table above).
inline constexpr std::array<FaultEncoding, 5> kFaultEncodings{{
    {0, 2},                  // crash
    {1, 2},                  // tear
    {1, kTearPickSpan + 3},  // delay
    {2, kTearPickSpan + 3},  // partition
    {3, kTearPickSpan + 3},  // drift
}};

/// The pick recording a `kind` fault on `subject` in a P-process world.
[[nodiscard]] constexpr Rank fault_pick(FaultKind kind, i32 nprocs,
                                        i32 subject) {
  const FaultEncoding& e = kFaultEncodings[static_cast<usize>(kind)];
  return -(e.procs_factor * nprocs + e.offset + subject);
}

}  // namespace rmalock::rma
