// Model-checking harness (paper §4.4).
//
// The paper verifies RMA-RW with SPIN over a PROMELA re-model: machines of
// N ∈ {1..4} levels, up to 256 processes, each randomly a reader or a
// writer, 20 lock acquisitions per process; checked properties are mutual
// exclusion and deadlock freedom.
//
// We check the same properties over the *actual C++ implementations* by
// driving SimWorld with adversarial schedulers:
//
//   * kRandom — uniform random walk over interleavings (many seeds);
//   * kPct    — PCT priority scheduling (Burckhardt et al., ASPLOS'10):
//               with d-1 priority-change points it finds any bug of depth d
//               with probability >= 1/(n k^(d-1)) per run;
//   * bounded-exhaustive DFS (mc/explorer.hpp) — enumerates *all*
//               interleavings of small configurations, the systematic
//               complement the paper gets from SPIN.
//
// Mutual exclusion is observed by a CsMonitor; deadlocks are detected by
// the engine (all unfinished processes blocked with no possible wake-up).
// A step-limit hit is reported separately: it bounds exploration and can
// also indicate livelock/starvation.
//
// Every schedule is recorded (rma::ScheduleTrace); the first failure is
// kept in CheckReport::first_failure with its (base_seed, schedule index,
// world seed) coordinates and a ddmin-shrunk trace that replays the
// violation deterministically (see mc/schedule.hpp and docs/TESTING.md).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "locks/lease.hpp"
#include "locks/lock.hpp"
#include "locks/timed_lease.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::mc {

/// A campaign's configuration. Its fault knobs (rma::FaultKnobs, see
/// rma/faults.hpp) reach every schedule's SimOptions and every written trace
/// file unchanged.
struct CheckConfig : rma::FaultKnobs {
  topo::Topology topology = topo::Topology::uniform({2, 2}, 2);
  /// Scheduling policy of randomized campaigns. check_exhaustive explores
  /// under kVirtualTime iff this is kVirtualTime (the fault decisions are
  /// then the only branches), and under kReplay otherwise.
  rma::SchedPolicy policy = rma::SchedPolicy::kRandom;
  /// Number of independently seeded schedules to explore.
  u64 schedules = 50;
  u64 base_seed = 1;
  /// Lock acquisitions per process (paper: 20).
  i32 acquires_per_proc = 20;
  /// Engine step bound per schedule.
  u64 max_steps = 2'000'000;
  /// Probability that a process is a writer (readers otherwise); roles are
  /// drawn per (seed, rank) as in the paper's random role assignment.
  double writer_fraction = 0.5;
  /// Explicit per-rank roles over RW subjects (size == nprocs); empty =
  /// random roles via writer_fraction. Lets tests and the exhaustive
  /// explorer pin a reader/writer mix instead of depending on the seed.
  std::vector<bool> writer_roles;
  i32 pct_change_points = 3;
  /// If non-empty, write the first failing (shrunk) trace as a
  /// "rmalock-trace" file into this directory and report its path
  /// (mc_verification + the CI artifact upload use this).
  std::string trace_dir;
  /// Workload id stamped into written trace files; mc_verification
  /// --replay maps it back to a workload.
  std::string workload_id;
  /// try_acquire_for rounds per process in the timed workloads.
  i32 timeout_retry_rounds = 3;
  /// Retry policy the timed workloads hand to try_acquire_for. The planted
  /// livelock bug is `retry.backoff = false`.
  locks::RetryPolicy retry;
  /// Worker threads for the campaign's TaskPool (--jobs / RMALOCK_JOBS):
  /// 1 = every schedule in index order on the calling thread (default),
  /// n > 1 = n workers, <= 0 = all hardware threads. Every observable
  /// output — counters, first-failure coordinates, shrunk traces, trace
  /// files — is bit-identical across jobs values: schedule i's world seed is
  /// mix_seed(base_seed, i) regardless of which worker runs it, outcomes
  /// land in per-index slots, and the merge walks them in index order
  /// (docs/PERF.md, "Parallel campaigns").
  i32 jobs = 1;
};

// The timed workloads' shape. Constants, not knobs: trace files do not
// record them, so a campaign that changed them would write traces that
// replay a different workload.

/// Per-round deadline budget of a timed acquire, in virtual nanoseconds.
/// Under the checker's zero-latency network only compute(), i.e. backoff,
/// advances the clock toward it (see mc::LivelockMonitor).
inline constexpr Nanos kAcquireTimeoutNs = 60'000;
/// LivelockMonitor bound: cumulative attempts without an acquire before a
/// rank is declared livelocked. Correct backoff stays ~an order of
/// magnitude below; the no-backoff bug blows through it via the
/// RetryPolicy::kMaxAttempts valve.
inline constexpr u64 kLivelockBound = 128;

/// Coordinates and replayable evidence of the first property violation.
struct FirstFailure {
  std::string kind;       // "mutex", "livelock", or "deadlock"
  std::string lock_name;  // Lock::name() of the subject
  u64 base_seed = 0;
  u64 schedule_index = 0;  // index within its campaign
  u64 world_seed = 0;      // SimOptions::seed of the failing run
  usize raw_trace_len = 0;       // picks recorded before shrinking
  rma::ScheduleTrace trace;      // shrunk counterexample (== raw when
                                 // shrinking is impossible)
  std::string trace_path;        // file written iff CheckConfig::trace_dir
  /// Flight recorder: the (shrunk) counterexample re-run once with the
  /// event tracer armed — the tail of every rank's event ring rendered
  /// human-readable (obs::render_post_mortem). Always populated on failure.
  std::string post_mortem;
  /// Files written next to trace_path iff CheckConfig::trace_dir: the
  /// post-mortem text and the full Chrome trace-event JSON of the failing
  /// run (loadable in Perfetto / chrome://tracing).
  std::string post_mortem_path;
  std::string flight_trace_path;
};

struct CheckReport {
  u64 schedules_run = 0;
  u64 mutex_violations = 0;
  u64 deadlocks = 0;
  /// Bounded-retry progress violations (LivelockMonitor, timed workloads).
  u64 livelock_violations = 0;
  /// Drift workloads only: accepted payload writes carrying a stale fencing
  /// token (WallClockLeaseMonitor; already counted in mutex_violations —
  /// broken out so campaigns can assert "fencing admitted zero of these"
  /// even while the margin-0 lease itself was violated).
  u64 stale_token_commits = 0;
  u64 step_limit_hits = 0;
  u64 total_cs_entries = 0;
  /// Exhaustive explorations that drained their full bounded schedule
  /// space (mc/explorer.hpp); 0 for randomized campaigns.
  u64 exhausted_spaces = 0;
  /// LockSpace workloads only: schedules in which >= 2 distinct keys were
  /// held simultaneously. A keyed campaign that never witnesses overlap
  /// would mean the "independent" locks actually serialize — the
  /// cross-key-independence property (summary prints it when nonzero).
  u64 cross_key_overlap_schedules = 0;
  bool has_first_failure = false;
  FirstFailure first_failure;

  /// True iff no safety or progress property was violated.
  [[nodiscard]] bool ok() const {
    return mutex_violations == 0 && deadlocks == 0 &&
           livelock_violations == 0;
  }
  /// One line of counts; on failure, appends the first-failure coordinates
  /// and a repro command.
  [[nodiscard]] std::string summary() const;

  CheckReport& operator+=(const CheckReport& other);
};

/// Outcome of one checked schedule.
struct ScheduleOutcome {
  rma::RunResult run;
  u64 mutex_violations = 0;
  /// Timed workloads: LivelockMonitor violations (bounded-retry progress).
  u64 livelock_violations = 0;
  /// Drift workloads: accepted stale-token writes (subset of
  /// mutex_violations; see CheckReport::stale_token_commits).
  u64 stale_token_commits = 0;
  u64 cs_entries = 0;
  /// LockSpace workloads: peak number of distinct keys held at once during
  /// the schedule (>= 2 witnesses cross-key concurrency); 0 elsewhere.
  u64 max_distinct_keys_held = 0;
  std::string lock_name;

  [[nodiscard]] bool failed() const {
    return mutex_violations > 0 || livelock_violations > 0 ||
           run.deadlocked;
  }
  /// "mutex" (takes precedence), "livelock", "deadlock", or "none".
  [[nodiscard]] const char* kind() const {
    if (mutex_violations > 0) return "mutex";
    if (livelock_violations > 0) return "livelock";
    if (run.deadlocked) return "deadlock";
    return "none";
  }
};

using RwLockFactory =
    std::function<std::unique_ptr<locks::RwLock>(rma::World&)>;
using ExclusiveLockFactory =
    std::function<std::unique_ptr<locks::ExclusiveLock>(rma::World&)>;
using LockSpaceFactory =
    std::function<std::unique_ptr<lockspace::LockSpace>(rma::World&)>;
using LeaseLockFactory =
    std::function<std::unique_ptr<locks::LeaseExclusive>(rma::World&)>;

/// Subject of the clock-drift workload (drift_workload): one timed lease
/// guarding one payload key of a payload-capable LockSpace — the lease is
/// the *permission*, the space's versioned payload the *resource*, and the
/// grant token the thread of trust between them.
struct DriftLeaseSubject {
  std::unique_ptr<locks::TimedLease> lease;
  std::unique_ptr<lockspace::LockSpace> space;
  u64 key = 0;
};
using DriftLeaseFactory = std::function<DriftLeaseSubject(rma::World&)>;

/// A checked workload: one schedule body bound to its subject factory and
/// its monitors. check, check_exhaustive and trace replay all run it.
struct Workload {
  /// Runs one schedule under `opts`: builds one subject in a fresh
  /// SimWorld, runs the body on every rank, and reads the monitors.
  std::function<ScheduleOutcome(const CheckConfig&, const rma::SimOptions&)>
      run;
};

/// Lock workload: each process takes the lock acquires_per_proc times.
/// Over an RwLock each process is a writer or a reader per config roles;
/// over an exclusive lock every process is a writer and no role is drawn.
/// Checked: mutual exclusion (CsMonitor) and deadlock freedom.
Workload lock_workload(ExclusiveLockFactory factory);

/// Crash/recovery workload over a lease lock: every process declares a
/// crash point before each acquire and one inside each critical section
/// (armed iff config.max_crashes > 0), so an owner can die holding the
/// lease and survivors must reclaim it. Checked: "never two owners in one
/// epoch" (EpochMonitor, folded into mutex_violations) and recovery
/// liveness — a survivor stuck forever on an unreclaimable lease surfaces
/// as an engine deadlock.
Workload lease_workload(LeaseLockFactory factory);

/// Keyed LockSpace workload: process p's i-th acquisition targets
/// keys[(p + i) % keys.size()] (writers per config roles; readers use
/// shared mode on RW backends). Checked: per-key mutual exclusion (one
/// CsMonitor per key), deadlock freedom, and cross-key independence — the
/// report counts schedules where two distinct keys were held at once
/// (cross_key_overlap_schedules).
Workload lockspace_workload(LockSpaceFactory factory, std::vector<u64> keys);

/// Versioned optimistic-read workload over a payload-capable LockSpace
/// (payload_words > 0): writers (per config roles) take the write lock and
/// publish an all-words-equal payload stamped with the key's next
/// generation; readers call optimistic_read lock-free. Checked: per-key
/// write-side mutual exclusion, deadlock freedom, and snapshot consistency
/// — every returned payload must be non-increasing along the word index
/// (OptimisticReadMonitor; see mc/monitor.hpp for why that is exactly "no
/// un-validated torn read"). Both fold into mutex_violations. Arm
/// config.max_tears, or the planted skip_read_validation bug stays
/// invisible.
Workload optimistic_workload(LockSpaceFactory factory, std::vector<u64> keys);

/// Timed-acquire workload: every process runs config.timeout_retry_rounds
/// rounds of try_acquire_for with a kAcquireTimeoutNs deadline and
/// config.retry, entering a CS on success and moving on on timeout.
/// Checked: mutual exclusion, deadlock freedom, and bounded-retry progress
/// (LivelockMonitor, folded into livelock_violations) — the property the
/// planted no-backoff retry policy violates under a straggler schedule.
/// Arm max_delays / max_partitions to exercise the paths the deadlines
/// exist for.
Workload timeout_workload(ExclusiveLockFactory factory);

/// Wall-clock lease workload: every process repeatedly takes the timed
/// lease (acquire_token), then — while still_valid() on its own clock —
/// publishes token-stamped payloads through
/// LockSpace::write_payload_fenced, and releases. Checked
/// (WallClockLeaseMonitor, folded into mutex_violations): never two
/// believing writers at once, and never an accepted write with a stale
/// token; plus deadlock freedom. Arm config.max_drift_events, or the
/// planted safety_margin_ns = 0 and skip_token_check bugs stay invisible.
/// Run it under kVirtualTime: belief intervals are only comparable on the
/// virtual-time timeline.
Workload drift_workload(DriftLeaseFactory factory);

/// Re-homing workload over a rehome-capable LockSpace (rehome_epochs >= 1,
/// exclusive backend): every process runs keyed timed acquires (as in
/// timeout_workload); the highest rank additionally migrates the first
/// key's shard to its successor home mid-run (rehome_shard). Checked:
/// per-key mutual exclusion across migration planes — an old-plane owner
/// coexisting with a new-plane owner is a mutex violation (exactly what the
/// planted rehome_skip_fence bug admits) — plus deadlock freedom and
/// bounded-retry progress.
Workload rehome_workload(LockSpaceFactory factory, std::vector<u64> keys);

/// Explores `config.schedules` randomized schedules of `workload` under
/// config.policy.
CheckReport check(const CheckConfig& config, const Workload& workload);

/// First `k` keys (scanning upward from 0) that resolve to pairwise
/// distinct slots of the space `factory` builds — the keys a small-config
/// campaign uses so "different keys" provably means "different physical
/// locks". Probes a scratch SimWorld over `topology`.
std::vector<u64> pick_cross_slot_keys(const LockSpaceFactory& factory,
                                      const topo::Topology& topology, i32 k);

// --- single-schedule building blocks ---------------------------------------
// Shared by check, the bounded-exhaustive explorer (mc/explorer.hpp), trace
// replay (mc_verification --replay), and tests.

/// SimOptions for the `schedule`-th randomized schedule of `config`
/// (world seed = mix_seed(base_seed, schedule), zero-latency network,
/// deadlocks reported instead of aborting, nothing recorded).
[[nodiscard]] rma::SimOptions schedule_options(const CheckConfig& config,
                                               u64 schedule);

/// SimOptions replaying `trace` under `config` with the given world seed.
/// `trace` is not owned and must outlive the run.
[[nodiscard]] rma::SimOptions replay_options(const CheckConfig& config,
                                             u64 world_seed,
                                             const rma::ScheduleTrace& trace);

/// Accumulates one schedule's outcome into the campaign counters.
void fold_outcome(CheckReport& report, const ScheduleOutcome& outcome);

/// If `outcome` failed and `report` has no failure yet: records the first
/// failure, ddmin-shrinks its trace via `rerun`, and writes the trace file
/// (per config). `opts` must be the options the failing schedule ran under;
/// `rerun` must re-execute one schedule with the given options.
void capture_first_failure(
    CheckReport& report, const CheckConfig& config,
    const ScheduleOutcome& outcome, u64 schedule_index,
    const rma::SimOptions& opts,
    const std::function<ScheduleOutcome(const rma::SimOptions&)>& rerun);

}  // namespace rmalock::mc
