// §4.4 verification campaign.
//
// The paper model-checks RMA-RW with SPIN: machines of N in {1..4} levels
// with equal fan-out per level, up to 256 processes, every process randomly
// a reader or writer, 20 acquires each; checked properties are mutual
// exclusion and deadlock freedom. This binary runs the equivalent campaign
// against the actual C++ implementations, in three modes:
//
//   (default)     randomized (uniform + PCT) schedules across the paper's
//                 topologies, plus the reader-reset race demonstration
//                 (DESIGN.md §2.5): the literal Listing 6/9 composition is
//                 exercised under the same schedules;
//   --exhaustive  bounded-exhaustive DFS (iterative preemption deepening)
//                 over small topologies — the SPIN-shaped systematic sweep;
//   --replay <f>  deterministic re-execution of a recorded counterexample
//                 trace file ("rmalock-trace v5", or v1-v4 for traces
//                 recorded before the crash / torn-read / gray-failure /
//                 clock-drift fault models; see docs/TESTING.md).
//
// The two campaign modes exit 1 when any campaign fails its expectation: a
// correct workload must come back clean, a planted bug must be caught.
//
// --jobs N (RMALOCK_JOBS; 0 = all cores) runs the randomized and
// exhaustive campaigns on N workers of the parallel campaign runtime.
// Reports, counterexample coordinates, shrunk traces, and trace files are
// bit-identical to the sequential run (docs/PERF.md, "Parallel
// campaigns"); --replay is a single deterministic re-execution and
// ignores the knob.
//
// Counterexamples: any first failure is ddmin-shrunk and, when a trace
// directory is configured (--trace-dir DIR or RMALOCK_TRACE_DIR), written
// as a replayable trace file whose path is printed in the summary — that is
// what the nightly CI job uploads as build artifacts.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "harness/bench_common.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "mc/schedule.hpp"

namespace {

using namespace rmalock;

// ---------------------------------------------------------------------------
// Subjects of the registered workloads
// ---------------------------------------------------------------------------

/// RMA-RW with small thresholds that stress mode changes.
mc::RwLockFactory rma_rw_lock() {
  return [](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tr = 3;
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 2);
    return std::make_unique<locks::RmaRw>(world, params);
  };
}

/// RMA-RW whose readers hit T_R constantly (maximal reset traffic), with
/// the literal Listing 6/9 reader reset (`faithful`, which clears the WRITE
/// flag — a planted bug) or the flag-preserving fix.
mc::RwLockFactory reader_reset_rw_lock(bool faithful) {
  return [faithful](rma::World& world) {
    locks::RmaRwParams params = locks::RmaRwParams::defaults(world.topology());
    params.tdc = 2;
    params.tr = 1;
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 1);
    params.paper_faithful_reader_reset = faithful;
    return std::make_unique<locks::RmaRw>(world, params);
  };
}

mc::ExclusiveLockFactory rma_mcs_lock() {
  return [](rma::World& world) {
    locks::RmaMcsParams params =
        locks::RmaMcsParams::defaults(world.topology());
    params.locality.assign(
        static_cast<usize>(world.topology().num_levels()), 2);
    return std::make_unique<locks::RmaMcs>(world, params);
  };
}

/// Crash-recoverable lease over `inner`. Without `fence` (a planted bug)
/// the recovery reclaims a suspected-dead owner's lease without bumping
/// the epoch, so a mid-CS-crashed owner shares its epoch with the thief.
mc::LeaseLockFactory lease_lock(locks::Backend inner, bool fence) {
  return [inner, fence](rma::World& world) {
    auto in = locks::make_exclusive(inner, world, /*home=*/0);
    locks::LeaseParams params;
    params.home = 0;
    params.fence_on_steal = fence;
    return std::make_unique<locks::LeaseExclusive>(world, std::move(in),
                                                   params);
  };
}

/// A small keyed grid (4 slots per shard, shards per leaf), so P=2 machines
/// still offer distinct slots for K=2 keys.
mc::LockSpaceFactory keyed_space(locks::Backend backend) {
  return [backend](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = backend;
    config.slots_per_shard = 4;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

/// Payload-capable space for versioned optimistic reads. With
/// `skip_validation` (a planted bug) optimistic_read skips the version
/// re-validation and certifies torn snapshots.
mc::LockSpaceFactory payload_space(bool skip_validation) {
  return [skip_validation](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaRw;
    config.slots_per_shard = 4;
    config.payload_words = 2;  // one split point: smallest tearable payload
    config.skip_read_validation = skip_validation;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

/// One-slot space with one pre-reserved migration plane. With `skip_fence`
/// (a planted bug) the post-acquire control-word re-validation is skipped,
/// so a claimant granted on the old plane after a migration coexists with
/// the new plane's owner.
mc::LockSpaceFactory rehome_space(bool skip_fence) {
  return [skip_fence](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.rehome_epochs = 1;
    config.rehome_skip_fence = skip_fence;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

/// Wall-clock timed lease over a payload-capable one-slot space: grants are
/// valid for kDurationNs on the holder's clock, reclaimed after kDurationNs
/// + safety_margin_ns on the claimant's clock, and every write carries the
/// grant epoch as a fencing token that write_payload_fenced validates. Two
/// planted bugs: no `margin` trusts the local clocks outright (safe under
/// perfect clocks, a belief overlap once drift is armed); `skip_token`
/// also drops the resource-side token check, so a stale write commits.
mc::DriftLeaseFactory drift_lease(bool margin, bool skip_token) {
  return [margin, skip_token](rma::World& world) {
    mc::DriftLeaseSubject subject;
    locks::TimedLeaseParams params;
    params.home = 0;
    if (!margin) params.safety_margin_ns = 0;
    subject.lease = std::make_unique<locks::TimedLease>(world, params);
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kRmaMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.payload_words = 2;
    config.skip_token_check = skip_token;
    subject.space = std::make_unique<lockspace::LockSpace>(world, config);
    subject.key = 0;  // one slot: every key resolves to it
    return subject;
  };
}

// ---------------------------------------------------------------------------
// Workload registry: every campaign runs under a registered id, and trace
// files record the id, so --replay rebuilds the identical workload long
// after the campaign finished.
// ---------------------------------------------------------------------------

/// Builds a workload for one machine.
using WorkloadMaker = std::function<mc::Workload(const topo::Topology&)>;

/// One registry entry: the workload an id names (keyed workloads carry
/// their key-count rule in `make`), whether it plants a bug, and its retry
/// policy.
struct Registered {
  const char* id;
  WorkloadMaker make;
  /// Violation kind a planted bug causes ("mutex" or "livelock"); null for
  /// a correct workload.
  const char* plants = nullptr;
  /// Retry policy of the timed acquires; the planted livelock is
  /// backoff = false (the bug lives in the policy, not the lock).
  locks::RetryPolicy retry = {};
};

WorkloadMaker unkeyed(mc::Workload workload) {
  return [workload](const topo::Topology&) { return workload; };
}

/// A keyed workload over the first key_count(P) cross-slot keys of its
/// space, so "different keys" provably means "different physical locks".
/// The count is a pure function of the machine, which is what lets a
/// replay derive the keys its campaign used.
WorkloadMaker keyed(mc::Workload (*bind)(mc::LockSpaceFactory,
                                         std::vector<u64>),
                    mc::LockSpaceFactory space, i32 (*key_count)(i32)) {
  return [=](const topo::Topology& topology) {
    return bind(space, mc::pick_cross_slot_keys(
                           space, topology, key_count(topology.nprocs())));
  };
}

i32 one_key(i32 /*nprocs*/) { return 1; }
i32 two_keys(i32 /*nprocs*/) { return 2; }
/// The P=2 exhaustive sweep uses one key; bigger machines use two.
i32 two_keys_above_p2(i32 nprocs) { return nprocs <= 2 ? 1 : 2; }

const std::vector<Registered>& registry() {
  static const std::vector<Registered> table = [] {
    using locks::Backend;
    locks::RetryPolicy no_backoff;
    no_backoff.backoff = false;
    return std::vector<Registered>{
        {"rw:rma-rw", unkeyed(mc::lock_workload(rma_rw_lock()))},
        {"rw:rma-rw-fixed-reset",
         unkeyed(mc::lock_workload(reader_reset_rw_lock(false)))},
        {"rw:rma-rw-faithful-reset",
         unkeyed(mc::lock_workload(reader_reset_rw_lock(true))), "mutex"},
        {"ex:rma-mcs", unkeyed(mc::lock_workload(rma_mcs_lock()))},
        {"lease:mcs",
         unkeyed(mc::lease_workload(lease_lock(Backend::kRmaMcs, true)))},
        {"lease:rw",
         unkeyed(mc::lease_workload(lease_lock(Backend::kRmaRw, true)))},
        {"lease:mcs-nofence",
         unkeyed(mc::lease_workload(lease_lock(Backend::kRmaMcs, false))),
         "mutex"},
        {"timeout:rma-mcs", unkeyed(mc::timeout_workload(rma_mcs_lock()))},
        {"timeout:rma-rw", unkeyed(mc::timeout_workload(rma_rw_lock()))},
        {"timeout:lease-mcs",
         unkeyed(mc::timeout_workload(lease_lock(Backend::kRmaMcs, true)))},
        {"timeout:no-backoff", unkeyed(mc::timeout_workload(rma_mcs_lock())),
         "livelock", no_backoff},
        {"ls:rma-mcs", keyed(mc::lockspace_workload,
                             keyed_space(Backend::kRmaMcs), two_keys)},
        {"ls:rma-rw", keyed(mc::lockspace_workload,
                            keyed_space(Backend::kRmaRw), two_keys)},
        {"opt:versioned", keyed(mc::optimistic_workload, payload_space(false),
                                two_keys_above_p2)},
        {"opt:skip-validation",
         keyed(mc::optimistic_workload, payload_space(true), one_key),
         "mutex"},
        {"rehome:fenced",
         keyed(mc::rehome_workload, rehome_space(false), one_key)},
        {"rehome:nofence",
         keyed(mc::rehome_workload, rehome_space(true), one_key), "mutex"},
        {"drift:fenced", unkeyed(mc::drift_workload(drift_lease(true, false)))},
        {"drift:margin0",
         unkeyed(mc::drift_workload(drift_lease(false, false))), "mutex"},
        {"drift:skip-token-check",
         unkeyed(mc::drift_workload(drift_lease(false, true))), "mutex"},
    };
  }();
  return table;
}

const Registered* find_workload(const std::string& id) {
  for (const Registered& entry : registry()) {
    if (id == entry.id) return &entry;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Campaign tables: each row runs one registered workload on one machine,
// randomized or bounded-exhaustive, and states what its report must show.
// ---------------------------------------------------------------------------

/// What a campaign's report must show.
enum class Role : u8 {
  kVerify,   // correct workload: clean; planted bug: caught
  kControl,  // a control run: clean; writes no artifacts
  kBlind,    // a planted bug with its fault model off: clean (the expected
             // false negative); writes no artifacts
  kDemo,     // reported, not asserted; writes no artifacts
};

/// Stale-token commits a drift campaign must show.
enum class Stale : u8 { kUnchecked, kNone, kSome };

struct Campaign {
  std::string label;  // printed before the summary
  const Registered* workload = nullptr;
  mc::CheckConfig config;  // machine, policy, schedules, knobs
  /// Set: a bounded-exhaustive campaign (iterative deepening).
  std::optional<mc::ExploreConfig> explore;
  Role role = Role::kVerify;
  /// Banner printed before the campaign ("--- header ---"), if any.
  const char* header = nullptr;
  /// kBlind: which fault model was off.
  const char* blind = nullptr;
  Stale stale = Stale::kUnchecked;
  /// Keyed LockSpace campaigns: two keys held at once must be witnessed.
  /// Exhaustive sweeps require it; randomized ones only warn (near-certain
  /// over a full campaign, not guaranteed in two smoke schedules).
  bool witness_overlap = false;
  /// --json series; empty = not recorded.
  std::string series;
};

[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// Appends campaign rows. A correct workload's row is recorded in --json
/// as "<id>/<policy>" (randomized) or "<id>/exhaustive". The row an add()
/// returns stays valid until the next add().
class Campaigns {
 public:
  explicit Campaigns(u64 max_steps) : max_steps_(max_steps) {}

  Campaign& add(std::string label, const char* id,
                const topo::Topology& topology, rma::SchedPolicy policy,
                u64 schedules, i32 acquires,
                const mc::ExploreConfig* explore = nullptr) {
    Campaign& row = rows_.emplace_back();
    row.label = std::move(label);
    row.workload = find_workload(id);
    RMALOCK_CHECK_MSG(row.workload != nullptr, "unregistered workload " << id);
    row.config.topology = topology;
    row.config.policy = policy;
    row.config.schedules = schedules;
    row.config.acquires_per_proc = acquires;
    row.config.max_steps = max_steps_;
    row.config.workload_id = id;
    row.config.retry = row.workload->retry;
    row.header = std::exchange(header_, nullptr);
    if (explore != nullptr) row.explore = *explore;
    if (row.workload->plants == nullptr) {
      row.series = std::string(id) + "/" +
                   (explore ? "exhaustive" : mc::policy_name(policy));
    }
    return row;
  }
  /// Adds a bounded-exhaustive row; the policy is kReplay unless a row
  /// sets kVirtualTime (see mc::check_exhaustive).
  Campaign& add(std::string label, const char* id,
                const topo::Topology& topology, i32 acquires,
                const mc::ExploreConfig& explore) {
    return add(std::move(label), id, topology, rma::SchedPolicy::kRandom,
               mc::CheckConfig{}.schedules, acquires, &explore);
  }
  /// Sets `header` on the next row added.
  void section(const char* header) { header_ = header; }
  [[nodiscard]] std::vector<Campaign> take() { return std::move(rows_); }

 private:
  u64 max_steps_;
  std::vector<Campaign> rows_;
  const char* header_ = nullptr;
};

constexpr rma::SchedPolicy kPolicies[] = {rma::SchedPolicy::kRandom,
                                          rma::SchedPolicy::kPct};

std::vector<Campaign> randomized_campaigns(bool quick, bool smoke) {
  using rma::SchedPolicy;
  Campaigns c(/*max_steps=*/4'000'000);
  // N = 1..4 with equal children per level, largest = 256 procs (paper).
  const std::pair<const char*, topo::Topology> machines[] = {
      {"N=1 P=8", topo::Topology::uniform({}, 8)},
      {"N=2 P=16", topo::Topology::uniform({4}, 4)},
      {"N=3 P=64", topo::Topology::uniform({4, 4}, 4)},
      {"N=4 P=256", topo::Topology::uniform({4, 4, 4}, 4)},
  };
  for (const auto& [name, topology] : machines) {
    // Smoke keeps only the machines small enough for a <2s ctest budget;
    // bigger machines get fewer schedules/acquires to bound runtime.
    const bool big = topology.nprocs() >= 64;
    if (smoke && big) continue;
    const u64 schedules = smoke ? 2 : (quick ? 4 : (big ? 6 : 30));
    const i32 acquires = smoke ? 4 : (big ? 5 : 20);
    for (const auto policy : kPolicies) {
      const char* pn = mc::policy_name(policy);
      c.add(strf("RMA-RW  %-10s %-7s", name, pn), "rw:rma-rw", topology,
            policy, schedules, acquires);
      c.add(strf("RMA-MCS %-10s %-7s", name, pn), "ex:rma-mcs", topology,
            policy, schedules, acquires);
    }
  }
  const topo::Topology p4 = topo::Topology::uniform({2}, 2);
  const topo::Topology p2 = topo::Topology::uniform({}, 2);

  // Keyed LockSpace workloads: per-key mutual exclusion and deadlock
  // freedom over a sharded lock service; cross_key_overlaps in the summary
  // counts schedules where two distinct keys were held at once (the
  // cross-key-independence witness).
  c.section("LockSpace keyed workloads (K=2 cross-slot keys)");
  for (const char* id : {"ls:rma-mcs", "ls:rma-rw"}) {
    const char* name = id == std::string("ls:rma-mcs") ? "LS-MCS" : "LS-RW";
    for (const auto policy : kPolicies) {
      c.add(strf("%-8s P=4 K=2   %-7s", name, mc::policy_name(policy)), id,
            p4, policy, smoke ? 2 : (quick ? 8 : 60), smoke ? 4 : 8)
          .witness_overlap = !smoke;
    }
  }

  // Versioned optimistic reads under the torn-read fault model: writers
  // publish monotone ascending-order payloads under the write lock; readers
  // snapshot lock-free with version validation. The armed fault model lets
  // multi-word gets observe partial writes; validation must reject every
  // torn snapshot (OptimisticReadMonitor folds consistency violations into
  // mutex_violations).
  c.section("optimistic versioned reads (torn-read model armed)");
  for (const auto policy : kPolicies) {
    c.add(strf("OPT-RW   P=4 K=2  %-7s", mc::policy_name(policy)),
          "opt:versioned", p4, policy, smoke ? 2 : (quick ? 8 : 60),
          smoke ? 4 : 8)
        .config.max_tears = 2;
  }

  // Planted skip-validation bug: with tears armed, both randomized policies
  // must CATCH the certified-torn-read bug. Its window is narrow: a tear
  // must straddle a write session's two payload puts on the SAME key, so
  // the campaign concentrates the workload — one key (every reader races
  // every writer), pinned 2-writer/2-reader roles, and a tear budget spread
  // across the schedule with a low per-read chance so tears land mid-run
  // where the write traffic is. Schedule i's world seed depends only on
  // (base_seed, i), so the smoke and quick tiers share the full tier's
  // prefix — 150 schedules provably contains a catch for BOTH policies
  // (random: s34, pct: s131 under the default base seed). The
  // torn-read-blind control of the SAME buggy workload must come back
  // clean: without the fault model every snapshot is single-instant and
  // the bug is invisible, which is exactly why the model exists.
  c.section("planted skip-validation bug (must be caught when armed)");
  const std::vector<bool> two_writers = {true, false, true, false};
  for (const auto policy : kPolicies) {
    Campaign& row =
        c.add(strf("skip-validation (%-7s):", mc::policy_name(policy)),
              "opt:skip-validation", p4, policy, quick ? 150 : 400, 10);
    row.config.writer_roles = two_writers;
    row.config.max_tears = 6;
    row.config.tear_chance_permille = 300;
  }
  Campaign& tear_blind =
      c.add("skip-validation (blind  ):", "opt:skip-validation", p4,
            SchedPolicy::kRandom, quick ? 150 : 400, 10);
  tear_blind.config.writer_roles = two_writers;
  tear_blind.role = Role::kBlind;
  tear_blind.blind = "torn-read-blind";

  // Crash/recovery lease workloads: every schedule may kill one process at
  // a crash point (before an acquire or mid-CS); survivors must reclaim the
  // orphaned lease with a fenced (epoch-bumped) steal. A low crash chance
  // spreads the single crash across the schedule so mid-CS deaths — the
  // ones that orphan the lease — are well represented. In the restart
  // regime crashed processes reboot and re-run the workload from the top,
  // so recovery must also tolerate the old owner coming back: its
  // stale-epoch release has to fail quietly against the fenced lease. The
  // planted no-fence reclaim must be CAUGHT (two owners in one epoch).
  const auto one_crash = [](Campaign& row) -> Campaign& {
    row.config.max_crashes = 1;
    row.config.crash_chance_permille = 100;
    return row;
  };
  const u64 lease_schedules = smoke ? 4 : (quick ? 30 : 200);
  const i32 lease_acquires = smoke ? 3 : 5;
  c.section("crash/recovery lease workloads (<=1 crash/schedule)");
  for (const char* id : {"lease:mcs", "lease:rw"}) {
    const char* name =
        id == std::string("lease:mcs") ? "LEASE-MCS" : "LEASE-RW";
    for (const auto policy : kPolicies) {
      one_crash(c.add(strf("%-10s P=4      %-7s", name,
                           mc::policy_name(policy)),
                      id, p4, policy, lease_schedules, lease_acquires));
    }
  }
  Campaign& restart = one_crash(
      c.add("LEASE-MCS  P=4+rest random ", "lease:mcs", p4,
            SchedPolicy::kRandom, lease_schedules, lease_acquires));
  restart.config.restart_crashed = true;
  restart.series = "lease:mcs/restart";
  c.section("planted no-fence lease recovery bug (must be caught)");
  for (const auto policy : kPolicies) {
    one_crash(c.add(strf("no-fence lease (%-7s):", mc::policy_name(policy)),
                    "lease:mcs-nofence", p4, policy,
                    smoke ? 60 : (quick ? 150 : 400), lease_acquires));
  }

  // Timed acquires under the gray-failure model: stragglers (delayed
  // remote ops) and transient partitions are armed, so some acquires time
  // out; the deadline+backoff path must stay safe (mutex), live (no
  // deadlock) AND bounded (LivelockMonitor: no rank burns more than
  // mc::kLivelockBound retries without progress).
  c.section("timed acquires under gray failures (deadline+backoff)");
  for (const char* id :
       {"timeout:rma-mcs", "timeout:rma-rw", "timeout:lease-mcs"}) {
    for (const auto policy : kPolicies) {
      Campaign& row =
          c.add(strf("%-18s P=4 %-7s", id, mc::policy_name(policy)), id, p4,
                policy, smoke ? 4 : (quick ? 30 : 150), 4);
      row.config.max_delays = 2;
      row.config.max_partitions = 1;
    }
  }

  // Planted retry bug: the rma-mcs workload with backoff DISABLED. Failed
  // attempts no longer advance the virtual clock, so the deadline never
  // expires for a starved rank — it spins to the retry valve and the
  // LivelockMonitor must flag it. PCT schedules manufacture exactly that
  // starvation (one rank de-prioritized while holding the lock). The window
  // is narrow (a PCT change point must de-prioritize the holder and no
  // later change point may rescue it before the retry valve), so this
  // campaign needs more schedules than the other planted bugs — the first
  // catch is around schedule 220 under the fixed seed. The control runs
  // identical schedules with backoff ON and must be clean: the livelock is
  // the retry policy's fault, not the scheduler's.
  c.section("planted no-backoff retry livelock (must be caught)");
  c.add("no-backoff retry (pct):  ", "timeout:no-backoff", p2,
        SchedPolicy::kPct, quick ? 300 : 400, 4)
      .config.max_delays = 2;
  Campaign& backoff = c.add("backoff control (pct):   ", "timeout:rma-mcs", p2,
                            SchedPolicy::kPct, quick ? 300 : 400, 4);
  backoff.config.max_delays = 2;
  backoff.role = Role::kControl;
  backoff.series.clear();

  // Shard re-homing: a mid-run migration moves the only shard to its next
  // plane while every rank hammers timed acquires on the same key. The
  // fenced path must never admit two owners across the migration epoch;
  // the planted fence-skipping variant must be caught. Its two-owner window
  // (claimant stalled between its directory read and its old-plane grant
  // across a full migration) only opens under uniform random schedules here
  // — PCT's strict priorities never stall the claimant mid-window — so it
  // runs kRandom, with enough schedules to pass the first catch (~schedule
  // 76 under the fixed seed).
  c.section("shard re-homing across migration epochs");
  for (const auto policy : kPolicies) {
    c.add(strf("%-16s P=2 %-7s", "rehome:fenced", mc::policy_name(policy)),
          "rehome:fenced", p2, policy, smoke ? 4 : (quick ? 30 : 150), 4);
  }
  c.add(strf("%-16s P=2 random ", "rehome:nofence"), "rehome:nofence", p2,
        SchedPolicy::kRandom, quick ? 150 : 400, 4);

  // Wall-clock leases under the clock-drift fault model: per-process clocks
  // may drift (rate error) and skew (step) within the armed budget. Drift
  // campaigns run under kVirtualTime: the clocks themselves are the
  // adversary (drift decisions are the explored choice, randomized per
  // world seed), and belief intervals are only comparable when every
  // process executes in virtual-time order — a preemptive scheduler's
  // unbounded pauses would flag overlaps no finite margin can prevent (that
  // hazard is real, but it is the *pause* story, not the clock one).
  //
  // The margined, token-fenced lease must stay clean: no belief overlap, no
  // stale-token commit. The planted zero-margin bug (the claimant reclaims
  // right at kDurationNs, so a drift-slow holder still believes) must be
  // caught while fencing, still ON, admits zero stale-token commits; its
  // drift-blind control must be clean — under perfect clocks the reclaim
  // can only land at-or-after the holder's belief expires, which is exactly
  // why time-based leases look safe in testing and fail in production. The
  // planted skip-token-check bug (zero margin AND no resource-side token
  // validation) must commit a stale write: margins only shrink the overlap
  // window; fencing is what closes it.
  const auto drifting = [](Campaign& row, Stale stale) {
    row.config.max_drift_events = 2;
    row.stale = stale;
  };
  const SchedPolicy vtime = SchedPolicy::kVirtualTime;
  c.section("wall-clock leases under clock drift (fencing tokens)");
  drifting(c.add(strf("%-16s P=2 %-7s", "drift:fenced", "vtime"),
                 "drift:fenced", p2, vtime, smoke ? 8 : (quick ? 60 : 300), 3),
           Stale::kNone);
  const u64 drift_schedules = smoke ? 60 : (quick ? 150 : 400);
  c.section("planted zero-margin lease bug (must be caught under drift)");
  drifting(c.add("zero-margin (vtime  ):", "drift:margin0", p2, vtime,
                 drift_schedules, 3),
           Stale::kNone);
  Campaign& drift_blind = c.add("zero-margin (blind  ):", "drift:margin0", p2,
                                vtime, drift_schedules, 3);
  drift_blind.role = Role::kBlind;
  drift_blind.blind = "drift-blind";
  c.section("planted skip-token-check bug (stale write must commit)");
  drifting(c.add("skip-token-check (vtime ):", "drift:skip-token-check", p2,
                 vtime, drift_schedules, 3),
           Stale::kSome);

  // Demonstration: the literal Listing 6/9 reader reset (which clears the
  // WRITE flag) vs. the flag-preserving fix, under aggressive schedules.
  // The faithful variant is a planted bug shown, not asserted.
  c.section("reader-reset race demonstration (DESIGN.md §2.5)");
  c.add(strf("%-28s", "flag-preserving reset:"), "rw:rma-rw-fixed-reset", p4,
        SchedPolicy::kRandom, quick ? 50 : 400, 8)
      .series.clear();
  c.add(strf("%-28s", "listing-6 reset (faithful):"),
        "rw:rma-rw-faithful-reset", p4, SchedPolicy::kRandom, quick ? 50 : 400,
        8)
      .role = Role::kDemo;
  return c.take();
}

std::vector<Campaign> exhaustive_campaigns(bool quick, bool smoke) {
  Campaigns c(/*max_steps=*/400'000);
  const auto bounds = [](u64 max_schedules, i32 max_preemptions) {
    mc::ExploreConfig explore;
    explore.max_schedules = max_schedules;
    explore.max_preemptions = max_preemptions;
    return explore;
  };
  struct Machine {
    const char* name;
    topo::Topology topology;
    i32 acquires;
    i32 max_preemptions;  // iterative deepening 0..this
    u64 max_schedules;
  };
  std::vector<Machine> machines = {
      {"P=2", topo::Topology::uniform({}, 2), 2, 4, 500'000},
      {"P=3", topo::Topology::uniform({}, 3), 1, 3, 500'000},
      {"P=2x2", topo::Topology::uniform({2}, 2), 1, 2, 500'000},
  };
  if (smoke) {
    machines = {{"P=2", topo::Topology::uniform({}, 2), 1, 2, 50'000}};
  } else if (quick) {
    machines.resize(2);
    machines[0].max_preemptions = 3;
  }
  for (const Machine& m : machines) {
    const mc::ExploreConfig explore =
        bounds(m.max_schedules, m.max_preemptions);
    const auto label = [&m](const char* lock) {
      return strf("%s %-6s acq=%d d<=%d", lock, m.name, m.acquires,
                  m.max_preemptions);
    };
    c.add(label("RMA-MCS"), "ex:rma-mcs", m.topology, m.acquires, explore);
    // Fixed reader/writer mix: every rank alternates by parity so the
    // enumerated space always contains reader/writer interactions.
    std::vector<bool>& roles =
        c.add(label("RMA-RW "), "rw:rma-rw", m.topology, m.acquires, explore)
            .config.writer_roles;
    roles.assign(static_cast<usize>(m.topology.nprocs()), false);
    for (usize r = 0; r < roles.size(); r += 2) roles[r] = true;
    // Keyed LockSpace over the same machine: K=2 keys pinned to distinct
    // slots, alternating per process — per-key mutual exclusion plus a
    // *required* cross-key-overlap witness (any iterative sweep with a
    // preemption budget >= 1 enumerates a schedule where both keys are held
    // at once; a space whose keys secretly share a lock would never produce
    // one).
    c.add(label("LS-MCS "), "ls:rma-mcs", m.topology, m.acquires, explore)
        .witness_overlap = true;
  }

  // Every fault class below on P=2: the correct workload must drain its
  // space with zero violations, the planted one must be caught with a
  // replayable counterexample.
  const topo::Topology p2 = topo::Topology::uniform({}, 2);
  const u64 cap = smoke ? 50'000 : 500'000;

  // Crash-point schedules: with max_crashes=1 every armed crash point is a
  // DFS decision, so the DFS enumerates all crash-free interleavings AND
  // every placement of the single crash.
  const mc::ExploreConfig crash = bounds(cap, smoke ? 2 : 3);
  const i32 lease_acquires = smoke ? 1 : 2;
  c.section("crash-point schedules (lease recovery, <=1 crash)");
  for (const auto& [id, name] :
       {std::pair{"lease:mcs", "LEASE-MCS"}, std::pair{"lease:rw", "LEASE-RW"},
        std::pair{"lease:mcs-nofence", "no-fence"}}) {
    c.add(strf("%-10s P=2 acq=%d d<=%d", name, lease_acquires,
               crash.max_preemptions),
          id, p2, lease_acquires, crash)
        .config.max_crashes = 1;
  }

  // Torn-read schedules: with max_tears=1 every armed multi-word get is a
  // DFS decision, so the DFS enumerates all atomic-snapshot interleavings
  // AND every tear placement (the minimal skip-validation counterexample
  // needs three preemptions: pause the writer pre-bump, tear the read,
  // resume the writer across the split).
  const mc::ExploreConfig tear = bounds(cap, 3);
  c.section("torn-read schedules (optimistic reads, <=1 tear)");
  for (const auto& [id, name] :
       {std::pair{"opt:versioned", "OPT-RW"},
        std::pair{"opt:skip-validation", "skip-validation"}}) {
    Campaign& row = c.add(strf("%-15s P=2 acq=%d d<=%d", name, 1,
                               tear.max_preemptions),
                          id, p2, 1, tear);
    row.config.writer_roles = {true, false};  // 1 writer, 1 reader
    row.config.max_tears = 1;
  }

  // Timeout/starvation schedules: timed acquires with deadline+backoff vs
  // the planted no-backoff policy. With backoff, every failed attempt
  // advances the virtual clock, so a starved rank's deadline expires after
  // a bounded number of retries — the LivelockMonitor stays quiet over the
  // whole bounded space. Without backoff the clock freezes during the spin;
  // one preemption into a rank while the lock is held sends it straight to
  // the retry valve (a 2-rank straggler schedule).
  const mc::ExploreConfig timeout = bounds(cap, 2);
  c.section("timeout/starvation schedules (bounded-retry progress)");
  for (const char* id : {"timeout:rma-mcs", "timeout:no-backoff"}) {
    c.add(strf("%-18s P=2 rounds=2 d<=%d", id, timeout.max_preemptions), id,
          p2, mc::CheckConfig{}.acquires_per_proc, timeout)
        .config.timeout_retry_rounds = 2;
  }

  // Clock-drift schedules: scheduling stays virtual-time (belief intervals
  // are only comparable on that timeline), and every armed remote op is a
  // DFS decision, so the explorer enumerates every placement of the <=2
  // drift events over the deterministic schedule (each event is a
  // deterministic function of its rank and ordinal, so the branches alone
  // pin the whole clock trajectory). Two events are the minimal budget that
  // reaches the hazard: a rank's first event drifts it in the self-safe
  // direction (a slow holder extends only its own belief; a slow claimant
  // waits longer), so the counterexample needs the second, opposite-signed
  // event — a fast-clocked claimant whose observation window shrinks below
  // the honest holder's belief. Two rounds per rank: the overlap needs an
  // abandoned hold reclaimed by time, and under deterministic virtual-time
  // scheduling the first round's holds are always released or never
  // reclaimed — the hazard starts at the second round.
  const mc::ExploreConfig drift = bounds(cap, smoke ? 2 : 3);
  c.section("clock-drift schedules (wall-clock leases, <=2 events)");
  for (const char* id : {"drift:fenced", "drift:margin0"}) {
    Campaign& row =
        c.add(strf("%-16s P=2 acq=2 e<=%d", id, 2), id, p2, 2, drift);
    row.config.policy = rma::SchedPolicy::kVirtualTime;
    row.config.max_drift_events = 2;
  }

  // Re-homing schedules: rank 1 migrates the only shard mid-run while both
  // ranks hammer timed acquires on the same key. The minimal two-owner
  // counterexample needs two preemptions: pause a claimant between its
  // directory read and its grant, migrate + acquire on the new plane, then
  // resume the stale claimant — only the post-acquire fence deflects it.
  const mc::ExploreConfig rehome = bounds(cap, 2);
  c.section("re-homing schedules (migration fence, epoch-stamped)");
  for (const char* id : {"rehome:fenced", "rehome:nofence"}) {
    c.add(strf("%-16s P=2 acq=2 d<=%d", id, rehome.max_preemptions), id, p2,
          2, rehome);
  }
  return c.take();
}

// ---------------------------------------------------------------------------
// Campaign runner
// ---------------------------------------------------------------------------

/// Prints the flight-recorder post-mortem of a campaign's first failure —
/// the tail of every rank's event ring from a deterministic re-run of the
/// shrunk counterexample. Used by the planted-bug campaigns, where the
/// failure is the expected catch and the post-mortem shows WHAT the
/// interleaving did, next to the --replay repro line that shows how to
/// re-execute it.
void print_post_mortem(const mc::CheckReport& report) {
  if (!report.has_first_failure) return;
  const std::string& pm = report.first_failure.post_mortem;
  if (pm.empty()) return;
  std::printf("  flight recorder (shrunk counterexample):\n");
  // Indent every line so the dump reads as part of the campaign block.
  usize start = 0;
  while (start < pm.size()) {
    usize end = pm.find('\n', start);
    if (end == std::string::npos) end = pm.size();
    std::printf("  | %.*s\n", static_cast<int>(end - start), pm.data() + start);
    start = end + 1;
  }
}

/// Runs one campaign, prints its summary and verdict lines, and records it
/// in `json`. True iff the report shows what the campaign expects.
bool run_campaign(const Campaign& row, const std::string& trace_dir, i32 jobs,
                  harness::FigureReport& json) {
  if (row.header != nullptr) std::printf("\n--- %s ---\n", row.header);
  mc::CheckConfig config = row.config;
  if (row.role == Role::kVerify) config.trace_dir = trace_dir;
  config.jobs = jobs;
  const mc::Workload workload = row.workload->make(config.topology);
  const Timer timer;
  const mc::CheckReport report =
      row.explore ? mc::check_exhaustive(config, *row.explore, workload,
                                         /*iterative=*/true)
                  : mc::check(config, workload);
  const double wall_s = timer.elapsed_s();
  std::printf("%s %s\n", row.label.c_str(), report.summary().c_str());

  bool pass = report.ok();
  if (row.role == Role::kDemo) {
    pass = true;
  } else if (row.role == Role::kBlind) {
    if (pass) {
      std::printf("  %s run missed the planted bug — the expected false "
                  "negative\n",
                  row.blind);
    } else {
      std::printf("  ERROR: %s run flagged a violation\n", row.blind);
    }
  } else if (const char* plants = row.workload->plants) {
    if (!row.explore) print_post_mortem(report);
    pass = (plants == std::string("livelock") ? report.livelock_violations
                                              : report.mutex_violations) > 0;
    if (!pass) std::printf("  ERROR: planted bug was NOT caught\n");
  }
  if (row.stale == Stale::kNone && report.stale_token_commits > 0) {
    std::printf("  ERROR: fencing admitted a stale-token commit\n");
    pass = false;
  } else if (row.stale == Stale::kSome && report.stale_token_commits == 0) {
    std::printf("  ERROR: no stale-token commit witnessed — the unfenced "
                "resource should have admitted one\n");
    pass = false;
  }
  if (row.witness_overlap && report.cross_key_overlap_schedules == 0) {
    if (row.explore) {
      pass = false;
    } else {
      std::printf("  warning: no cross-key overlap witnessed\n");
    }
  }

  if (!row.series.empty()) {
    const i32 p = config.topology.nprocs();
    json.add(row.series, p, "schedules",
             static_cast<double>(report.schedules_run));
    json.add(row.series, p, "cs_entries",
             static_cast<double>(report.total_cs_entries));
    json.add(row.series, p, "mutex_violations",
             static_cast<double>(report.mutex_violations));
    json.add(row.series, p, "deadlocks",
             static_cast<double>(report.deadlocks));
    json.add(row.series, p, "wall_s", wall_s);
    if (row.explore && row.witness_overlap) {
      json.add(row.series, p, "cross_key_overlaps",
               static_cast<double>(report.cross_key_overlap_schedules));
    }
  }
  return pass;
}

/// Runs a mode's campaign table; exits 1 when any campaign fails.
int run_campaigns(bool exhaustive, const harness::BenchEnv& env,
                  const std::string& trace_dir) {
  harness::FigureReport json =
      exhaustive
          ? harness::FigureReport(
                "mc_exhaustive", "bounded-exhaustive DFS sweep",
                "every interleaving within the bounds enumerated; wall_s is "
                "the engine-throughput perf gate")
          : harness::FigureReport(
                "mc_randomized",
                "§4.4 randomized campaign (random + PCT schedules)",
                "all tests confirm mutual exclusion and deadlock freedom");
  std::printf("==========================================================\n");
  if (exhaustive) {
    std::printf("mc_verification --exhaustive — bounded-exhaustive DFS\n");
    std::printf("(iterative preemption deepening; 'exhausted_spaces=1' "
                "means\n");
    std::printf(" every interleaving within the bounds was enumerated)\n");
  } else {
    std::printf("mc_verification — §4.4 campaign (random + PCT schedules)\n");
    std::printf("paper: all tests confirm mutual exclusion and deadlock "
                "freedom\n");
  }
  std::printf("==========================================================\n");

  bool all_ok = true;
  for (const Campaign& row :
       exhaustive ? exhaustive_campaigns(env.quick, env.smoke)
                  : randomized_campaigns(env.quick, env.smoke)) {
    all_ok = run_campaign(row, trace_dir, env.jobs, json) && all_ok;
  }

  std::printf("\nVERDICT: %s\n",
              !all_ok       ? "VIOLATIONS FOUND"
              : exhaustive ? "all enumerated interleavings are safe"
                           : "all safety properties hold");
  if (!harness::bench_json_path().empty()) {
    if (json.write_json(harness::bench_json_path())) {
      std::printf("JSON written to %s\n", harness::bench_json_path().c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   harness::bench_json_path().c_str());
    }
  }
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Trace replay (--replay)
// ---------------------------------------------------------------------------

int run_replay(const std::string& path) {
  mc::TraceCase repro;
  std::string error;
  if (!mc::read_trace_file(path, &repro, &error)) {
    std::fprintf(stderr, "mc_verification: cannot load trace: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("replaying %s\n", path.c_str());
  std::printf("  workload  %s (%s)\n", repro.workload.c_str(),
              repro.lock_name.c_str());
  std::printf("  topology  %s\n", repro.topology.describe().c_str());
  std::printf("  seed      %llu\n",
              static_cast<unsigned long long>(repro.world_seed));
  std::printf("  schedule  %zu picks, expected violation: %s\n",
              repro.trace.picks.size(), repro.kind.c_str());
  const Registered* entry = find_workload(repro.workload);
  if (entry == nullptr) {
    std::fprintf(stderr, "mc_verification: unknown workload id '%s'\n",
                 repro.workload.c_str());
    return 1;
  }

  mc::CheckConfig config;
  config.topology = repro.topology;
  config.acquires_per_proc = repro.acquires_per_proc;
  config.writer_fraction = repro.writer_fraction;
  config.writer_roles = repro.writer_roles;
  config.max_steps = repro.max_steps;
  config.knobs() = repro.knobs();
  // Virtual-time campaigns (drift) replay under kVirtualTime with the trace
  // consumed only at fault-decision points; everything else replays under
  // kReplay. replay_options() keys off this.
  config.policy = repro.recorded_policy;
  config.retry = entry->retry;

  // The flight recorder is armed: the replay doubles as the trace-export
  // path (--trace-out) and always ends with a post-mortem of the rings.
  obs::Tracer flight(repro.topology.nprocs());
  rma::SimOptions ropts =
      mc::replay_options(config, repro.world_seed, repro.trace);
  ropts.tracer = &flight;
  const mc::ScheduleOutcome outcome =
      entry->make(repro.topology).run(config, ropts);

  std::printf("  result    mutex_violations=%llu livelock_violations=%llu "
              "deadlocked=%d steps=%llu divergences=%llu\n",
              static_cast<unsigned long long>(outcome.mutex_violations),
              static_cast<unsigned long long>(outcome.livelock_violations),
              outcome.run.deadlocked ? 1 : 0,
              static_cast<unsigned long long>(outcome.run.steps),
              static_cast<unsigned long long>(outcome.run.replay_divergences));
  std::printf("\nflight recorder:\n%s", obs::render_post_mortem(flight).c_str());
  harness::maybe_write_bench_trace(flight);
  const bool reproduced =
      (repro.kind == "mutex" && outcome.mutex_violations > 0) ||
      (repro.kind == "livelock" && outcome.livelock_violations > 0) ||
      (repro.kind == "deadlock" && outcome.run.deadlocked) ||
      (repro.kind == "none" && !outcome.failed());
  std::printf("VERDICT: %s\n", reproduced ? "violation reproduced"
                                          : "DID NOT REPRODUCE");
  return reproduced ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the modes this binary adds on top of the shared bench CLI
  // (apply_bench_cli rejects flags it does not know).
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--quick] [--exhaustive] "
                 "[--replay <trace-file>] [--trace-dir <dir>] "
                 "[--jobs <n>] [--json <path>] [--trace-out <path>]\n",
                 argv[0]);
    std::exit(2);
  };
  bool exhaustive = false;
  std::string replay_path;
  std::string trace_dir =
      std::getenv("RMALOCK_TRACE_DIR") ? std::getenv("RMALOCK_TRACE_DIR") : "";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exhaustive") == 0) {
      exhaustive = true;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      if (i + 1 >= argc) usage();
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) usage();
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--jobs") == 0 ||
               std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) usage();
      passthrough.push_back(argv[i]);
      passthrough.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0 ||
               std::strcmp(argv[i], "--quick") == 0) {
      passthrough.push_back(argv[i]);
    } else {
      usage();
    }
  }
  rmalock::harness::apply_bench_cli(static_cast<int>(passthrough.size()),
                                    passthrough.data());
  if (!replay_path.empty()) return run_replay(replay_path);
  return run_campaigns(exhaustive, harness::BenchEnv::from_env(), trace_dir);
}
