// Crash/recovery panel (failure-model extension; no paper counterpart —
// the paper assumes fail-free processes, see README "Failure model").
//
// A designated victim acquires a lease-fenced lock, dies mid-critical-
// section at a declared crash point, and the survivors reclaim the lease
// by epoch-fenced CAS. The figure of merit is *recovery latency*: virtual
// time from the crash to the first post-crash grant, reported as a
// distribution (mean/p50/p95) over independent seeded repetitions.
//
// Series:
//   Lease(RMA-MCS)          fenced lease over the topology-aware MCS lock
//   Lease(RMA-MCS)+restart  same, with the victim rebooting and rejoining
//   Lease(RMA-RW)           fenced lease over RMA-RW writer mode
//   LockSpace reclaim       administrative recover_orphans() sweep over a
//                           lock space with one orphaned named lease
#include "common/check.hpp"
#include "fig_helpers.hpp"
#include "harness/stats.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/factory.hpp"
#include "locks/lease.hpp"

namespace rmalock::bench {
namespace {

struct RecoveryResult {
  bool recovered = false;   // a survivor was granted the lock after the crash
  double recovery_us = 0;   // crash -> first post-crash grant
  u64 crashes = 0;
};

/// One seeded repetition: P processes loop acquire/compute/release on a
/// fenced lease; the victim (rank P-1) dies at its second grant while
/// holding the lease. Survivors keep looping until one of them observes a
/// post-crash grant, so the recovery event is measured in every rep even
/// when the victim's grant was globally last.
RecoveryResult measure_recovery(const BenchEnv& env, i32 p, u64 rep,
                                locks::Backend inner_backend, bool restart) {
  rma::SimOptions options = env.sim_options_for(p);
  options.seed = mix_seed(options.seed, 1000 + rep);
  options.max_crashes = 1;
  options.crash_chance_permille = 1000;  // the armed point fires for sure
  options.restart_crashed = restart;
  auto world = rma::SimWorld::create(options);
  auto inner = locks::make_exclusive(inner_backend, *world);
  locks::LeaseExclusive lease(*world, std::move(inner), locks::LeaseParams{});

  const Rank victim = static_cast<Rank>(p - 1);
  const i32 iters = env.ops_for(p, /*total_target=*/1500, /*min_ops=*/4);
  Nanos crash_ns = -1;
  Nanos recovery_ns = -1;
  const rma::RunResult run = world->run([&](rma::RmaComm& comm) {
    const bool is_victim = comm.rank() == victim;
    for (i32 i = 0;; ++i) {
      if (i >= iters && (is_victim || recovery_ns >= 0)) break;
      (void)lease.acquire_epoch(comm);
      const Nanos grant = comm.now_ns();
      if (!is_victim && crash_ns >= 0 && recovery_ns < 0) {
        recovery_ns = grant - crash_ns;
      }
      // Jittered hold/think times (per-process streams reseeded per rep):
      // without them the virtual-time schedule is identical across reps
      // and the reported distribution would be degenerate.
      comm.compute(150 + static_cast<Nanos>(comm.rng().below(100)));
      if (is_victim && i == 1) {
        // Stamp the crash time only if the crash actually fires: a
        // restarted victim re-runs this line with the budget spent, and
        // must not move the stamp (restore on the survive path).
        const Nanos before = crash_ns;
        crash_ns = grant;
        comm.crash_point();  // dies here, holding the lease
        crash_ns = before;
      }
      lease.release(comm);
      comm.compute(50 + static_cast<Nanos>(comm.rng().below(150)));
    }
  });
  RMALOCK_CHECK_MSG(run.ok(), "crash-recovery bench run failed");

  RecoveryResult result;
  result.crashes = run.crashes;
  result.recovered = recovery_ns >= 0;
  result.recovery_us = static_cast<double>(recovery_ns) / 1e3;
  return result;
}

struct ReclaimResult {
  bool exact = false;       // recover_orphans reclaimed exactly the orphan
  double reclaim_us = 0;    // crash -> administrative sweep completed
};

/// LockSpace administrative recovery: the victim takes a handful of
/// named lease locks, dies holding one of them, and a survivor runs
/// recover_orphans() once the failure detector flags the victim — exactly
/// one lease may be reclaimed, and the orphaned name must be acquirable
/// again afterwards.
ReclaimResult measure_space_reclaim(const BenchEnv& env, i32 p, u64 rep) {
  rma::SimOptions options = env.sim_options_for(p);
  options.seed = mix_seed(options.seed, 2000 + rep);
  options.max_crashes = 1;
  options.crash_chance_permille = 1000;
  auto world = rma::SimWorld::create(options);
  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kLeaseMcs;
  lockspace::LockSpace space(*world, config);

  const Rank victim = static_cast<Rank>(p - 1);
  constexpr u64 kKeys = 8;
  constexpr u64 kOrphanKey = 3;
  Nanos crash_ns = -1;
  Nanos reclaim_ns = -1;
  u64 reclaimed = 0;
  const rma::RunResult run = world->run([&](rma::RmaComm& comm) {
    if (comm.rank() == victim) {
      // Take several slots so the sweep has used-but-free leases to
      // correctly skip, then die holding one of them.
      for (u64 key = 0; key < kKeys; ++key) {
        space.acquire(comm, key);
        space.release(comm, key);
      }
      space.acquire(comm, kOrphanKey);
      crash_ns = comm.now_ns();
      comm.crash_point();
      space.release(comm, kOrphanKey);
    } else if (comm.rank() == 0) {
      while (!comm.suspected(victim)) comm.compute(500);
      reclaimed = space.recover_orphans(comm);
      reclaim_ns = comm.now_ns();
      // The orphaned name must serve new claimants immediately.
      space.acquire(comm, kOrphanKey);
      space.release(comm, kOrphanKey);
    }
  });
  RMALOCK_CHECK_MSG(run.ok(), "lockspace reclaim bench run failed");

  ReclaimResult result;
  result.exact = reclaimed == 1 && crash_ns >= 0 && reclaim_ns >= crash_ns;
  result.reclaim_us = static_cast<double>(reclaim_ns - crash_ns) / 1e3;
  return result;
}

/// Aggregates one series point from `reps` independent repetitions.
FigureReport::SeriesPoint recovery_point(const BenchEnv& env,
                                         const std::string& series, i32 p,
                                         u64 reps, locks::Backend inner,
                                         bool restart) {
  std::vector<double> latencies;
  u64 recovered = 0;
  u64 crashes = 0;
  for (u64 rep = 0; rep < reps; ++rep) {
    const RecoveryResult r = measure_recovery(env, p, rep, inner, restart);
    if (r.recovered) {
      ++recovered;
      latencies.push_back(r.recovery_us);
    }
    crashes += r.crashes;
  }
  const harness::Summary s = harness::summarize(latencies);
  FigureReport::SeriesPoint point;
  point.series = series;
  point.p = p;
  point.metrics = {
      {"recovery_us_mean", s.mean},
      {"recovery_us_p50", s.median},
      {"recovery_us_p95", s.p95},
      {"recovered_frac",
       static_cast<double>(recovered) / static_cast<double>(reps)},
      {"crashes_per_rep",
       static_cast<double>(crashes) / static_cast<double>(reps)},
  };
  return point;
}

FigureReport::SeriesPoint reclaim_point(const BenchEnv& env, i32 p,
                                        u64 reps) {
  std::vector<double> latencies;
  u64 exact = 0;
  for (u64 rep = 0; rep < reps; ++rep) {
    const ReclaimResult r = measure_space_reclaim(env, p, rep);
    if (r.exact) ++exact;
    latencies.push_back(r.reclaim_us);
  }
  const harness::Summary s = harness::summarize(latencies);
  FigureReport::SeriesPoint point;
  point.series = "LockSpace reclaim";
  point.p = p;
  point.metrics = {
      {"recovery_us_mean", s.mean},
      {"recovery_us_p50", s.median},
      {"recovery_us_p95", s.p95},
      {"exact_reclaim_frac",
       static_cast<double>(exact) / static_cast<double>(reps)},
  };
  return point;
}

}  // namespace
}  // namespace rmalock::bench

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  const u64 reps = env.smoke ? 3 : (env.quick ? 6 : 12);
  FigureReport report(
      "fig-crash-recovery",
      "Lease recovery latency [us] vs P (mid-CS victim, fenced reclaim)",
      "every injected crash is recovered by an epoch-fenced steal; the "
      "administrative LockSpace sweep reclaims exactly the orphaned lease");

  std::vector<std::function<FigureReport::SeriesPoint()>> tasks;
  for (const i32 p : env.ps) {
    tasks.push_back([&env, p, reps] {
      return recovery_point(env, "Lease(RMA-MCS)", p, reps,
                            locks::Backend::kRmaMcs, /*restart=*/false);
    });
    tasks.push_back([&env, p, reps] {
      return recovery_point(env, "Lease(RMA-MCS)+restart", p, reps,
                            locks::Backend::kRmaMcs, /*restart=*/true);
    });
    tasks.push_back([&env, p, reps] {
      return recovery_point(env, "Lease(RMA-RW)", p, reps,
                            locks::Backend::kRmaRw, /*restart=*/false);
    });
    tasks.push_back([&env, p, reps] { return reclaim_point(env, p, reps); });
  }
  run_point_tasks(env, report, tasks);

  // Jobs-determinism self-check (virtual-time metrics are jobs-invariant).
  check_jobs_invariant(report, [&] {
    return recovery_point(env, "probe", env.ps.front(), reps,
                          locks::Backend::kRmaMcs, /*restart=*/false);
  });

  bool all_recovered = true;
  bool one_crash_per_rep = true;
  bool all_exact = true;
  for (const i32 p : env.ps) {
    for (const char* series :
         {"Lease(RMA-MCS)", "Lease(RMA-MCS)+restart", "Lease(RMA-RW)"}) {
      all_recovered =
          all_recovered && report.value(series, p, "recovered_frac") == 1.0;
      one_crash_per_rep = one_crash_per_rep &&
                          report.value(series, p, "crashes_per_rep") == 1.0;
    }
    all_exact = all_exact &&
                report.value("LockSpace reclaim", p, "exact_reclaim_frac") ==
                    1.0;
  }
  report.check("every injected crash is recovered", all_recovered,
               "first post-crash grant observed in every rep, every series");
  report.check("exactly one crash fires per rep", one_crash_per_rep,
               "the armed mid-CS crash point is deterministic");
  report.check("recover_orphans reclaims exactly the orphaned lease",
               all_exact,
               "one reclaim per sweep; free leases and live owners skipped");
  {
    // Recovery is a constant number of lease-word round trips once the
    // detector fires — it must not blow up with P like a full lock
    // handover storm would. Allow generous headroom for queue drain.
    const i32 pmin = env.ps.front();
    const i32 pmax = env.ps.back();
    const double small_p =
        report.value("Lease(RMA-MCS)", pmin, "recovery_us_p50");
    const double large_p =
        report.value("Lease(RMA-MCS)", pmax, "recovery_us_p50");
    report.check("recovery latency stays bounded as P grows",
                 small_p > 0.0 && large_p < 100.0 * small_p,
                 "p50 at max P within 100x of p50 at min P");
  }
  report.print();
  return report.all_checks_passed() ? 0 : 1;
}
