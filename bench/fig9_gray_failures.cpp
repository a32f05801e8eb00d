// Figure 9 (beyond the paper): acquire latency tails and goodput under
// gray failures — stragglers and transient partitions — for three acquire
// disciplines on the same contended lock word:
//
//   blocking   Lease(RMA-MCS) acquire_epoch: queues through the inner MCS
//              lock and waits out whatever the network does. Its latency
//              tail tracks the injected fault severity directly — double
//              the partition span and the p99 doubles with it.
//   deadline   the same lease via try_acquire_for: single-word probe/claim
//              try ops that fail fast against a partitioned home, plus
//              capped exponential backoff. Worst case per acquire is the
//              deadline, independent of the partition span.
//   degraded   LockSpace<lease-mcs> with quarantine_after armed: timed
//              acquires feed per-shard health scoring; consecutive
//              timeouts quarantine the shard, later acquires fail fast
//              with kDegraded (bounded latency, surrendered goodput), and
//              a periodic health reset re-probes the shard — the
//              fail-fast/recover loop a lock service runs per shard.
//
// The x-axis is the injected fault mix (straggler rate x partition span),
// series are discipline/mix pairs, columns sweep P as usual. The paper has
// no counterpart figure — its network is fail-free (README "Failure
// model"); this is the robustness claim for the deadline/retry/backoff
// path: bounded tails under the same schedules that unbound the blocking
// baseline.
//
// Campaign parallelism: --jobs N measures sweep points on the TaskPool;
// virtual-time metrics are bit-identical to --jobs 1, and the binary
// self-checks one point measured inline against a pooled measurement.
#include <algorithm>

#include "common/check.hpp"
#include "fig_helpers.hpp"
#include "harness/stats.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/factory.hpp"
#include "locks/lease.hpp"

namespace rmalock::bench {
namespace {

/// Per-acquire deadline for the timed disciplines. Far above the
/// uncontended acquire cost (~2 us of remote round trips) and far below
/// the partition spans, so a timeout means "the network is gray", not
/// "the lock is busy". The workload keeps lock utilization low (think
/// time scales with P) for the same reason: a deadline can only classify
/// the network when ordinary queueing stays well below it.
constexpr Nanos kDeadlineNs = 50'000;

/// One injected fault mix. The shared chance knob draws per remote op;
/// budgets bound the totals so "span" stays the controlled variable.
struct FaultMix {
  const char* tag;
  u32 chance_permille = 0;  // 0 = fault-free
  i32 max_delays = 0;
  i64 delay_factor = 32;
  i32 max_partitions = 0;
  Nanos partition_span = 0;
};

enum class Mode { kBlocking, kDeadline, kDegraded };

struct ModeDef {
  const char* name;
  Mode mode;
};

rma::SimOptions mix_options(const BenchEnv& env, i32 p, const FaultMix& mix) {
  rma::SimOptions options = env.sim_options_for(p);
  options.delay_chance_permille = mix.chance_permille;
  options.max_delays = mix.max_delays;
  options.delay_factor = mix.delay_factor;
  options.max_partitions = mix.max_partitions;
  options.partition_span = mix.partition_span;
  return options;
}

FigureReport::SeriesPoint measure_point(const BenchEnv& env, i32 p,
                                        const std::string& series, Mode mode,
                                        const FaultMix& mix) {
  auto world = rma::SimWorld::create(mix_options(env, p, mix));

  // Both lease disciplines share one lock; the degraded discipline wraps
  // the same lease backend in a one-shard LockSpace so the quarantine
  // health scoring sits in front of it.
  std::unique_ptr<locks::LeaseExclusive> lease;
  std::unique_ptr<lockspace::LockSpace> space;
  if (mode == Mode::kDegraded) {
    lockspace::LockSpaceConfig config;
    config.backend = locks::Backend::kLeaseMcs;
    config.shards = 1;
    config.slots_per_shard = 1;
    config.quarantine_after = 2;
    space = std::make_unique<lockspace::LockSpace>(*world, config);
  } else {
    lease = std::make_unique<locks::LeaseExclusive>(
        *world, locks::make_exclusive(locks::Backend::kRmaMcs, *world),
        locks::LeaseParams{});
  }

  const i32 ops = env.ops_for(p, env.quick ? 3000 : 8000, /*min_ops=*/8);
  std::vector<std::vector<double>> lat(static_cast<usize>(p));
  std::vector<Nanos> end_ns(static_cast<usize>(p), 0);
  u64 successes = 0;
  u64 timeouts = 0;
  u64 fastfails = 0;
  const locks::RetryPolicy retry;
  const rma::RunResult run = world->run([&](rma::RmaComm& comm) {
    auto& my_lat = lat[static_cast<usize>(comm.rank())];
    my_lat.reserve(static_cast<usize>(ops));
    i32 degraded_streak = 0;
    // Staggered start: without it every rank's first acquire collides at
    // t=0 and the queueing transient alone blows the deadline.
    comm.compute(static_cast<Nanos>(
        comm.rng().below(static_cast<u64>(p) * 30'000)));
    for (i32 i = 0; i < ops; ++i) {
      const Nanos start = comm.now_ns();
      bool held = false;
      if (mode == Mode::kBlocking) {
        (void)lease->acquire_epoch(comm);
        held = true;
      } else if (mode == Mode::kDeadline) {
        const locks::AcquireResult r =
            lease->try_acquire_for(comm, start + kDeadlineNs, retry);
        held = r.ok();
        if (!held) ++timeouts;
      } else {
        const locks::AcquireResult r =
            space->try_acquire_for(comm, /*key=*/0, start + kDeadlineNs, retry);
        held = r.ok();
        if (r.status == locks::AcquireStatus::kTimeout) ++timeouts;
        if (r.status == locks::AcquireStatus::kDegraded) {
          ++fastfails;
          // Health-prober cadence: after a few fail-fast rejections, back
          // off for one deadline and re-admit the shard for a probe.
          if (++degraded_streak >= 4) {
            degraded_streak = 0;
            comm.compute(kDeadlineNs);
            space->reset_shard_health(0);
          }
        } else {
          degraded_streak = 0;
        }
      }
      my_lat.push_back(static_cast<double>(comm.now_ns() - start) / 1e3);
      if (held) {
        ++successes;
        comm.compute(500);  // critical section
        if (mode == Mode::kDegraded) {
          space->release(comm, /*key=*/0);
        } else {
          lease->release(comm);
        }
      }
      // Jittered think time scaling with P keeps lock utilization near
      // 25% at every P, so queueing stays well below the deadline and a
      // timeout is the network's fault (see kDeadlineNs).
      comm.compute(1'000 + static_cast<Nanos>(comm.rng().below(
                               static_cast<u64>(p) * 30'000)));
    }
    end_ns[static_cast<usize>(comm.rank())] = comm.now_ns();
  });
  RMALOCK_CHECK_MSG(run.ok(), "fig9 bench run failed");

  std::vector<double> all;
  for (const auto& per_rank : lat) {
    all.insert(all.end(), per_rank.begin(), per_rank.end());
  }
  std::sort(all.begin(), all.end());
  const Nanos makespan = *std::max_element(end_ns.begin(), end_ns.end());
  const u64 total_ops = static_cast<u64>(p) * static_cast<u64>(ops);

  FigureReport::SeriesPoint point;
  point.series = series;
  point.p = p;
  point.metrics = {
      {"lat_us_p50", harness::percentile_sorted(all, 50.0)},
      {"lat_us_p99", harness::percentile_sorted(all, 99.0)},
      {"lat_us_p999", harness::percentile_sorted(all, 99.9)},
      {"goodput_mops_s",
       makespan > 0 ? static_cast<double>(successes) * 1e3 /
                          static_cast<double>(makespan)
                    : 0.0},
      {"ok_frac",
       static_cast<double>(successes) / static_cast<double>(total_ops)},
      {"timeouts", static_cast<double>(timeouts)},
      {"degraded_fastfails", static_cast<double>(fastfails)},
      {"injected_delays", static_cast<double>(run.delays)},
      {"injected_partitions", static_cast<double>(run.partitions)}};
  return point;
}

}  // namespace
}  // namespace rmalock::bench

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      "fig9",
      "Acquire latency tails and goodput [us, mln acq/s] under gray "
      "failures (straggler rate x partition span)",
      "deadline+backoff and degraded-mode LockSpace hold a bounded p99 "
      "(~the acquire deadline) under the same injected schedules that "
      "scale the blocking baseline's tail with the partition span");

  const FaultMix mixes[] = {
      {"clean", 0, 0, 32, 0, 0},
      {"delay", 100, 256, 32, 0, 0},
      {"part=150us", 20, 0, 32, 32, 150'000},
      {"part=600us", 20, 0, 32, 32, 600'000},
      {"gray", 60, 256, 32, 32, 600'000},
  };
  const ModeDef modes[] = {{"blocking", Mode::kBlocking},
                           {"deadline", Mode::kDeadline},
                           {"degraded", Mode::kDegraded}};

  std::vector<std::function<FigureReport::SeriesPoint()>> points;
  for (const i32 p : env.ps) {
    for (const ModeDef& md : modes) {
      for (const FaultMix& mix : mixes) {
        const std::string series = std::string(md.name) + "/" + mix.tag;
        const Mode mode = md.mode;
        points.push_back({[&env, p, series, mode, &mix] {
          return measure_point(env, p, series, mode, mix);
        }});
      }
    }
  }
  run_point_tasks(env, report, points);

  // Jobs-determinism self-check (virtual-time metrics are jobs-invariant).
  const i32 p0 = env.ps.front();
  check_jobs_invariant(report, [&] {
    return measure_point(env, p0, "probe", Mode::kDeadline, mixes[4]);
  });

  const i32 pmax = env.ps.back();
  const double deadline_us = static_cast<double>(kDeadlineNs) / 1e3;

  // Blocking completes everything by construction; the timed disciplines
  // may rarely lose an acquire to tail queueing just over the deadline —
  // that is the price of a timed discipline, not a gray failure, so the
  // clean bar for them is "essentially all".
  bool clean_complete =
      report.value("blocking/clean", pmax, "ok_frac") == 1.0;
  for (const char* timed : {"deadline", "degraded"}) {
    clean_complete =
        clean_complete &&
        report.value(std::string(timed) + "/clean", pmax, "ok_frac") >= 0.995;
  }
  report.check("fault-free runs complete every acquire", clean_complete,
               "blocking ok_frac == 1, timed disciplines >= 99.5%, clean mix "
               "at max P");

  const double block_p99_short =
      report.value("blocking/part=150us", pmax, "lat_us_p99");
  const double block_p99_long =
      report.value("blocking/part=600us", pmax, "lat_us_p99");
  report.check("blocking tail scales with the partition span",
               block_p99_long > block_p99_short &&
                   block_p99_long > 2.0 * deadline_us,
               "blocking p99 at span 600us vs 150us at max P");

  const double ddl_p99 = report.value("deadline/gray", pmax, "lat_us_p99");
  report.check("deadline+backoff holds a bounded p99 under gray failures",
               ddl_p99 <= 4.0 * deadline_us && ddl_p99 < block_p99_long,
               "deadline p99 under the gray mix vs 4x deadline (a straggled "
               "op can deliver late) and vs the blocking tail at max P");

  const double degr_p999 = report.value("degraded/gray", pmax, "lat_us_p999");
  report.check("degraded-mode LockSpace holds a bounded p99.9",
               degr_p999 <= 8.0 * deadline_us && degr_p999 < block_p99_long,
               "degraded p99.9 under the gray mix (worst case: one timed "
               "probe + prober backoff) vs the blocking tail at max P");

  report.check(
      "timed disciplines keep goodput under gray failures",
      report.value("deadline/gray", pmax, "goodput_mops_s") > 0.0 &&
          report.value("degraded/gray", pmax, "goodput_mops_s") > 0.0,
      "successful acquires per virtual second stay nonzero at max P");

  report.check(
      "faults were actually injected",
      report.value("blocking/gray", pmax, "injected_delays") > 0.0 &&
          report.value("blocking/gray", pmax, "injected_partitions") > 0.0,
      "the gray mix consumed straggler and partition budget at max P");
  report.print();
  return report.all_checks_passed() ? 0 : 1;
}
