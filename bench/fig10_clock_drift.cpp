// Figure 10 (beyond the paper): wall-clock lease safety and reclaim
// latency under clock drift — the end-to-end fencing-token story of
// src/locks/timed_lease.hpp measured as a sweep instead of model-checked:
//
//   suspicion  Lease(RMA-MCS): detector-based recovery, no wall-clock
//              reads at all. Immune to drift by construction, but it
//              cannot reclaim an *abandoned* lease (nobody crashed, so
//              the detector never fires) — holders in this mode always
//              release, which is exactly the limitation the timed modes
//              exist to lift.
//   timed      TimedLease over a LockSpace with skip_token_check: leases
//              expire by time, reclaims wait duration + margin on the
//              claimant's clock, and the resource trusts every write. The
//              classic deployment — and the one drift breaks: a slow
//              holder's stale write COMMITS (stale_token_commits > 0).
//   fenced     the same TimedLease with LockSpace::write_payload_fenced
//              validating the grant-epoch fencing token: the stale write
//              is rejected at the resource, so even a zero-margin lease
//              admits no stale commit — margins shrink the belief-overlap
//              window; fencing is what closes the data hazard.
//
// Sweep: drift severity (off / moderate / severe rate+skew mixes) x
// claimant safety margin (0 / 10 us / 40 us). Every other hold is
// *abandoned* (the holder walks away without releasing, then sits out),
// so reclaims are exercised on every schedule: the margin buys safety at
// the price of reclaim latency, and the shape checks pin both directions
// of that trade plus the fencing guarantee.
//
// P stays small ({2,4,8} instead of the global sweep): a timed claimant
// cannot park on the lease word (an abandoned holder never writes it), so
// waiters burn a probe op every kProbeNs — aggregate probe cost scales
// with P x wait time, and the drift hazard is pairwise anyway.
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
#include "locks/timed_lease.hpp"
#include "mc/monitor.hpp"

namespace rmalock::bench {
namespace {

/// One drift severity: budget, per-op chance, worst-case rate error and
/// skew step (SimOptions equivalents; "off" keeps every clock perfect).
struct DriftMix {
  const char* tag;
  i32 max_events = 0;
  u32 chance_permille = 0;
  u32 rate_permille = 0;
  Nanos skew_window = 0;
};

enum class Mode { kSuspicion, kTimed, kFenced };

struct ModeDef {
  const char* name;
  Mode mode;
};

rma::SimOptions mix_options(const BenchEnv& env, i32 p, const DriftMix& mix) {
  // Flat topologies below the global sweep's node size (see the header
  // comment on why P stays small), so BenchEnv::sim_options_for does not
  // apply here.
  rma::SimOptions options;
  options.topology = topo::Topology::uniform({}, p);
  options.seed = env.seed;
  options.max_drift_events = mix.max_events;
  options.drift_chance_permille = mix.chance_permille;
  options.max_drift_permille = mix.rate_permille;
  options.skew_window = mix.skew_window;
  return options;
}

FigureReport::SeriesPoint measure_point(const BenchEnv& env, i32 p,
                                        const std::string& series, Mode mode,
                                        Nanos margin_ns, const DriftMix& mix,
                                        i32 acquires_total) {
  auto world = rma::SimWorld::create(mix_options(env, p, mix));

  locks::TimedLeaseParams lease_params;
  lease_params.safety_margin_ns = margin_ns;
  std::unique_ptr<locks::TimedLease> timed;
  std::unique_ptr<locks::LeaseExclusive> suspicion;
  if (mode == Mode::kSuspicion) {
    suspicion = std::make_unique<locks::LeaseExclusive>(
        *world, locks::make_exclusive(locks::Backend::kRmaMcs, *world),
        locks::LeaseParams{});
  } else {
    timed = std::make_unique<locks::TimedLease>(*world, lease_params);
  }

  lockspace::LockSpaceConfig space_config;
  space_config.backend = locks::Backend::kRmaMcs;
  space_config.shards = 1;
  space_config.slots_per_shard = 1;
  space_config.payload_words = 2;
  space_config.skip_token_check = mode == Mode::kTimed;
  lockspace::LockSpace space(*world, space_config);

  const Nanos duration = locks::TimedLease::kDurationNs;
  const i32 ops = std::max(6, acquires_total / p);
  std::vector<std::vector<double>> lat(static_cast<usize>(p));
  std::vector<Nanos> end_ns(static_cast<usize>(p), 0);
  mc::WallClockLeaseMonitor monitor;
  u64 commits = 0;
  u64 fenced_out = 0;
  const rma::RunResult run = world->run([&](rma::RmaComm& comm) {
    auto& my_lat = lat[static_cast<usize>(comm.rank())];
    my_lat.reserve(static_cast<usize>(ops));
    std::vector<i64> buf(2, 0);
    // Staggered start so the first acquires don't all collide at t=0.
    comm.compute(static_cast<Nanos>(
        comm.rng().below(static_cast<u64>(p) * 10'000)));
    for (i32 i = 0; i < ops; ++i) {
      const Nanos start = comm.now_ns();
      i64 token = 0;
      if (mode == Mode::kSuspicion) {
        token = suspicion->acquire_epoch(comm);
      } else {
        token = timed->acquire_token(comm);
      }
      my_lat.push_back(static_cast<double>(comm.now_ns() - start) / 1e3);
      // Hold to the edge of the belief window: check still_valid, age the
      // belief a quarter duration, THEN write — the check-then-act pattern
      // every real lease client has, so a round's last write lands AT the
      // belief boundary. With honest clocks the claimant's kReclaimGraceNs
      // covers that in-flight final write; a drift-slow clock stretches the
      // same local schedule past the grace in real time — the stale writes
      // the fencing token must reject. The suspicion baseline has no
      // wall-clock belief, so it writes a fixed four rounds (the same hold
      // length under perfect clocks).
      monitor.session_begin(comm.rank(), comm.now_ns());
      for (i32 w = 0; w < 8; ++w) {
        if (mode == Mode::kSuspicion ? (w >= 4) : !timed->still_valid(comm)) {
          break;
        }
        // A fresh grantee writes immediately; later rounds age the belief
        // first, so a lying clock's final round writes past the boundary.
        if (w > 0) comm.compute(duration / 4);
        std::fill(buf.begin(), buf.end(), token);
        bool accepted = true;
        i64 admitted = 0;
        if (mode == Mode::kSuspicion) {
          admitted = space.write_payload(comm, /*key=*/0, buf.data(),
                                         buf.size());
        } else {
          accepted = space.write_payload_fenced(comm, /*key=*/0, token,
                                                buf.data(), buf.size(),
                                                &admitted);
        }
        monitor.commit(token, accepted,
                       admitted & lockspace::LockSpace::kTokenSeqMask);
        if (accepted) {
          ++commits;
        } else {
          ++fenced_out;
          break;  // fenced out: this grant is stale, stop writing
        }
      }
      monitor.session_end(comm.rank(), comm.now_ns());
      // Rank-staggered holds are ABANDONED: no release, the next claimant
      // has to wait out duration + margin on its own clock. (Staggering by
      // rank keeps one releasing rank per round — if every rank abandoned
      // the same rounds, the fleet would phase-lock into self-re-takes and
      // no timed reclaim would ever happen.) The abandoner then sits out
      // past every claimant's reclaim point, with a jittered tail so runs
      // do not tie-break reclaims against self-re-takes, so it does not
      // simply re-take its own lease (owner self-re-acquire is free). The
      // suspicion mode always releases — an abandoned detector-based lease
      // would block the lock forever (see the header comment).
      const bool abandon =
          mode != Mode::kSuspicion && (i + comm.rank()) % 2 == 1;
      if (abandon) {
        comm.compute(2 * (duration + lease_params.safety_margin_ns) +
                     static_cast<Nanos>(
                         comm.rng().below(static_cast<u64>(duration))));
      } else if (mode == Mode::kSuspicion) {
        suspicion->release(comm);
      } else {
        timed->release(comm);
      }
      comm.compute(1'000 + static_cast<Nanos>(comm.rng().below(8'000)));
    }
    end_ns[static_cast<usize>(comm.rank())] = comm.now_ns();
  });
  RMALOCK_CHECK_MSG(run.ok(), "fig10 bench run failed");

  std::vector<double> all;
  for (const auto& per_rank : lat) {
    all.insert(all.end(), per_rank.begin(), per_rank.end());
  }
  std::sort(all.begin(), all.end());
  const Nanos makespan = *std::max_element(end_ns.begin(), end_ns.end());
  const harness::Summary lat_summary = harness::summarize(all);

  FigureReport::SeriesPoint point;
  point.series = series;
  point.p = p;
  point.metrics = {
      {"lat_us_mean", lat_summary.mean},
      {"lat_us_p99", harness::percentile_sorted(all, 99.0)},
      {"commits", static_cast<double>(commits)},
      {"fenced_out", static_cast<double>(fenced_out)},
      {"belief_overlaps", static_cast<double>(monitor.belief_overlaps())},
      {"stale_token_commits", static_cast<double>(monitor.stale_commits())},
      {"goodput_mops_s",
       makespan > 0
           ? static_cast<double>(commits) * 1e3 / static_cast<double>(makespan)
           : 0.0},
      {"injected_drift_events", static_cast<double>(run.drift_events)}};
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
      "fig10",
      "Wall-clock lease safety and reclaim latency [us] under clock drift "
      "(drift severity x safety margin)",
      "fencing tokens admit zero stale commits at every margin including "
      "zero, while the unfenced timed lease commits stale writes under "
      "severe drift; the margin monotonically trades reclaim latency "
      "against belief overlaps");

  // Local P sweep (see the header comment): probe-loop cost scales with
  // P x wait time, and the hazard is pairwise.
  const std::vector<i32> ps = env.smoke ? std::vector<i32>{2}
                                        : std::vector<i32>{2, 4, 8};
  const i32 acquires_total = env.quick ? 48 : 120;

  std::vector<DriftMix> mixes = {
      {"off", 0, 0, 0, 0},
      {"moderate", 8, 100, 50, 1'000},
      {"severe", 16, 200, 200, 2'000},
  };
  // Smoke keeps the two severities the shape checks read.
  if (env.smoke) mixes.erase(mixes.begin() + 1);
  const Nanos margins[] = {0, 10'000, 40'000};
  const auto margin_tag = [](Nanos m) {
    // Appended, not "m" + to_string(...): GCC 12 reports a false-positive
    // -Wrestrict on that operator+.
    std::string tag = "m";
    tag += std::to_string(m / 1000);
    if (m != 0) tag += 'k';
    return tag;
  };
  const ModeDef modes[] = {{"timed", Mode::kTimed},
                           {"fenced", Mode::kFenced}};

  std::vector<std::function<FigureReport::SeriesPoint()>> points;
  for (const i32 p : ps) {
    for (const DriftMix& mix : mixes) {
      // Suspicion baseline: no margin knob, one series per severity.
      const std::string series = std::string("suspicion/") + mix.tag;
      points.push_back({[&env, p, series, &mix, acquires_total] {
        return measure_point(env, p, series, Mode::kSuspicion, 0, mix,
                             acquires_total);
      }});
      for (const ModeDef& md : modes) {
        for (const Nanos margin : margins) {
          const std::string s = std::string(md.name) + "/" +
                                margin_tag(margin) + "/" + mix.tag;
          const Mode mode = md.mode;
          points.push_back({[&env, p, s, mode, margin, &mix, acquires_total] {
            return measure_point(env, p, s, mode, margin, mix,
                                 acquires_total);
          }});
        }
      }
    }
  }
  run_point_tasks(env, report, points);

  // Jobs-determinism self-check (virtual-time metrics are jobs-invariant).
  const i32 p0 = ps.front();
  check_jobs_invariant(report, [&] {
    return measure_point(env, p0, "probe", Mode::kFenced, 0, mixes.back(),
                         acquires_total);
  });

  const i32 pmax = ps.back();

  // Fencing: zero stale-token commits at EVERY margin (including zero)
  // under the worst drift — the end-to-end guarantee the tokens exist for.
  bool fenced_clean = true;
  for (const Nanos margin : margins) {
    for (const DriftMix& mix : mixes) {
      fenced_clean =
          fenced_clean &&
          report.value("fenced/" + margin_tag(margin) + "/" + mix.tag, pmax,
                       "stale_token_commits") == 0.0;
    }
  }
  report.check("fencing admits zero stale-token commits", fenced_clean,
               "fenced mode, every margin x severity at max P");

  report.check(
      "unfenced zero-margin lease commits stale writes under severe drift",
      report.value("timed/m0/severe", pmax, "stale_token_commits") > 0.0,
      "the classic hazard the fencing token closes (timed/m0/severe at "
      "max P)");

  report.check(
      "zero-margin beliefs overlap under severe drift",
      report.value("fenced/m0/severe", pmax, "belief_overlaps") > 0.0,
      "a drift-slow holder still believes while the claimant reclaims");

  const double ov_m0 = report.value("fenced/m0/severe", pmax,
                                    "belief_overlaps");
  const double ov_m10 = report.value("fenced/m10k/severe", pmax,
                                     "belief_overlaps");
  const double ov_m40 = report.value("fenced/m40k/severe", pmax,
                                     "belief_overlaps");
  report.check("safety margin monotonically removes belief overlaps",
               ov_m0 >= ov_m10 && ov_m10 >= ov_m40 && ov_m40 == 0.0,
               "fenced mode under severe drift: overlaps(m0) >= "
               "overlaps(m10k) >= overlaps(m40k) == 0 at max P");

  const double lat_m0 = report.value("fenced/m0/off", pmax, "lat_us_mean");
  const double lat_m10 = report.value("fenced/m10k/off", pmax, "lat_us_mean");
  const double lat_m40 = report.value("fenced/m40k/off", pmax, "lat_us_mean");
  report.check("safety margin monotonically costs reclaim latency",
               lat_m0 < lat_m10 && lat_m10 < lat_m40,
               "fenced mode, perfect clocks: every other hold is abandoned, "
               "so mean acquire latency tracks duration + margin at max P");

  bool suspicion_clean = true;
  for (const DriftMix& mix : mixes) {
    suspicion_clean =
        suspicion_clean &&
        report.value(std::string("suspicion/") + mix.tag, pmax,
                     "belief_overlaps") == 0.0 &&
        report.value(std::string("suspicion/") + mix.tag, pmax,
                     "stale_token_commits") == 0.0;
  }
  report.check("detector-based baseline is drift-immune", suspicion_clean,
               "suspicion-lease reads no wall clocks: clean at every "
               "severity at max P");

  report.check(
      "drift events were actually injected",
      report.value("fenced/m0/severe", pmax, "injected_drift_events") > 0.0,
      "the severe mix consumed clock-drift budget at max P");
  report.print();
  return report.all_checks_passed() ? 0 : 1;
}
