// Shared sweep drivers for the figure-reproduction binaries.
//
// Sweeps are fleets of independent SimWorld runs: every (series, P) point
// derives everything from the BenchEnv and its own parameters, so the
// helpers here measure points through a TaskPool (--jobs / RMALOCK_JOBS;
// default 1 = every point in order on the calling thread) and merge the
// results into the FigureReport in canonical sweep order. Virtual-time
// metrics are bit-identical at any jobs value; only wall clock changes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_common.hpp"
#include "harness/microbench.hpp"
#include "harness/task_pool.hpp"
#include "locks/d_mcs.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::bench {

using harness::BenchEnv;
using harness::BenchResult;
using harness::FigureReport;
using harness::MicrobenchConfig;
using harness::Workload;

inline locks::RmaMcsParams default_mcs_params(const topo::Topology& topo) {
  locks::RmaMcsParams params;
  params.locality.assign(static_cast<usize>(topo.num_levels()), 32);
  return params;
}

inline locks::RmaRwParams rw_params(const topo::Topology& topo, i32 tdc,
                                    i64 tl_leaf, i64 tl_root, i64 tr) {
  locks::RmaRwParams params;
  params.tdc = tdc;
  params.locality.assign(static_cast<usize>(topo.num_levels()), tl_leaf);
  params.locality[0] = tl_root;
  params.tr = tr;
  return params;
}

/// The headline metrics every figure records for one (series, P) point.
inline FigureReport::SeriesPoint point_metrics(const std::string& series,
                                               i32 p,
                                               const BenchResult& result) {
  FigureReport::SeriesPoint point;
  point.series = series;
  point.p = p;
  point.metrics = {{"throughput_mlocks_s", result.throughput_mlocks_s},
                   {"latency_us_mean", result.latency_us.mean},
                   {"latency_us_p50", result.latency_us.median},
                   {"latency_us_p95", result.latency_us.p95}};
  return point;
}

/// Measures one exclusive-lock configuration (no report side effects —
/// safe to call from a TaskPool worker).
inline BenchResult measure_exclusive_point(
    const BenchEnv& env, i32 p, Workload workload, i32 total_ops,
    const std::function<std::unique_ptr<locks::ExclusiveLock>(rma::World&)>&
        factory) {
  auto world = rma::SimWorld::create(env.sim_options_for(p));
  const auto lock = factory(*world);
  MicrobenchConfig config;
  config.workload = workload;
  config.ops_per_proc = env.ops_for(p, total_ops);
  return harness::run_exclusive_bench(*world, *lock, config);
}

/// Virtual measurement window for RW benchmarks at process count p: sized
/// so the aggregate op count stays bounded as P grows (the DES executes
/// every op), but never below a floor that spans several reader/writer
/// mode cycles — a window inside a single phase measures that phase, not
/// the lock (mode-change sweeps take O(#counters) remote ops, ~0.5 ms at
/// 64 counters).
inline Nanos rw_duration_ns(const BenchEnv& env, i32 p) {
  const i64 budget = env.quick ? 40'000'000 : 100'000'000;
  const Nanos floor = env.quick ? 1'500'000 : 2'500'000;
  return std::max<Nanos>(floor, budget / p);
}

/// Measures one reader-writer configuration (no report side effects —
/// safe to call from a TaskPool worker). Methodology (§5): throughput is
/// the aggregate acquire count over a fixed virtual time window. Role
/// assignment is per-op by default (an op is a write with probability
/// F_W — the request-mix reading of the Facebook workload); parameter
/// studies that need "multiple writers per machine element" (§5.2.2) pass
/// kStaticRanks.
inline BenchResult measure_rw_point(
    const BenchEnv& env, i32 p, Workload workload, double fw,
    const std::function<std::unique_ptr<locks::RwLock>(rma::World&)>& factory,
    harness::RoleMode role_mode = harness::RoleMode::kPerOp,
    Nanos duration_override_ns = 0) {
  auto world = rma::SimWorld::create(env.sim_options_for(p));
  const auto lock = factory(*world);
  MicrobenchConfig config;
  config.workload = workload;
  config.duration_ns = duration_override_ns > 0 ? duration_override_ns
                                                : rw_duration_ns(env, p);
  config.fw = fw;
  config.role_mode = role_mode;
  return harness::run_rw_bench(*world, *lock, config);
}

/// One sweep point: a label and a measurement closure. The closure runs on
/// a TaskPool worker; it must derive everything from its captures and
/// touch no shared state.
struct SweepTask {
  std::string series;
  i32 p = 0;
  std::function<BenchResult()> measure;
};

/// Generic pool driver: each task produces a complete SeriesPoint (for
/// benches whose metrics differ from the standard four). Points are
/// measured in parallel at env.jobs > 1 and merged in task order — the
/// report is byte-identical to a sequential loop, whatever order the
/// workers finish in.
inline void run_point_tasks(
    const BenchEnv& env, FigureReport& report,
    const std::vector<std::function<FigureReport::SeriesPoint()>>& tasks) {
  std::vector<FigureReport::SeriesPoint> slots(tasks.size());
  harness::TaskPool pool(env.jobs);
  pool.run(tasks.size(), [&](u64 i) {
    slots[static_cast<usize>(i)] = tasks[static_cast<usize>(i)]();
  });
  report.add_points(slots);
}

/// Jobs-determinism self-check: `probe` measured inline and on two pool
/// workers must agree on every metric bit (the claim behind "--jobs N
/// output is byte-identical to --jobs 1").
inline void check_jobs_invariant(
    FigureReport& report,
    const std::function<FigureReport::SeriesPoint()>& probe) {
  const FigureReport::SeriesPoint inline_point = probe();
  std::vector<FigureReport::SeriesPoint> pooled(2);
  harness::TaskPool pool(2);
  pool.run(2, [&](u64 i) { pooled[static_cast<usize>(i)] = probe(); });
  report.check("virtual-time metrics identical across jobs",
               inline_point == pooled[0] && inline_point == pooled[1],
               "same config measured inline vs on 2 pool workers");
}

/// Measures every task (in parallel at env.jobs > 1) and merges metrics
/// into the report in task order.
inline void run_sweep_tasks(const BenchEnv& env, FigureReport& report,
                            const std::vector<SweepTask>& tasks) {
  std::vector<std::function<FigureReport::SeriesPoint()>> points;
  points.reserve(tasks.size());
  for (const SweepTask& task : tasks) {
    points.push_back(
        [&task] { return point_metrics(task.series, task.p, task.measure()); });
  }
  run_point_tasks(env, report, points);
}

/// Fig. 3 driver: the three exclusive schemes over the P sweep.
/// `metric_hint` selects the headline metric for shape checks.
inline FigureReport run_fig3(const std::string& figure_id, Workload workload,
                             const std::string& title, bool latency_figure) {
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      figure_id, title,
      latency_figure
          ? "RMA-MCS has the lowest latency; foMPI-Spin the highest "
            "(~10x at P=1024); D-MCS in between (Fig. 3a)"
          : "RMA-MCS sustains the highest throughput at every P >= 32; "
            "foMPI-Spin is the slowest (Fig. 3b-e)");
  std::vector<SweepTask> tasks;
  for (const i32 p : env.ps) {
    tasks.push_back({"foMPI-Spin", p, [&env, p, workload] {
                       return measure_exclusive_point(
                           env, p, workload, /*total_ops=*/4000,
                           [](rma::World& w) {
                             return std::make_unique<locks::FompiSpin>(w);
                           });
                     }});
    tasks.push_back({"D-MCS", p, [&env, p, workload] {
                       return measure_exclusive_point(
                           env, p, workload, /*total_ops=*/16000,
                           [](rma::World& w) {
                             return std::make_unique<locks::DMcs>(w);
                           });
                     }});
    tasks.push_back({"RMA-MCS", p, [&env, p, workload] {
                       return measure_exclusive_point(
                           env, p, workload, /*total_ops=*/16000,
                           [](rma::World& w) {
                             return std::make_unique<locks::RmaMcs>(
                                 w, default_mcs_params(w.topology()));
                           });
                     }});
  }
  run_sweep_tasks(env, report, tasks);
  const i32 pmax = env.ps.back();
  if (latency_figure) {
    report.check("rma-mcs lowest latency",
                 report.value("RMA-MCS", pmax, "latency_us_mean") <
                     report.value("D-MCS", pmax, "latency_us_mean"),
                 "RMA-MCS vs D-MCS at max P");
    report.check("spin highest latency",
                 report.value("foMPI-Spin", pmax, "latency_us_mean") >
                     report.value("D-MCS", pmax, "latency_us_mean"),
                 "foMPI-Spin vs D-MCS at max P");
  } else {
    // WCSB/WARB put 1-4 us of work around each acquire, so the lock
    // transfer cost is second order there (the paper's fig. 3d/3e gaps
    // are also the smallest); the queue locks must still not lose and
    // foMPI-Spin must collapse.
    const bool work_dominated =
        workload == Workload::kWcsb || workload == Workload::kWarb;
    const double tolerance = work_dominated ? 0.95 : 1.0;
    report.check("rma-mcs highest throughput",
                 report.value("RMA-MCS", pmax, "throughput_mlocks_s") >
                     tolerance *
                         report.value("D-MCS", pmax, "throughput_mlocks_s"),
                 work_dominated ? "RMA-MCS vs D-MCS at max P (within 5%: "
                                  "CS work dominates this benchmark)"
                                : "RMA-MCS vs D-MCS at max P");
    report.check("spin lowest throughput",
                 report.value("foMPI-Spin", pmax, "throughput_mlocks_s") <
                     report.value("D-MCS", pmax, "throughput_mlocks_s"),
                 "foMPI-Spin vs D-MCS at max P");
  }
  return report;
}

}  // namespace rmalock::bench
