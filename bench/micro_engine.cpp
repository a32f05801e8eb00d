// DES engine wall-clock throughput microbenchmark — the perf gate for the
// engine itself (not a paper figure).
//
// Every fig benchmark and MC campaign runs on top of SimWorld, so engine
// steps per wall-clock second bounds how much virtual-time experimentation
// and exhaustive exploration a revision can afford. This binary pins that
// number in three shapes:
//
//   virtual-time  the benchmark configuration: kVirtualTime scheduling over
//                 the paper's topology, RMA-MCS under ECSB-style load, P
//                 swept like the figures (RMALOCK_PS applies);
//   ready-queue   the scheduling layer of that configuration alone: one
//                 ReadyHeap::replace_top per context switch, P = 64..1024;
//   replay        the counterexample-reproduction configuration: kReplay
//                 re-execution of one recorded kRandom schedule, repeated —
//                 the path the shrinker and --replay hammer;
//   mc-churn      the model-checking configuration: a fresh small world per
//                 schedule (construction + stacks + a short random run),
//                 which is what bounded-exhaustive sweeps do ~1e5 times;
//   world-build   set-up cost at the figures' P: SimWorld::create plus an
//                 RMA-RW lock, built and destroyed without a run — what
//                 every sweep point and benchmark iteration pays first;
//   task-pool     the mc-churn fleet driven through the shared-cursor
//                 TaskPool at jobs=1 (pool overhead vs the inline loop)
//                 and jobs=all-cores (parallel campaign scaling) — the
//                 overhead/scaling gate for the parallel campaign runtime;
//   fiber-stack   memory, not time: resident fiber-stack KiB per simulated
//                 process after fig5a's RMA-RW loop, P = 64..1024.
//
// Metrics: engine_msteps_per_s (million scheduling-point steps / wall s),
// sim_mops_per_s (million simulated RMA ops / wall s), wall_ms, for
// mc-churn/task-pool worlds_per_s (plus speedup_vs_j1 for the parallel
// pool), for world-build build_ms and worlds_per_s, for ready-queue
// ns_per_decision (wall ns per scheduling decision), and for fiber-stack
// resident_kib_per_proc. Run with --json
// BENCH_micro_engine.json and compare records across revisions
// (docs/PERF.md).
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fig_helpers.hpp"
#include "harness/bench_common.hpp"
#include "harness/microbench.hpp"
#include "harness/task_pool.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"
#include "rma/ready_heap.hpp"
#include "rma/sim_world.hpp"
#include "rma/stack_pool.hpp"

namespace {

using namespace rmalock;
using harness::BenchEnv;
using harness::FigureReport;

locks::RmaMcsParams mcs_params(const topo::Topology& topo) {
  locks::RmaMcsParams params;
  params.locality.assign(static_cast<usize>(topo.num_levels()), 32);
  return params;
}

/// One ECSB-style measured run; returns (steps, total ops, wall ns).
struct EngineRun {
  u64 steps = 0;
  u64 ops = 0;
  Nanos wall_ns = 0;
};

EngineRun run_lock_loop(rma::SimWorld& world, i32 acquires_per_proc) {
  locks::RmaMcs lock(world, mcs_params(world.topology()));
  const Timer timer;
  const rma::RunResult result = world.run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < acquires_per_proc; ++i) {
      lock.acquire(comm);
      lock.release(comm);
    }
  });
  EngineRun run;
  run.wall_ns = timer.elapsed_ns();
  run.steps = result.steps;
  run.ops = world.aggregate_stats().total_ops();
  return run;
}

void add_rates(FigureReport& report, const std::string& series, i32 p,
               const EngineRun& run) {
  const double wall = static_cast<double>(run.wall_ns);
  report.add(series, p, "engine_msteps_per_s",
             static_cast<double>(run.steps) / wall * 1e3);
  report.add(series, p, "sim_mops_per_s",
             static_cast<double>(run.ops) / wall * 1e3);
  report.add(series, p, "wall_ms", wall / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  harness::apply_bench_cli(argc, argv);
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      "micro_engine", "DES engine wall-clock throughput",
      "engine-perf gate, not a paper figure: rates must not regress "
      "across revisions (compare BENCH_*.json)");

  // --- kVirtualTime path: the figure-benchmark configuration -------------
  for (const i32 p : env.ps) {
    auto world = rma::SimWorld::create(env.sim_options_for(p));
    const i32 acquires = env.ops_for(p, /*total_target=*/60'000);
    const EngineRun run = run_lock_loop(*world, acquires);
    add_rates(report, "virtual-time/rma-mcs", p, run);
  }

  // --- ready-queue: the scheduling layer alone ----------------------------
  {
    // A kVirtualTime context switch is one ReadyHeap::replace_top: the
    // yielding process, its clock advanced by an op's cost, takes the
    // place of the minimum, which runs next. Timing that loop alone gives
    // the scheduling share of engine wall time per decision. Its cost grows
    // with log2 P, so the series covers the figures' P range whatever the
    // sweep; costs are drawn before the clock starts.
    const i32 decisions = env.smoke ? 200'000 : 2'000'000;
    std::array<Nanos, 4096> costs{};
    bool ordered = true;
    for (const i32 p : {64, 128, 256, 512, 1024}) {
      Xoshiro256 rng(mix_seed(env.seed, static_cast<u64>(p)));
      for (Nanos& cost : costs) cost = rng.range(500, 3000);
      rma::ReadyHeap heap;
      for (Rank r = 1; r < p; ++r) heap.push({rng.range(0, 3000), r});
      rma::ReadyHeap::Entry running{0, 0};
      const Timer timer;
      for (i32 d = 0; d < decisions; ++d) {
        running.clock += costs[static_cast<usize>(d) % costs.size()];
        running = heap.replace_top(running);
      }
      const Nanos wall_ns = timer.elapsed_ns();
      report.add("ready-queue", p, "ns_per_decision",
                 static_cast<double>(wall_ns) / decisions);
      // Drain the heap: the timed loop's result is used, and the order it
      // left behind is checked.
      while (!heap.empty()) {
        const rma::ReadyHeap::Entry next = heap.pop();
        ordered = ordered && !rma::ReadyHeap::before(next, running);
        running = next;
      }
    }
    report.check("ready-queue pops in (clock, rank) order", ordered,
                 "after the timed replace_top loop, draining each heap "
                 "yields non-decreasing (clock, rank) entries");
  }

  // --- world-build: set-up cost, no run -----------------------------------
  {
    // World creation and lock construction must stay O(P·N): a per-pair
    // table or a per-rank window reallocation shows here as build_ms
    // growing faster than P.
    const i32 builds = env.smoke ? 4 : 20;
    for (const i32 p : env.ps) {
      const Timer timer;
      for (i32 b = 0; b < builds; ++b) {
        auto world = rma::SimWorld::create(env.sim_options_for(p));
        const locks::RmaRw lock(*world);
      }
      const double wall = static_cast<double>(timer.elapsed_ns());
      report.add("world-build/rma-rw", p, "build_ms", wall / builds / 1e6);
      report.add("world-build/rma-rw", p, "worlds_per_s", builds / wall * 1e9);
    }
  }

  // --- tracing overhead context ------------------------------------------
  {
    // The observability hooks must be free when disarmed (a single
    // predictable null-test per instrumentation site). Both arms are
    // recorded so BENCH_*.json comparisons can gate the disarmed rate
    // against history AND against the armed rate; the in-process check is
    // sanity-only, because wall-clock ratios flake on loaded hosts (same
    // policy as the task-pool overhead gate below).
    const i32 p = env.ps.front();
    const i32 acquires = env.ops_for(p, /*total_target=*/60'000);
    auto plain = rma::SimWorld::create(env.sim_options_for(p));
    const EngineRun disarmed = run_lock_loop(*plain, acquires);
    obs::Tracer tracer(p);
    rma::SimOptions traced_opts = env.sim_options_for(p);
    traced_opts.tracer = &tracer;
    auto traced = rma::SimWorld::create(traced_opts);
    const EngineRun armed = run_lock_loop(*traced, acquires);
    add_rates(report, "tracer-disarmed/rma-mcs", p, disarmed);
    add_rates(report, "tracer-armed/rma-mcs", p, armed);
    report.add_metric("tracer_events_recorded",
                      static_cast<double>(tracer.total_emitted()));
    report.add_metric("tracer_armed_over_disarmed_wall",
                      static_cast<double>(armed.wall_ns) /
                          static_cast<double>(disarmed.wall_ns));
    report.check("tracer recorded the armed run",
                 tracer.total_emitted() > 0 && armed.steps == disarmed.steps,
                 "armed arm emitted events and virtual execution was "
                 "identical (same step count) to the disarmed arm");
    harness::maybe_write_bench_trace(tracer);
  }

  // --- kReplay path: repeated re-execution of one recorded schedule ------
  {
    const topo::Topology topology = topo::Topology::uniform({2}, 4);  // P=8
    rma::SimOptions opts;
    opts.topology = topology;
    opts.latency = rma::LatencyModel::zero(topology.num_levels());
    opts.seed = env.seed;
    opts.policy = rma::SchedPolicy::kRandom;
    opts.record_schedule = true;
    rma::ScheduleTrace trace;
    {
      auto recorder = rma::SimWorld::create(opts);
      locks::RmaMcs lock(*recorder, mcs_params(topology));
      trace = recorder
                  ->run([&](rma::RmaComm& comm) {
                    for (i32 i = 0; i < (env.smoke ? 4 : 8); ++i) {
                      lock.acquire(comm);
                      lock.release(comm);
                    }
                  })
                  .schedule;
    }
    rma::SimOptions replay_opts = opts;
    replay_opts.policy = rma::SchedPolicy::kReplay;
    replay_opts.record_schedule = false;
    replay_opts.replay = &trace;
    auto world = rma::SimWorld::create(replay_opts);
    locks::RmaMcs lock(*world, mcs_params(topology));
    const i32 replays = env.smoke ? 50 : 400;
    EngineRun total;
    const Timer timer;
    for (i32 r = 0; r < replays; ++r) {
      const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
        for (i32 i = 0; i < (env.smoke ? 4 : 8); ++i) {
          lock.acquire(comm);
          lock.release(comm);
        }
      });
      total.steps += result.steps;
    }
    total.wall_ns = timer.elapsed_ns();
    total.ops = world->aggregate_stats().total_ops();
    add_rates(report, "replay/rma-mcs", topology.nprocs(), total);
    report.add("replay/rma-mcs", topology.nprocs(), "runs_per_s",
               static_cast<double>(replays) /
                   static_cast<double>(total.wall_ns) * 1e9);
  }

  // --- mc-churn: a fresh world per schedule (exhaustive-sweep shape) -----
  {
    const topo::Topology topology = topo::Topology::uniform({}, 4);  // P=4
    const i32 worlds = env.smoke ? 200 : 2000;
    EngineRun total;
    const Timer timer;
    for (i32 w = 0; w < worlds; ++w) {
      rma::SimOptions opts;
      opts.topology = topology;
      opts.latency = rma::LatencyModel::zero(topology.num_levels());
      opts.seed = env.seed + static_cast<u64>(w);
      opts.policy = rma::SchedPolicy::kRandom;
      auto world = rma::SimWorld::create(std::move(opts));
      const EngineRun run = run_lock_loop(*world, /*acquires_per_proc=*/2);
      total.steps += run.steps;
      total.ops += run.ops;
    }
    total.wall_ns = timer.elapsed_ns();
    add_rates(report, "mc-churn/rma-mcs", topology.nprocs(), total);
    report.add("mc-churn/rma-mcs", topology.nprocs(), "worlds_per_s",
               static_cast<double>(worlds) /
                   static_cast<double>(total.wall_ns) * 1e9);
  }

  // --- task-pool: the parallel campaign runtime's overhead gate ----------
  {
    // The mc-churn fleet again, but driven through the TaskPool. jobs=1
    // runs every world on the calling thread (its rate vs mc-churn is pure
    // pool overhead); jobs=all-cores pins the parallel scaling on this host.
    const topo::Topology topology = topo::Topology::uniform({}, 4);  // P=4
    const i32 worlds = env.smoke ? 200 : 2000;
    const i32 hw_jobs = harness::TaskPool::resolve_jobs(0);
    std::vector<i32> job_counts{1};
    if (hw_jobs > 1) job_counts.push_back(hw_jobs);
    double j1_worlds_per_s = 0.0;
    for (const i32 jobs : job_counts) {
      std::vector<EngineRun> slots(static_cast<usize>(worlds));
      harness::TaskPool pool(jobs);
      const Timer timer;
      pool.run(static_cast<u64>(worlds), [&](u64 w) {
        rma::SimOptions opts;
        opts.topology = topology;
        opts.latency = rma::LatencyModel::zero(topology.num_levels());
        opts.seed = env.seed + w;
        opts.policy = rma::SchedPolicy::kRandom;
        auto world = rma::SimWorld::create(std::move(opts));
        slots[static_cast<usize>(w)] =
            run_lock_loop(*world, /*acquires_per_proc=*/2);
      });
      EngineRun total;
      total.wall_ns = timer.elapsed_ns();
      for (const EngineRun& run : slots) {
        total.steps += run.steps;
        total.ops += run.ops;
      }
      const std::string series = "task-pool/j" + std::to_string(jobs);
      const double worlds_per_s = static_cast<double>(worlds) /
                                  static_cast<double>(total.wall_ns) * 1e9;
      add_rates(report, series, topology.nprocs(), total);
      report.add(series, topology.nprocs(), "worlds_per_s", worlds_per_s);
      if (jobs == 1) {
        j1_worlds_per_s = worlds_per_s;
      } else {
        report.add(series, topology.nprocs(), "speedup_vs_j1",
                   worlds_per_s / j1_worlds_per_s);
      }
    }
    // Pool overhead is gated like every other micro_engine rate: by
    // comparing the recorded task-pool/j1 vs mc-churn worlds_per_s across
    // revisions' BENCH_*.json (a hard in-process ratio check flakes under
    // a loaded ctest -j host, where a few-ms wall measurement can lose
    // the core mid-series). Here only sanity is asserted.
    report.check(
        "task-pool fleet completed",
        report.value("task-pool/j1", topology.nprocs(), "worlds_per_s") > 0,
        "jobs=1 pool dispatch ran the mc-churn fleet to completion; "
        "compare worlds_per_s vs mc-churn across revisions for overhead");
  }

  // --- fiber-stack: resident stack memory per simulated process ----------
  {
    // fig5a's RMA-RW loop, 16 requests per rank; the destroyed world's
    // stacks are then all this thread's pool holds (it is emptied first),
    // so mincore over the pool reads what the run left resident. A process
    // whose frames fit in one page keeps 4 KiB.
    for (const i32 p : {64, 256, 1024}) {
      rma::StackPool::local().clear();
      {
        auto world = rma::SimWorld::create(env.sim_options_for(p));
        locks::RmaRw lock(*world, bench::rw_params(world->topology(),
                                                   /*tdc=*/16, /*tl_leaf=*/16,
                                                   /*tl_root=*/16,
                                                   /*tr=*/1000));
        harness::MicrobenchConfig config;
        config.ops_per_proc = 16;
        config.fw = 0.02;
        config.role_mode = harness::RoleMode::kPerOp;
        harness::run_lock_bench(*world, lock, config);
      }
      report.add("fiber-stack", p, "resident_kib_per_proc",
                 static_cast<double>(rma::StackPool::local().resident_bytes()) /
                     1024.0 / p);
    }
  }

  report.check("rates are finite and positive",
               report.value("virtual-time/rma-mcs", env.ps.back(),
                            "engine_msteps_per_s") > 0,
               "sanity: the engine made progress under measurement");
  report.print();
  return report.all_checks_passed() ? 0 : 1;
}
