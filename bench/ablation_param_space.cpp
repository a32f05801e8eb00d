// Ablation A2: a walk through the paper's Figure-1 parameter cube.
//
// Figure 1 presents RMA-RW's design space as three axes:
//   T_DC — reader vs writer latency,
//   T_L  — locality vs fairness (for writers),
//   T_R  — reader vs writer throughput.
// This bench scans a coarse grid of the cube at a fixed machine size and
// reports reader/writer latency and total throughput for each point, so a
// user can see the tradeoffs the paper describes qualitatively.
#include <cstdio>

#include "fig_helpers.hpp"

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  const i32 p = env.quick ? 64 : 256;
  const i32 ops = env.quick ? 60 : 120;
  FigureReport report(
      "ablationA2",
      "parameter-space scan at P=" + std::to_string(p) +
          " (SOB, F_W = 5%): points of the Figure-1 cube",
      "each parameter moves its own tradeoff: T_DC reader<->writer latency, "
      "T_L locality<->fairness, T_R reader<->writer throughput (Fig. 1)");
  // Grid points are independent SimWorld runs — measured through the
  // TaskPool (--jobs / RMALOCK_JOBS), merged in grid order.
  std::vector<std::function<FigureReport::SeriesPoint()>> point_tasks;
  for (const i32 tdc : {4, 16, 64}) {
    for (const i64 tl : {4, 32}) {
      for (const i64 tr : {100, 2000}) {
        if (tdc > p) continue;
        point_tasks.push_back([&env, p, ops, tdc, tl, tr] {
          auto world = rma::SimWorld::create(env.sim_options_for(p));
          locks::RmaRw lock(*world,
                            rw_params(world->topology(), tdc, tl, tl, tr));
          MicrobenchConfig config;
          config.workload = Workload::kSob;
          config.ops_per_proc = ops;
          config.fw = 0.05;
          const auto result = harness::run_lock_bench(*world, lock, config);
          FigureReport::SeriesPoint point;
          point.series = "TDC=" + std::to_string(tdc) +
                         ",TL=" + std::to_string(tl) +
                         ",TR=" + std::to_string(tr);
          point.p = p;
          point.metrics = {
              {"throughput_mlocks_s", result.throughput_mlocks_s},
              {"reader_latency_us", result.reader_latency_us.mean},
              {"writer_latency_us", result.writer_latency_us.mean}};
          return point;
        });
      }
    }
  }
  run_point_tasks(env, report, point_tasks);
  // One axis-level check: more counters (small T_DC) must increase writer
  // latency (writers touch every counter).
  report.check(
      "T_DC axis: writers pay for extra counters",
      report.value("TDC=4,TL=32,TR=2000", p, "writer_latency_us") >
          report.value("TDC=64,TL=32,TR=2000", p, "writer_latency_us"),
      "T_DC=4 vs T_DC=64 writer latency");
  report.print();
  return 0;
}
