// Ablation A1: what does topology-awareness actually buy?
//
// Two experiments the paper implies but does not plot directly:
//  1. remote-traffic accounting — inter-node RMA operations per lock
//     acquire for every scheme (the mechanism behind Fig. 3);
//  2. a flat-network counterfactual — re-running ECSB under a latency
//     model where every non-self access costs the same as the farthest
//     hop. If RMA-MCS's advantage came from anything other than locality,
//     it would survive the flattening; it should not.
#include "fig_helpers.hpp"

namespace rmalock::bench {
namespace {

harness::BenchResult run_with_model(
    const BenchEnv& env, i32 p, const rma::LatencyModel& model,
    const std::function<std::unique_ptr<locks::ExclusiveLock>(rma::World&)>&
        factory) {
  rma::SimOptions opts = env.sim_options_for(p);
  opts.latency = model;
  auto world = rma::SimWorld::create(opts);
  const auto lock = factory(*world);
  MicrobenchConfig config;
  config.workload = Workload::kEcsb;
  config.ops_per_proc = env.ops_for(p, 8000);
  return harness::run_lock_bench(*world, *lock, config);
}

}  // namespace
}  // namespace rmalock::bench

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      "ablationA1", "topology ablation: inter-node ops per acquire and "
                    "flat-network counterfactual (ECSB)",
      "RMA-MCS needs far fewer inter-node ops per acquire than D-MCS or "
      "foMPI-Spin; flattening the network erases most of its advantage");

  const auto factories = std::vector<std::pair<
      std::string,
      std::function<std::unique_ptr<locks::ExclusiveLock>(rma::World&)>>>{
      {"foMPI-Spin",
       [](rma::World& w) { return std::make_unique<locks::FompiSpin>(w); }},
      {"D-MCS",
       [](rma::World& w) { return std::make_unique<locks::DMcs>(w); }},
      {"RMA-MCS", [](rma::World& w) {
         return std::make_unique<locks::RmaMcs>(
             w, default_mcs_params(w.topology()));
       }}};

  // Each (scheme, P) point derives from its captures only, so the sweep
  // runs through the TaskPool (--jobs / RMALOCK_JOBS) and merges in task
  // order — output is byte-identical to the sequential loop.
  std::vector<std::function<FigureReport::SeriesPoint()>> point_tasks;
  for (const i32 p : env.ps) {
    for (const auto& [name, factory] : factories) {
      point_tasks.push_back([&env, p, name = name, factory = factory] {
        const auto xc30 =
            run_with_model(env, p, rma::LatencyModel::xc30(2), factory);
        const auto flat =
            run_with_model(env, p, rma::LatencyModel::flat(2), factory);
        FigureReport::SeriesPoint point;
        point.series = name;
        point.p = p;
        point.metrics = {
            {"inter_node_ops_per_acquire",
             static_cast<double>(xc30.op_stats.total_at_least(2)) /
                 static_cast<double>(xc30.total_acquires)},
            {"throughput_mlocks_s", xc30.throughput_mlocks_s},
            {"flat_net_throughput_mlocks_s", flat.throughput_mlocks_s}};
        return point;
      });
    }
  }
  run_point_tasks(env, report, point_tasks);

  const i32 pmax = env.ps.back();
  report.check(
      "rma-mcs saves inter-node traffic",
      report.value("RMA-MCS", pmax, "inter_node_ops_per_acquire") <
          0.5 * report.value("D-MCS", pmax, "inter_node_ops_per_acquire"),
      "ops/acquire at max P");
  const double gain_real =
      report.value("RMA-MCS", pmax, "throughput_mlocks_s") /
      report.value("D-MCS", pmax, "throughput_mlocks_s");
  const double gain_flat =
      report.value("RMA-MCS", pmax, "flat_net_throughput_mlocks_s") /
      report.value("D-MCS", pmax, "flat_net_throughput_mlocks_s");
  report.check("advantage comes from the hierarchy",
               gain_real > gain_flat,
               "RMA-MCS/D-MCS speedup real=" + std::to_string(gain_real) +
                   " vs flat=" + std::to_string(gain_flat));
  report.print();
  return 0;
}
