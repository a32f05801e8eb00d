// Parameter-tuning walkthrough (§6 "Selecting RMA-RW Parameters").
//
// The paper's recipe: first fix T_DC (it has the largest average impact;
// one counter per compute node is the recommended balance), then tune T_R
// and the T_L,i split for the workload. This example automates that recipe
// for a given machine and writer fraction and prints the chosen
// configuration — a small auto-tuner over the Figure-1 parameter cube.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/microbench.hpp"
#include "locks/rma_rw.hpp"
#include "rma/sim_world.hpp"

using namespace rmalock;

namespace {

constexpr double kWriterFraction = 0.02;  // tune for ~2% writers
constexpr i32 kOpsPerProc = 60;

double measure(const topo::Topology& topo, i32 tdc, i64 tl_leaf, i64 tl_root,
               i64 tr) {
  rma::SimOptions options;
  options.topology = topo;
  options.seed = 123;
  auto world = rma::SimWorld::create(options);
  locks::RmaRwParams params;
  params.tdc = tdc;
  params.locality.assign(static_cast<usize>(topo.num_levels()), tl_leaf);
  params.locality[0] = tl_root;
  params.tr = tr;
  locks::RmaRw lock(*world, params);
  harness::MicrobenchConfig config;
  config.workload = harness::Workload::kSob;
  config.ops_per_proc = kOpsPerProc;
  config.fw = kWriterFraction;
  return harness::run_lock_bench(*world, lock, config).throughput_mlocks_s;
}

}  // namespace

int main() {
  const auto topo = topo::Topology::parse("8x16");  // 128 processes
  std::printf("tuning RMA-RW for %s, F_W = %.1f%% (SOB)\n\n",
              topo.describe().c_str(), kWriterFraction * 100);

  // Step 1 (§6): T_DC first — it dominates. Candidates around "one counter
  // per node".
  std::printf("step 1: T_DC sweep (T_L=16/16, T_R=1000)\n");
  i32 best_tdc = 0;
  double best_tdc_throughput = 0;
  for (const i32 tdc : {4, 8, 16, 32, 64}) {
    const double throughput = measure(topo, tdc, 16, 16, 1000);
    std::printf("  T_DC=%-3d -> %7.2f mln locks/s%s\n", tdc, throughput,
                tdc == topo.procs_per_leaf() ? "   (one counter per node)"
                                             : "");
    if (throughput > best_tdc_throughput) {
      best_tdc_throughput = throughput;
      best_tdc = tdc;
    }
  }
  std::printf("  -> chose T_DC=%d\n\n", best_tdc);

  // Step 2: T_R.
  std::printf("step 2: T_R sweep (T_DC=%d)\n", best_tdc);
  i64 best_tr = 0;
  double best_tr_throughput = 0;
  for (const i64 tr : {100, 500, 1000, 2000, 4000}) {
    const double throughput = measure(topo, best_tdc, 16, 16, tr);
    std::printf("  T_R=%-5lld -> %7.2f mln locks/s\n",
                static_cast<long long>(tr), throughput);
    if (throughput > best_tr_throughput) {
      best_tr_throughput = throughput;
      best_tr = tr;
    }
  }
  std::printf("  -> chose T_R=%lld\n\n", static_cast<long long>(best_tr));

  // Step 3: T_L split; larger thresholds for the more expensive level (§6:
  // "reserve larger values for components with higher communication
  // costs").
  std::printf("step 3: T_L split sweep (T_DC=%d, T_R=%lld)\n", best_tdc,
              static_cast<long long>(best_tr));
  std::pair<i64, i64> best_split{16, 16};
  double best_split_throughput = 0;
  for (const auto& [leaf, root] :
       std::vector<std::pair<i64, i64>>{{4, 64}, {16, 16}, {64, 4}, {32, 32}}) {
    const double throughput = measure(topo, best_tdc, leaf, root, best_tr);
    std::printf("  T_L,2=%-3lld T_L,1=%-3lld -> %7.2f mln locks/s\n",
                static_cast<long long>(leaf), static_cast<long long>(root),
                throughput);
    if (throughput > best_split_throughput) {
      best_split_throughput = throughput;
      best_split = {leaf, root};
    }
  }

  std::printf(
      "\nrecommended: T_DC=%d, T_L,2=%lld, T_L,1=%lld, T_R=%lld "
      "(%.2f mln locks/s)\n",
      best_tdc, static_cast<long long>(best_split.first),
      static_cast<long long>(best_split.second),
      static_cast<long long>(best_tr), best_split_throughput);
  return 0;
}
