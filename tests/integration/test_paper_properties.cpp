// Integration tests asserting the paper's qualitative performance claims
// at reduced scale (P = 64, 4 nodes x 16). The bench binaries reproduce the
// full figures; these tests keep the *shapes* from regressing:
//
//   §5.1  RMA-MCS beats D-MCS and foMPI-Spin in throughput and latency;
//   §3.1  topology-awareness = fewer inter-node ops per acquire;
//   §5.2  RMA-RW beats foMPI-RW on read-dominated workloads;
//   §5.2.1 very small T_DC (a counter on every process) burdens writers;
//   §5.2.3 larger T_R raises read-dominated throughput;
//   §5.3  RMA-RW accelerates the DHT versus foMPI-RW.
#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "harness/dht_bench.hpp"
#include "harness/microbench.hpp"
#include "locks/d_mcs.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock {
namespace {

using test::make_sim_xc30;

const topo::Topology kTopo = topo::Topology::uniform({4}, 16);  // P = 64

harness::BenchResult bench_exclusive(locks::ExclusiveLock* (*factory)(
                                         rma::World&),
                                     harness::Workload workload) {
  auto world = make_sim_xc30(kTopo, 1);
  std::unique_ptr<locks::ExclusiveLock> lock(factory(*world));
  harness::MicrobenchConfig config;
  config.workload = workload;
  config.ops_per_proc = 60;
  return harness::run_lock_bench(*world, *lock, config);
}

locks::ExclusiveLock* make_dmcs(rma::World& w) { return new locks::DMcs(w); }
locks::ExclusiveLock* make_spin(rma::World& w) {
  return new locks::FompiSpin(w);
}
locks::ExclusiveLock* make_rmamcs(rma::World& w) {
  locks::RmaMcsParams params;
  params.locality.assign(2, 32);
  return new locks::RmaMcs(w, params);
}

TEST(PaperShapes, RmaMcsBeatsDMcsThroughput) {
  const auto rmamcs = bench_exclusive(&make_rmamcs, harness::Workload::kEcsb);
  const auto dmcs = bench_exclusive(&make_dmcs, harness::Workload::kEcsb);
  EXPECT_GT(rmamcs.throughput_mlocks_s, dmcs.throughput_mlocks_s * 1.5)
      << "topology-aware batching should clearly win at 4 nodes";
}

TEST(PaperShapes, RmaMcsBeatsFompiSpin) {
  const auto rmamcs = bench_exclusive(&make_rmamcs, harness::Workload::kEcsb);
  const auto spin = bench_exclusive(&make_spin, harness::Workload::kEcsb);
  EXPECT_GT(rmamcs.throughput_mlocks_s, spin.throughput_mlocks_s * 2.0);
  EXPECT_LT(rmamcs.latency_us.mean, spin.latency_us.mean);
}

TEST(PaperShapes, QueueLocksBeatSpinLatency) {
  // Fig. 3a: foMPI-Spin has the worst latency of the three.
  const auto dmcs = bench_exclusive(&make_dmcs, harness::Workload::kEcsb);
  const auto spin = bench_exclusive(&make_spin, harness::Workload::kEcsb);
  EXPECT_LT(dmcs.latency_us.mean, spin.latency_us.mean);
}

TEST(PaperShapes, TopologyAwarenessCutsInterNodeTraffic) {
  const auto rmamcs = bench_exclusive(&make_rmamcs, harness::Workload::kEcsb);
  const auto dmcs = bench_exclusive(&make_dmcs, harness::Workload::kEcsb);
  const double rmamcs_remote =
      static_cast<double>(rmamcs.op_stats.total_at_least(2)) /
      static_cast<double>(rmamcs.total_acquires);
  const double dmcs_remote =
      static_cast<double>(dmcs.op_stats.total_at_least(2)) /
      static_cast<double>(dmcs.total_acquires);
  EXPECT_LT(rmamcs_remote, dmcs_remote / 2.0)
      << "RMA-MCS inter-node ops/acquire=" << rmamcs_remote
      << " vs D-MCS=" << dmcs_remote;
}

harness::BenchResult bench_rw(bool rma_rw, double fw, i64 tr, i32 tdc) {
  auto world = make_sim_xc30(kTopo, 1);
  std::unique_ptr<locks::RwLock> lock;
  if (rma_rw) {
    locks::RmaRwParams params;
    params.tdc = tdc;
    params.locality.assign(2, 16);
    params.tr = tr;
    lock = std::make_unique<locks::RmaRw>(*world, params);
  } else {
    lock = std::make_unique<locks::FompiRw>(*world);
  }
  harness::MicrobenchConfig config;
  config.workload = harness::Workload::kEcsb;
  // The paper's throughput methodology: per-op write probability F_W,
  // aggregate acquires over a fixed (virtual) time window.
  config.duration_ns = 600'000;
  config.role_mode = harness::RoleMode::kPerOp;
  config.fw = fw;
  return harness::run_lock_bench(*world, *lock, config);
}

TEST(PaperShapes, RmaRwBeatsFompiRwOnReadDominatedWorkload) {
  // Fig. 5b at F_W = 2%: the paper reports >6x at P >= 64.
  const auto rma = bench_rw(true, 0.02, 1000, 16);
  const auto fompi = bench_rw(false, 0.02, 0, 0);
  EXPECT_GT(rma.throughput_mlocks_s, fompi.throughput_mlocks_s * 3.0);
}

TEST(PaperShapes, ReadOnlyThroughputScalesWithLocalCounters) {
  const auto rma = bench_rw(true, 0.0, 100000, 16);
  const auto fompi = bench_rw(false, 0.0, 0, 0);
  EXPECT_GT(rma.throughput_mlocks_s, fompi.throughput_mlocks_s * 2.0);
}

TEST(PaperShapes, TinyTdcBurdensWriters) {
  // Fig. 4a: a physical counter on every process (T_DC=1) forces writers
  // to flag/drain 64 counters; one per node (T_DC=16) is far cheaper.
  const auto per_node = bench_rw(true, 0.05, 500, 16);
  const auto per_proc = bench_rw(true, 0.05, 500, 1);
  EXPECT_GT(per_node.throughput_mlocks_s, per_proc.throughput_mlocks_s);
  EXPECT_LT(per_node.writer_latency_us.mean, per_proc.writer_latency_us.mean);
}

TEST(PaperShapes, LargerTrFavorsReaders) {
  // Fig. 4e (F_W = 0.2%): raising T_R lifts read-dominated throughput.
  const auto small_tr = bench_rw(true, 0.002, 50, 16);
  const auto large_tr = bench_rw(true, 0.002, 4000, 16);
  EXPECT_GE(large_tr.throughput_mlocks_s, small_tr.throughput_mlocks_s);
}

TEST(PaperShapes, ReaderLatencyBelowWriterLatency) {
  // §5.2.4: readers acquire more cheaply than writers.
  const auto result = bench_rw(true, 0.05, 1000, 16);
  EXPECT_LT(result.reader_latency_us.mean, result.writer_latency_us.mean);
}

TEST(PaperShapes, DhtRmaRwBeatsFompiRw) {
  // Fig. 6 (F_W in {2%,5%,20%}): RMA-RW outperforms foMPI-RW.
  const auto run_locked = [&](bool rma_rw) {
    auto world = make_sim_xc30(kTopo, 1);
    dht::DhtConfig volume;
    volume.table_buckets = 256;
    volume.heap_entries = 4096;
    dht::DistributedHashTable table(*world, volume);
    std::unique_ptr<locks::RwLock> lock;
    if (rma_rw) {
      lock = std::make_unique<locks::RmaRw>(*world);
    } else {
      lock = std::make_unique<locks::FompiRw>(*world);
    }
    harness::DhtBenchConfig config;
    config.ops_per_proc = 30;
    config.fw = 0.05;
    return harness::run_dht_locked_bench(*world, table, *lock, config);
  };
  const auto rma = run_locked(true);
  const auto fompi = run_locked(false);
  EXPECT_LT(rma.elapsed_ns, fompi.elapsed_ns);
}

}  // namespace
}  // namespace rmalock
