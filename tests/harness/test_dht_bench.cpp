#include "harness/dht_bench.hpp"

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::harness {
namespace {

using test::make_sim_xc30;

dht::DhtConfig bench_volume() {
  dht::DhtConfig config;
  config.table_buckets = 128;
  config.heap_entries = 4096;
  return config;
}

TEST(DhtBench, AtomicsModeCompletes) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 8));
  dht::DistributedHashTable table(*world, bench_volume());
  DhtBenchConfig config;
  config.ops_per_proc = 20;
  config.fw = 0.2;
  const DhtBenchResult result = run_dht_atomics_bench(*world, table, config);
  EXPECT_EQ(result.total_ops, 15u * 20u);
  EXPECT_GT(result.elapsed_ns, 0);
  EXPECT_GT(result.total_time_s(), 0.0);
}

TEST(DhtBench, LockedModeCompletesWithBothLocks) {
  {
    auto world = make_sim_xc30(topo::Topology::nodes(2, 8));
    dht::DistributedHashTable table(*world, bench_volume());
    locks::FompiRw lock(*world);
    DhtBenchConfig config;
    config.ops_per_proc = 15;
    config.fw = 0.1;
    const auto result = run_dht_locked_bench(*world, table, lock, config);
    EXPECT_EQ(result.total_ops, 15u * 15u);
    EXPECT_GT(result.elapsed_ns, 0);
  }
  {
    auto world = make_sim_xc30(topo::Topology::nodes(2, 8));
    dht::DistributedHashTable table(*world, bench_volume());
    locks::RmaRw lock(*world);
    DhtBenchConfig config;
    config.ops_per_proc = 15;
    config.fw = 0.1;
    const auto result = run_dht_locked_bench(*world, table, lock, config);
    EXPECT_EQ(result.total_ops, 15u * 15u);
    EXPECT_GT(result.elapsed_ns, 0);
  }
}

TEST(DhtBench, VolumeOwnerHostsData) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  dht::DistributedHashTable table(*world, bench_volume());
  DhtBenchConfig config;
  config.ops_per_proc = 30;
  config.fw = 1.0;  // inserts only
  run_dht_atomics_bench(*world, table, config);
  EXPECT_GT(table.snapshot(*world, 0).size(), 0u);
  for (Rank r = 1; r < world->nprocs(); ++r) {
    EXPECT_EQ(table.snapshot(*world, r).size(), 0u) << "rank " << r;
  }
}

TEST(DhtBench, ReadOnlyWorkloadStoresNothing) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  dht::DistributedHashTable table(*world, bench_volume());
  DhtBenchConfig config;
  config.ops_per_proc = 20;
  config.fw = 0.0;
  const auto result = run_dht_atomics_bench(*world, table, config);
  EXPECT_GT(result.elapsed_ns, 0);
  EXPECT_EQ(table.snapshot(*world, 0).size(), 0u);
}

TEST(DhtBench, MoreWorkTakesMoreVirtualTime) {
  auto world_small = make_sim_xc30(topo::Topology::nodes(2, 4));
  dht::DistributedHashTable table_small(*world_small, bench_volume());
  DhtBenchConfig small;
  small.ops_per_proc = 10;
  small.fw = 0.2;
  const auto fast = run_dht_atomics_bench(*world_small, table_small, small);

  auto world_big = make_sim_xc30(topo::Topology::nodes(2, 4));
  dht::DistributedHashTable table_big(*world_big, bench_volume());
  DhtBenchConfig big = small;
  big.ops_per_proc = 40;
  const auto slow = run_dht_atomics_bench(*world_big, table_big, big);
  EXPECT_GT(slow.elapsed_ns, fast.elapsed_ns);
}

TEST(DhtBench, LockedBenchPin) {
  // Pins the DHT phases: ranks 1..P-1 run ⌈0.1·ops⌉ warmup ops and the
  // measured ops against rank 0's volume; rank 0 issues none.
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  dht::DistributedHashTable table(*world, bench_volume());
  locks::RmaRw lock(*world);
  DhtBenchConfig config;
  config.ops_per_proc = 12;
  config.fw = 0.25;
  const auto result = run_dht_locked_bench(*world, table, lock, config);
  EXPECT_EQ(result.elapsed_ns, 140010);
  EXPECT_EQ(result.total_ops, 7u * 12u);
  EXPECT_EQ(result.dropped_inserts, 0u);
  EXPECT_EQ(table.snapshot(*world, 0).size(), 24u);
}

}  // namespace
}  // namespace rmalock::harness
