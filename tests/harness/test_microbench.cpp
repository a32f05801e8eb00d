#include "harness/microbench.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "../support/test_support.hpp"
#include "harness/bench_common.hpp"
#include "locks/d_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::harness {
namespace {

using test::make_sim_xc30;

TEST(WriterCount, MatchesPaperFractions) {
  EXPECT_EQ(writer_count(1024, 0.002), 2);   // F_W = 0.2% at P=1024
  EXPECT_EQ(writer_count(1024, 0.02), 20);   // 2%
  EXPECT_EQ(writer_count(1024, 0.05), 51);   // 5%
  EXPECT_EQ(writer_count(24, 0.5), 12);      // Figure 2's example
  EXPECT_EQ(writer_count(16, 1.0), 16);
  EXPECT_EQ(writer_count(16, 0.0), 0);
}

TEST(WriterCount, AtLeastOneWriterWhenPositive) {
  EXPECT_EQ(writer_count(16, 0.002), 1);
  EXPECT_EQ(writer_count(2, 0.0001), 1);
}

TEST(WriterRanks, ExactCountSelected) {
  for (const i32 p : {16, 64, 256}) {
    for (const double fw : {0.002, 0.02, 0.25, 1.0}) {
      const i32 writers = writer_count(p, fw);
      i32 selected = 0;
      for (Rank r = 0; r < p; ++r) selected += is_writer_rank(r, p, writers);
      EXPECT_EQ(selected, writers) << "P=" << p << " fw=" << fw;
    }
  }
}

TEST(WriterRanks, SpreadAcrossNodes) {
  // 4 writers over 64 ranks in 4 nodes: one writer per node.
  const i32 p = 64;
  const i32 writers = 4;
  std::vector<i32> per_node(4, 0);
  for (Rank r = 0; r < p; ++r) {
    if (is_writer_rank(r, p, writers)) ++per_node[static_cast<usize>(r / 16)];
  }
  for (const i32 count : per_node) EXPECT_EQ(count, 1);
}

TEST(Microbench, EcsbProducesSaneNumbers) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 8));
  locks::DMcs lock(*world);
  MicrobenchConfig config;
  config.workload = Workload::kEcsb;
  config.ops_per_proc = 20;
  const BenchResult result = run_lock_bench(*world, lock, config);
  EXPECT_EQ(result.total_acquires, 16u * 20u);
  EXPECT_GT(result.elapsed_ns, 0);
  EXPECT_GT(result.throughput_mlocks_s, 0.0);
  EXPECT_GT(result.latency_us.mean, 0.0);
  EXPECT_EQ(result.latency_us.n, 16u * 20u);
  EXPECT_GE(result.latency_us.max, result.latency_us.median);
}

TEST(Microbench, WarmupIsDiscarded) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock(*world);
  MicrobenchConfig config;
  config.ops_per_proc = 10;
  const BenchResult result = run_lock_bench(*world, lock, config);
  // Only the measured ops are recorded, not the ⌈0.1·10⌉ warmup ops.
  EXPECT_EQ(result.latency_us.n, 8u * 10u);
}

TEST(Microbench, WcsbIncludesCsWork) {
  auto world_empty = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock_empty(*world_empty);
  MicrobenchConfig ecsb;
  ecsb.workload = Workload::kEcsb;
  ecsb.ops_per_proc = 15;
  const BenchResult empty = run_lock_bench(*world_empty, lock_empty, ecsb);

  auto world_work = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock_work(*world_work);
  MicrobenchConfig wcsb = ecsb;
  wcsb.workload = Workload::kWcsb;
  const BenchResult work = run_lock_bench(*world_work, lock_work, wcsb);

  // 1-4 us of in-CS compute must slow both latency and throughput.
  EXPECT_GT(work.latency_us.mean, empty.latency_us.mean);
  EXPECT_LT(work.throughput_mlocks_s, empty.throughput_mlocks_s);
}

TEST(Microbench, WarbAddsThinkTimeOutsideCs) {
  auto world_a = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock_a(*world_a);
  MicrobenchConfig ecsb;
  ecsb.ops_per_proc = 15;
  const BenchResult base = run_lock_bench(*world_a, lock_a, ecsb);

  auto world_b = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock_b(*world_b);
  MicrobenchConfig warb = ecsb;
  warb.workload = Workload::kWarb;
  const BenchResult waity = run_lock_bench(*world_b, lock_b, warb);

  // Total phase time grows, but the measured acquire+release latency does
  // not inflate proportionally (waiting happens outside the lock and
  // reduces contention).
  EXPECT_GT(waity.elapsed_ns, base.elapsed_ns);
}

TEST(Microbench, RwRolesAreHonored) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 8));
  locks::RmaRw lock(*world);
  MicrobenchConfig config;
  config.workload = Workload::kSob;
  config.ops_per_proc = 10;
  config.fw = 0.25;
  const BenchResult result = run_lock_bench(*world, lock, config);
  EXPECT_EQ(result.num_writers, 4);
  EXPECT_EQ(result.writer_latency_us.n, 4u * 10u);
  EXPECT_EQ(result.reader_latency_us.n, 12u * 10u);
  EXPECT_EQ(result.latency_us.n, 16u * 10u);
}

TEST(Microbench, OpStatsDeltaCoversMeasuredPhaseOnly) {
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock(*world);
  MicrobenchConfig config;
  config.ops_per_proc = 10;
  const BenchResult result = run_lock_bench(*world, lock, config);
  EXPECT_GT(result.op_stats.total_ops(), 0u);
  // Every acquire FAOs the tail exactly once.
  EXPECT_EQ(result.op_stats.total(rma::OpKind::kFao), 8u * 10u);
}

TEST(Microbench, ExclusiveFixedOpsPin) {
  // Pins the fixed-ops phase structure: one barrier, ⌈0.1·ops⌉ discarded
  // warmup ops, a barrier, the measured ops, a closing barrier. WCSB draws
  // from the rng stream inside the CS, so any moved op or draw shows.
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::DMcs lock(*world);
  MicrobenchConfig config;
  config.workload = Workload::kWcsb;
  config.ops_per_proc = 10;
  const BenchResult result = run_lock_bench(*world, lock, config);
  EXPECT_EQ(result.elapsed_ns, 351898);
  EXPECT_EQ(result.total_acquires, 8u * 10u);
  EXPECT_EQ(result.op_stats.total(rma::OpKind::kFao), 8u * 10u);
  EXPECT_EQ(result.op_stats.total_ops(), 1586u);
}

TEST(Microbench, RwDurationPerOpPin) {
  // Pins duration mode: a 0.1·duration warmup slice, then ops until the
  // measured deadline; roles are drawn per op.
  auto world = make_sim_xc30(topo::Topology::nodes(2, 4));
  locks::RmaRw lock(*world);
  MicrobenchConfig config;
  config.workload = Workload::kSob;
  config.duration_ns = 40'000;
  config.fw = 0.25;
  config.role_mode = RoleMode::kPerOp;
  const BenchResult result = run_lock_bench(*world, lock, config);
  EXPECT_EQ(result.elapsed_ns, 54595);
  EXPECT_EQ(result.total_acquires, 66u);
  EXPECT_EQ(result.num_writers, 17);
}

TEST(BenchEnv, TopologyMatchesPaperModel) {
  BenchEnv env;
  const auto topo = env.topology_for(256);
  EXPECT_EQ(topo.num_levels(), 2);
  EXPECT_EQ(topo.nprocs(), 256);
  EXPECT_EQ(topo.procs_per_leaf(), 16);
  EXPECT_EQ(topo.num_elements(2), 16);
}

TEST(BenchEnv, OpsForBoundsTotals) {
  BenchEnv env;
  EXPECT_EQ(env.ops_for(16, 16000), 1000);
  EXPECT_EQ(env.ops_for(1024, 16000), 15);
  EXPECT_EQ(env.ops_for(1024, 1000, 4), 4);  // floor at min_ops
}

TEST(BenchEnv, ParsesCompleteValues) {
  ::setenv("RMALOCK_PS", "16,64", 1);
  ::setenv("RMALOCK_SEED", "7", 1);
  ::setenv("RMALOCK_JOBS", "0", 1);
  const BenchEnv env = BenchEnv::from_env();
  ::unsetenv("RMALOCK_PS");
  ::unsetenv("RMALOCK_SEED");
  ::unsetenv("RMALOCK_JOBS");
  EXPECT_EQ(env.ps, (std::vector<i32>{16, 64}));
  EXPECT_EQ(env.seed, 7u);
  EXPECT_EQ(env.jobs, 0);
}

/// BenchEnv::from_env() with one variable set (inside a death-test child,
/// so the environment change dies with it).
void from_env_with(const char* var, const char* value) {
  ::setenv(var, value, 1);
  (void)BenchEnv::from_env();
}

TEST(BenchEnvDeathTest, RejectsValuesThatDoNotParseCompletely) {
  EXPECT_DEATH(from_env_with("RMALOCK_PS", "16,abc"), "RMALOCK_PS");
  EXPECT_DEATH(from_env_with("RMALOCK_PS", "16x32"), "RMALOCK_PS");
  EXPECT_DEATH(from_env_with("RMALOCK_PS", "16,"), "RMALOCK_PS");
  EXPECT_DEATH(from_env_with("RMALOCK_PS", ""), "RMALOCK_PS");
  EXPECT_DEATH(from_env_with("RMALOCK_JOBS", "abc"), "RMALOCK_JOBS");
  EXPECT_DEATH(from_env_with("RMALOCK_JOBS", "2x"), "RMALOCK_JOBS");
  EXPECT_DEATH(from_env_with("RMALOCK_SEED", "abc"), "RMALOCK_SEED");
  EXPECT_DEATH(from_env_with("RMALOCK_SEED", "-1"), "RMALOCK_SEED");
}

TEST(BenchEnvDeathTest, RejectsNonPositiveP) {
  EXPECT_DEATH(from_env_with("RMALOCK_PS", "16,0"), "RMALOCK_PS");
  EXPECT_DEATH(from_env_with("RMALOCK_PS", "-16"), "RMALOCK_PS");
}

TEST(FigureReportTest, StoresAndChecks) {
  FigureReport report("figX", "test", "expectation");
  report.add("A", 16, "throughput", 1.5);
  report.add("A", 32, "throughput", 2.5);
  report.add("B", 16, "throughput", 0.5);
  EXPECT_TRUE(report.has("A", 16, "throughput"));
  EXPECT_FALSE(report.has("B", 32, "throughput"));
  EXPECT_DOUBLE_EQ(report.value("A", 32, "throughput"), 2.5);
  report.check("a beats b", report.value("A", 16, "throughput") >
                                report.value("B", 16, "throughput"),
               "ok");
  EXPECT_TRUE(report.all_checks_passed());
  report.check("always fails", false, "sad");
  EXPECT_FALSE(report.all_checks_passed());
  report.print();  // smoke: must not crash
}

}  // namespace
}  // namespace rmalock::harness
