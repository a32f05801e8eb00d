// Workload engine tests: key-generator distribution shapes, engine
// bookkeeping (ops, latencies, mode split), determinism across repeated
// runs (the property the parallel campaign runtime builds on), the
// open-loop arrival discipline, and pins of the §5 phases.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>

#include "../support/test_support.hpp"
#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"
#include "workload/engine.hpp"
#include "workload/keygen.hpp"

namespace rmalock {
namespace {

using workload::KeyDist;
using workload::KeyGenConfig;
using workload::KeyGenerator;

TEST(KeyGenerator, UniformStaysInRangeAndCoversKeys) {
  KeyGenConfig config;
  config.num_keys = 64;
  config.dist = KeyDist::kUniform;
  const KeyGenerator gen(config);
  Xoshiro256 rng(1);
  std::map<u64, u64> counts;
  for (i32 i = 0; i < 64 * 100; ++i) {
    const u64 key = gen.next(rng);
    ASSERT_LT(key, config.num_keys);
    ++counts[key];
  }
  EXPECT_EQ(counts.size(), 64u);  // every key seen in 100x draws
}

TEST(KeyGenerator, ZipfianFavorsLowRanks) {
  KeyGenConfig config;
  config.num_keys = 1000;
  config.dist = KeyDist::kZipfian;
  config.zipf_s = 0.99;
  const KeyGenerator gen(config);
  Xoshiro256 rng(7);
  u64 key0 = 0;
  u64 tail = 0;
  const i32 draws = 20000;
  for (i32 i = 0; i < draws; ++i) {
    const u64 key = gen.next(rng);
    ASSERT_LT(key, config.num_keys);
    if (key == 0) ++key0;
    if (key >= 500) ++tail;
  }
  // Zipf(0.99) over 1000 keys: rank 0 draws ~13% of traffic; the entire
  // upper half draws ~9%. Wide margins keep this statistical test stable.
  EXPECT_GT(key0, static_cast<u64>(draws) / 20);   // > 5%
  EXPECT_LT(tail, static_cast<u64>(draws) / 5);    // < 20%
}

TEST(KeyGenerator, ZipfianHandlesExponentOne) {
  KeyGenConfig config;
  config.num_keys = 100;
  config.dist = KeyDist::kZipfian;
  config.zipf_s = 1.0;  // removable singularity of the sampler
  const KeyGenerator gen(config);
  Xoshiro256 rng(3);
  for (i32 i = 0; i < 1000; ++i) {
    ASSERT_LT(gen.next(rng), config.num_keys);
  }
}

TEST(KeyGenerator, SingleKeySpaceAlwaysReturnsZero) {
  for (const KeyDist dist : {KeyDist::kUniform, KeyDist::kZipfian}) {
    KeyGenConfig config;
    config.num_keys = 1;
    config.dist = dist;
    const KeyGenerator gen(config);
    Xoshiro256 rng(5);
    for (i32 i = 0; i < 100; ++i) EXPECT_EQ(gen.next(rng), 0u);
  }
}

TEST(KeyGenerator, ZipfSZeroIsExactlyUniform) {
  // s == 0 is analytically uniform (1/r^0 is constant); the constructor
  // rewrites the config so the sampler never runs the Gray et al.
  // recurrence outside its domain. Exactly uniform means exactly: the
  // same RNG stream must produce the identical key sequence as an
  // explicitly-uniform generator.
  KeyGenConfig zipf0;
  zipf0.num_keys = 97;
  zipf0.dist = KeyDist::kZipfian;
  zipf0.zipf_s = 0.0;
  const KeyGenerator degenerate(zipf0);
  EXPECT_EQ(degenerate.config().dist, KeyDist::kUniform);

  KeyGenConfig uniform = zipf0;
  uniform.dist = KeyDist::kUniform;
  const KeyGenerator reference(uniform);
  Xoshiro256 a(17);
  Xoshiro256 b(17);
  for (i32 i = 0; i < 2000; ++i) {
    EXPECT_EQ(degenerate.next(a), reference.next(b)) << "draw " << i;
  }
}

TEST(KeyGenerator, SingleKeyZipfianRewritesToUniform) {
  // K == 1 gave the zipfian init a negative eta denominator
  // (zeta2 = 2 > zetan = 1); the constructor now degrades to uniform and
  // the rewrite is observable through config().
  KeyGenConfig config;
  config.num_keys = 1;
  config.dist = KeyDist::kZipfian;
  config.zipf_s = 0.99;
  const KeyGenerator gen(config);
  EXPECT_EQ(gen.config().dist, KeyDist::kUniform);
  Xoshiro256 rng(23);
  for (i32 i = 0; i < 200; ++i) EXPECT_EQ(gen.next(rng), 0u);
}

TEST(KeyGenerator, TwoKeyZipfianStaysFiniteAndCoversBothKeys) {
  // K == 2 makes the eta denominator exactly zero (zeta2 == zetan); the
  // pinned eta must never surface as an inf/NaN rank.
  KeyGenConfig config;
  config.num_keys = 2;
  config.dist = KeyDist::kZipfian;
  config.zipf_s = 0.8;
  const KeyGenerator gen(config);
  Xoshiro256 rng(29);
  u64 seen[2] = {0, 0};
  for (i32 i = 0; i < 4000; ++i) {
    const u64 key = gen.next(rng);
    ASSERT_LT(key, 2u);
    ++seen[key];
  }
  EXPECT_GT(seen[0], seen[1]);  // Zipf favors rank 0
  EXPECT_GT(seen[1], 0u);
}

TEST(KeyGenerator, DegenerateZipfianPassesUniformityChiSquared) {
  // Chi-squared uniformity regression over a small key space for the
  // degenerate-rewritten generator: Zipf(s = 0) over K = 16 must be
  // statistically indistinguishable from uniform. With 64k draws and
  // df = 15 a faithful uniform sampler keeps the statistic far below 40
  // (the 99.9th percentile is ~37.7); the pre-fix behavior — running the
  // Gray et al. recurrence at s = 0, which pins most of the mass on ranks
  // 0 and 1 — scores in the tens of thousands. The RNG stream is fixed,
  // so the statistic is deterministic.
  KeyGenConfig config;
  config.num_keys = 16;
  config.dist = KeyDist::kZipfian;
  config.zipf_s = 0.0;
  const KeyGenerator gen(config);
  constexpr i32 kDraws = 64'000;
  Xoshiro256 rng(31);
  std::array<u64, 16> counts{};
  for (i32 i = 0; i < kDraws; ++i) {
    const u64 key = gen.next(rng);
    ASSERT_LT(key, 16u);
    ++counts[static_cast<usize>(key)];
  }
  const double expected = static_cast<double>(kDraws) / 16.0;
  double chi2 = 0.0;
  for (const u64 count : counts) {
    const double delta = static_cast<double>(count) - expected;
    chi2 += delta * delta / expected;
  }
  EXPECT_LT(chi2, 40.0) << "degenerate Zipf(0) is not uniform over K=16";
}

TEST(KeyGenerator, DeterministicPerStream) {
  KeyGenConfig config;
  config.num_keys = 4096;
  config.dist = KeyDist::kZipfian;
  const KeyGenerator gen(config);
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (i32 i = 0; i < 1000; ++i) EXPECT_EQ(gen.next(a), gen.next(b));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

workload::WorkloadResult run_once(const workload::WorkloadConfig& wc,
                                  u64 seed = 1) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 4);  // P = 8
  opts.seed = seed;
  auto world = rma::SimWorld::create(opts);
  lockspace::LockSpaceConfig sc;
  sc.slots_per_shard = 8;
  lockspace::LockSpace space(*world, sc);
  return workload::run_workload(*world, space, wc);
}

workload::WorkloadConfig small_config() {
  workload::WorkloadConfig wc;
  wc.keys.num_keys = 1 << 12;
  wc.ops_per_proc = 40;
  wc.read_fraction = 0.75;
  return wc;
}

TEST(WorkloadEngine, CountsAddUpAndLatenciesAreMeasured) {
  const auto result = run_once(small_config());
  EXPECT_EQ(result.total_ops, 8u * 40u);
  EXPECT_EQ(result.total_ops, result.read_ops + result.write_ops);
  EXPECT_GT(result.read_ops, result.write_ops);  // 75% reads
  EXPECT_EQ(result.latency_us.n, result.total_ops);
  EXPECT_GT(result.throughput_mops_s, 0.0);
  EXPECT_GT(result.elapsed_ns, 0);
  EXPECT_GT(result.instantiated_slots, 0u);
}

TEST(WorkloadEngine, VirtualTimeMetricsAreBitIdenticalAcrossRuns) {
  const auto a = run_once(small_config());
  const auto b = run_once(small_config());
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.latency_us.mean, b.latency_us.mean);
  EXPECT_EQ(a.latency_us.p95, b.latency_us.p95);
  EXPECT_EQ(a.throughput_mops_s, b.throughput_mops_s);
}

TEST(WorkloadEngine, SeedChangesTheRun) {
  const auto a = run_once(small_config(), /*seed=*/1);
  const auto b = run_once(small_config(), /*seed=*/2);
  EXPECT_NE(a.elapsed_ns, b.elapsed_ns);
}

TEST(WorkloadEngine, OpenLoopChargesQueueingDelay) {
  workload::WorkloadConfig closed = small_config();
  workload::WorkloadConfig open = small_config();
  open.arrival = workload::Arrival::kOpen;
  open.interarrival_ns = 1;  // far above service rate: backlog builds
  const auto closed_result = run_once(closed);
  const auto open_result = run_once(open);
  EXPECT_EQ(open_result.total_ops, closed_result.total_ops);
  // Overloaded open loop measures from scheduled arrival, so its mean
  // latency must exceed the closed loop's completion-to-completion view.
  EXPECT_GT(open_result.latency_us.mean, closed_result.latency_us.mean);
}

TEST(WorkloadEngine, PoissonOpenLoopRuns) {
  workload::WorkloadConfig wc = small_config();
  wc.arrival = workload::Arrival::kOpen;
  wc.interarrival_ns = 5000;
  const auto result = run_once(wc);
  EXPECT_EQ(result.total_ops, 8u * 40u);
}

TEST(WorkloadEngine, AllReadsOnRwBackendKeepsWritesAtZero) {
  workload::WorkloadConfig wc = small_config();
  wc.read_fraction = 1.0;
  const auto result = run_once(wc);
  EXPECT_EQ(result.write_ops, 0u);
  EXPECT_EQ(result.read_ops, result.total_ops);
}

TEST(WorkloadEngine, SaturatedOpenLoopLatenciesStayNonNegativeAndFinite) {
  // Regression: the open loop measures from the *scheduled* arrival. In an
  // over-driven run a request can complete with `now` behind (or barely
  // ahead of) its schedule; the unsigned `now - scheduled` subtraction
  // used to wrap into ~5e11 us latencies. Over-drive hard — 1 ns mean
  // Poisson arrivals — and require every summary to be non-negative and
  // far below the wrap magnitude.
  workload::WorkloadConfig wc = small_config();
  wc.arrival = workload::Arrival::kOpen;
  wc.interarrival_ns = 1;  // far above the service rate: permanent backlog
  const auto result = run_once(wc);
  EXPECT_EQ(result.total_ops, 8u * 40u);
  for (const harness::Summary* s :
       {&result.latency_us, &result.read_latency_us,
        &result.write_latency_us}) {
    EXPECT_GE(s->min, 0.0);
    EXPECT_TRUE(std::isfinite(s->max));
    // A wrapped u64 delta shows up as ~1.8e13 us; queueing delay in this
    // tiny run is bounded by the whole run's virtual time (<< 1e9 us).
    EXPECT_LT(s->max, 1e9);
  }
  // Saturation means queueing delay accumulates: the last arrivals wait
  // for the whole backlog, so p95 must exceed the closed-loop service
  // latency by a wide margin (the measurement is from scheduled time).
  EXPECT_GT(result.latency_us.p95, result.latency_us.min);
}

TEST(WorkloadEngine, ClosedLoopPin) {
  // Pins the closed loop's phases and draws: ⌈0.1·ops⌉ warmup requests,
  // then the measured ones, each issued on completion of the last.
  const auto result = run_once(small_config());
  EXPECT_EQ(result.elapsed_ns, 379115);
  EXPECT_EQ(result.total_ops, 8u * 40u);
  EXPECT_EQ(result.read_ops, 238u);
  EXPECT_EQ(result.write_ops, 82u);
}

TEST(WorkloadEngine, OpenLoopPin) {
  // Pins the open loop: closed-loop warmup, then a Poisson schedule that
  // starts at the measured phase's first request.
  workload::WorkloadConfig wc = small_config();
  wc.arrival = workload::Arrival::kOpen;
  wc.interarrival_ns = 3000;
  const auto result = run_once(wc);
  EXPECT_EQ(result.elapsed_ns, 367947);
  EXPECT_EQ(result.total_ops, 8u * 40u);
  EXPECT_EQ(result.read_ops, 235u);
  EXPECT_EQ(result.write_ops, 85u);
}

TEST(WorkloadEngine, RunsOnThreadWorld) {
  // The shared §5 phases on real threads: barriers, warmup and the
  // measured window over ThreadComm, closed and open loop.
  for (const workload::Arrival arrival :
       {workload::Arrival::kClosed, workload::Arrival::kOpen}) {
    auto world = test::make_threads(topo::Topology::uniform({2}, 2));  // P=4
    lockspace::LockSpaceConfig sc;
    sc.slots_per_shard = 4;
    lockspace::LockSpace space(*world, sc);
    workload::WorkloadConfig wc = small_config();
    wc.ops_per_proc = 20;
    wc.arrival = arrival;
    const auto result = workload::run_workload(*world, space, wc);
    EXPECT_EQ(result.total_ops, 4u * 20u);
    EXPECT_EQ(result.total_ops, result.read_ops + result.write_ops);
    EXPECT_GT(result.elapsed_ns, 0);
    EXPECT_GT(result.instantiated_slots, 0u);
  }
}

// ---------------------------------------------------------------------------
// Versioned-payload / optimistic-read mode
// ---------------------------------------------------------------------------

workload::WorkloadResult run_versioned(const workload::WorkloadConfig& wc,
                                       u64 seed = 1) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 4);  // P = 8
  opts.seed = seed;
  auto world = rma::SimWorld::create(opts);
  lockspace::LockSpaceConfig sc;
  sc.slots_per_shard = 8;
  sc.payload_words = 4;
  lockspace::LockSpace space(*world, sc);
  return workload::run_workload(*world, space, wc);
}

TEST(WorkloadEngine, VersionedLockedReadsNeverTouchOptimisticMachinery) {
  workload::WorkloadConfig wc = small_config();
  wc.versioned_payload = true;
  wc.optimistic_reads = false;
  const auto result = run_versioned(wc);
  EXPECT_EQ(result.total_ops, 8u * 40u);
  EXPECT_EQ(result.optimistic_fallbacks, 0u);
  EXPECT_EQ(result.optimistic_retries, 0u);
}

TEST(WorkloadEngine, OptimisticModeRunsAndBoundsFallbacks) {
  workload::WorkloadConfig wc = small_config();
  wc.keys.num_keys = 16;  // hot service: writers force some retries
  wc.versioned_payload = true;
  wc.optimistic_reads = true;
  const auto result = run_versioned(wc);
  EXPECT_EQ(result.total_ops, 8u * 40u);
  // Fallbacks are a subset of reads; retries are finite bookkeeping, not
  // an unbounded spin (the engine's per-read retry cap guarantees this).
  EXPECT_LE(result.optimistic_fallbacks, result.read_ops);
}

TEST(WorkloadEngine, OptimisticModeIsDeterministic) {
  workload::WorkloadConfig wc = small_config();
  wc.keys.num_keys = 64;
  wc.versioned_payload = true;
  wc.optimistic_reads = true;
  const auto a = run_versioned(wc);
  const auto b = run_versioned(wc);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.optimistic_fallbacks, b.optimistic_fallbacks);
  EXPECT_EQ(a.optimistic_retries, b.optimistic_retries);
  EXPECT_EQ(a.latency_us.mean, b.latency_us.mean);
}

}  // namespace
}  // namespace rmalock
