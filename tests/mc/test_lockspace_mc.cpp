// Model checking of the LockSpace layer: per-key mutual exclusion and
// deadlock freedom over keyed workloads, the cross-key-independence
// witness, and parallel-campaign determinism for the keyed checker.
#include <gtest/gtest.h>

#include <set>

#include "mc/checker.hpp"
#include "mc/explorer.hpp"

namespace rmalock {
namespace {

mc::LockSpaceFactory space_factory(locks::Backend backend,
                                   i32 slots_per_shard = 4, i32 shards = 0) {
  return [backend, slots_per_shard, shards](rma::World& world) {
    lockspace::LockSpaceConfig config;
    config.backend = backend;
    config.slots_per_shard = slots_per_shard;
    config.shards = shards;
    return std::make_unique<lockspace::LockSpace>(world, config);
  };
}

TEST(PickCrossSlotKeys, ReturnsDistinctSlots) {
  const topo::Topology topology = topo::Topology::uniform({}, 2);
  const auto factory = space_factory(locks::Backend::kRmaMcs);
  const auto keys = mc::pick_cross_slot_keys(factory, topology, 3);
  ASSERT_EQ(keys.size(), 3u);
  // Re-resolve through a fresh space: the directory is instance-independent.
  rma::SimOptions opts;
  opts.topology = topology;
  auto world = rma::SimWorld::create(opts);
  const auto space = factory(*world);
  std::set<u32> slots;
  for (const u64 key : keys) slots.insert(space->resolve(key).global_slot);
  EXPECT_EQ(slots.size(), 3u);
}

TEST(LockSpaceExhaustive, P2K2IsSafeAndWitnessesCrossKeyOverlap) {
  // The acceptance configuration: P=2, K=2 cross-slot keys, every bounded
  // interleaving enumerated. Zero violations AND at least one schedule
  // with both keys held at once (independence made observable).
  const auto factory = space_factory(locks::Backend::kRmaMcs);
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 2;
  config.max_steps = 400'000;
  const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 2);
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 3;
  const auto report = mc::check_exhaustive(
      config, explore, mc::lockspace_workload(factory, keys),
      /*iterative=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.exhausted_spaces, 1u) << report.summary();
  EXPECT_GT(report.cross_key_overlap_schedules, 0u) << report.summary();
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_EQ(report.total_cs_entries, report.schedules_run * 4);  // 2 procs x 2
}

TEST(LockSpaceExhaustive, RwBackendReadersAndWritersStaySafe) {
  const auto factory = space_factory(locks::Backend::kRmaRw);
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 400'000;
  config.writer_roles = {true, false};  // one writer, one reader
  const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 2);
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 2;
  const auto report = mc::check_exhaustive(
      config, explore, mc::lockspace_workload(factory, keys),
      /*iterative=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.exhausted_spaces, 1u);
  EXPECT_GT(report.cross_key_overlap_schedules, 0u);
}

TEST(LockSpaceExhaustive, CollapsedSpaceNeverOverlapsDistinctKeys) {
  // One shard, one slot: every key stripes onto the SAME physical lock, so
  // "different" keys must serialize — the overlap witness must stay zero
  // while safety still holds. This is the true-negative check of the
  // cross-key-independence machinery.
  const auto factory =
      space_factory(locks::Backend::kRmaMcs, /*slots_per_shard=*/1,
                    /*shards=*/1);
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({}, 2);
  config.acquires_per_proc = 2;
  config.max_steps = 400'000;
  const std::vector<u64> keys = {0, 1};  // collide by construction
  mc::ExploreConfig explore;
  explore.max_schedules = 200'000;
  explore.max_preemptions = 3;
  const auto report = mc::check_exhaustive(
      config, explore, mc::lockspace_workload(factory, keys),
      /*iterative=*/true);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.exhausted_spaces, 1u);
  EXPECT_EQ(report.cross_key_overlap_schedules, 0u)
      << "keys sharing one slot can never be held simultaneously";
}

TEST(LockSpaceRandomized, CampaignIsSafeAcrossPolicies) {
  const auto factory = space_factory(locks::Backend::kRmaRw);
  for (const auto policy :
       {rma::SchedPolicy::kRandom, rma::SchedPolicy::kPct}) {
    mc::CheckConfig config;
    config.topology = topo::Topology::uniform({2}, 2);  // P = 4
    config.policy = policy;
    config.schedules = 30;
    config.acquires_per_proc = 6;
    config.max_steps = 2'000'000;
    config.writer_fraction = 0.5;
    const auto keys =
        mc::pick_cross_slot_keys(factory, config.topology, 2);
    const auto report =
        mc::check(config, mc::lockspace_workload(factory, keys));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.schedules_run, 30u);
    EXPECT_GT(report.cross_key_overlap_schedules, 0u) << report.summary();
  }
}

TEST(LockSpaceRandomized, ParallelCampaignIsByteIdenticalToSequential) {
  const auto factory = space_factory(locks::Backend::kRmaMcs);
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.schedules = 24;
  config.acquires_per_proc = 4;
  config.max_steps = 2'000'000;
  const auto keys = mc::pick_cross_slot_keys(factory, config.topology, 2);
  config.jobs = 1;
  const auto sequential =
      mc::check(config, mc::lockspace_workload(factory, keys));
  config.jobs = 2;
  const auto parallel =
      mc::check(config, mc::lockspace_workload(factory, keys));
  EXPECT_EQ(sequential.summary(), parallel.summary());
  EXPECT_EQ(sequential.cross_key_overlap_schedules,
            parallel.cross_key_overlap_schedules);
}

}  // namespace
}  // namespace rmalock
