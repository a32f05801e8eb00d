#include "mc/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "locks/d_mcs.hpp"
#include "mc/checker.hpp"

namespace rmalock::mc {
namespace {

// ---------------------------------------------------------------------------
// Record / replay: the SimWorld contract the whole module stands on.
// ---------------------------------------------------------------------------

rma::SimOptions recording_opts(u64 seed, rma::SchedPolicy policy) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 2);  // 4 procs
  opts.latency = rma::LatencyModel::zero(2);
  opts.seed = seed;
  opts.policy = policy;
  opts.abort_on_deadlock = false;
  opts.max_steps = 2'000'000;
  opts.record_schedule = true;
  return opts;
}

/// Runs a D-MCS workload that logs the global CS entry order through a
/// side window; returns (result, order). The order is a complete functional
/// fingerprint of the schedule.
std::pair<rma::RunResult, std::vector<i64>> run_logged(
    const rma::SimOptions& opts) {
  auto world = rma::SimWorld::create(opts);
  locks::DMcs lock(*world);
  const WinOffset cursor = world->allocate(1);
  const WinOffset log =
      world->allocate(static_cast<usize>(2 * world->nprocs()));
  const rma::RunResult result = world->run([&](rma::RmaComm& comm) {
    for (i32 i = 0; i < 2; ++i) {
      lock.acquire(comm);
      const i64 slot = comm.fao(1, 0, cursor, rma::AccumOp::kSum);
      comm.put(comm.rank(), 0, log + slot);
      comm.flush(0);
      lock.release(comm);
    }
  });
  std::vector<i64> order;
  for (i32 i = 0; i < 2 * world->nprocs(); ++i) {
    order.push_back(world->read_word(0, log + i));
  }
  return {result, order};
}

TEST(ScheduleRecord, SameSeedRecordsSameTrace) {
  const auto [first, order1] = run_logged(recording_opts(11, rma::SchedPolicy::kRandom));
  const auto [again, order2] = run_logged(recording_opts(11, rma::SchedPolicy::kRandom));
  ASSERT_FALSE(first.schedule.empty());
  EXPECT_EQ(first.schedule, again.schedule);
  EXPECT_EQ(order1, order2);
  EXPECT_EQ(first.steps, again.steps);
}

TEST(ScheduleRecord, VirtualTimePolicyRecordsNothing) {
  const auto [result, order] =
      run_logged(recording_opts(11, rma::SchedPolicy::kVirtualTime));
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_TRUE(result.ok());
}

class ScheduleReplayTest
    : public ::testing::TestWithParam<rma::SchedPolicy> {};

TEST_P(ScheduleReplayTest, ReplayIsBitIdentical) {
  const rma::SimOptions record_opts = recording_opts(2024, GetParam());
  const auto [recorded, order1] = run_logged(record_opts);
  ASSERT_TRUE(recorded.ok());
  ASSERT_FALSE(recorded.schedule.empty());

  rma::SimOptions replay_opts = record_opts;
  replay_opts.policy = rma::SchedPolicy::kReplay;
  replay_opts.replay = &recorded.schedule;
  const auto [replayed, order2] = run_logged(replay_opts);

  EXPECT_EQ(replayed.steps, recorded.steps);
  EXPECT_EQ(replayed.makespan_ns, recorded.makespan_ns);
  EXPECT_EQ(replayed.deadlocked, recorded.deadlocked);
  EXPECT_EQ(replayed.replay_divergences, 0u)
      << "faithful replay must honor every recorded pick";
  EXPECT_EQ(replayed.schedule, recorded.schedule)
      << "re-recording a replay must reproduce the trace itself";
  EXPECT_EQ(order1, order2) << "same schedule must yield the same CS order";
}

INSTANTIATE_TEST_SUITE_P(Policies, ScheduleReplayTest,
                         ::testing::Values(rma::SchedPolicy::kRandom,
                                           rma::SchedPolicy::kPct));

TEST(ScheduleReplay, TruncatedTraceFallsBackDeterministically) {
  const auto [recorded, order] =
      run_logged(recording_opts(7, rma::SchedPolicy::kRandom));
  ASSERT_GT(recorded.schedule.size(), 10u);

  rma::ScheduleTrace half;
  half.picks.assign(recorded.schedule.picks.begin(),
                    recorded.schedule.picks.begin() +
                        static_cast<i64>(recorded.schedule.size() / 2));
  rma::SimOptions opts = recording_opts(7, rma::SchedPolicy::kRandom);
  opts.policy = rma::SchedPolicy::kReplay;
  opts.replay = &half;
  const auto [first, order1] = run_logged(opts);
  EXPECT_TRUE(first.ok());  // the run still completes via the fallback
  const auto [second, order2] = run_logged(opts);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(order1, order2) << "truncated replay must still be deterministic";
}

TEST(ScheduleReplay, EmptyTraceIsTheSmallestRankSchedule) {
  rma::ScheduleTrace empty;
  rma::SimOptions opts = recording_opts(7, rma::SchedPolicy::kRandom);
  opts.policy = rma::SchedPolicy::kReplay;
  opts.replay = &empty;
  const auto [result, order] = run_logged(opts);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.replay_divergences, 0u);
  ASSERT_FALSE(result.schedule.empty());
  // Every recorded pick is the smallest runnable rank; picks are
  // non-decreasing only per decision, but rank 0 must open the run.
  EXPECT_EQ(result.schedule.picks.front(), 0);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TraceCase sample_case() {
  TraceCase c;
  c.workload = "ex:rma-mcs";
  c.lock_name = "RMA-MCS";
  c.kind = "deadlock";
  c.topology = topo::Topology::uniform({2, 3}, 4);
  c.recorded_policy = rma::SchedPolicy::kPct;
  c.world_seed = 0xDEADBEEFCAFEULL;
  c.acquires_per_proc = 6;
  c.writer_fraction = 0.25;
  for (i32 r = 0; r < c.topology.nprocs(); ++r) {
    c.writer_roles.push_back(r % 3 == 0);
  }
  c.max_steps = 400'000;
  for (i32 i = 0; i < 100; ++i) c.trace.picks.push_back(i % 24);
  return c;
}

TEST(TraceSerialization, RoundTripsAllFields) {
  const TraceCase original = sample_case();
  const std::string text = serialize_trace(original);
  TraceCase parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.workload, original.workload);
  EXPECT_EQ(parsed.lock_name, original.lock_name);
  EXPECT_EQ(parsed.kind, original.kind);
  EXPECT_EQ(parsed.topology, original.topology);
  EXPECT_EQ(parsed.recorded_policy, original.recorded_policy);
  EXPECT_EQ(parsed.world_seed, original.world_seed);
  EXPECT_EQ(parsed.acquires_per_proc, original.acquires_per_proc);
  EXPECT_DOUBLE_EQ(parsed.writer_fraction, original.writer_fraction);
  EXPECT_EQ(parsed.writer_roles, original.writer_roles);
  EXPECT_EQ(parsed.max_steps, original.max_steps);
  EXPECT_EQ(parsed.trace, original.trace);
}

TEST(TraceSerialization, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.trace";
  std::string error;
  ASSERT_TRUE(write_trace_file(path, sample_case(), &error)) << error;
  TraceCase parsed;
  ASSERT_TRUE(read_trace_file(path, &parsed, &error)) << error;
  EXPECT_EQ(parsed.trace, sample_case().trace);
}

TEST(TraceSerialization, DisarmedCaseStaysByteIdenticalV2) {
  // The tears knob is emitted (and the magic bumped to v3) ONLY when the
  // torn-read fault model is armed: every pre-tear case must keep
  // serializing byte-identically as v2, so existing golden traces and any
  // traces in the wild stay stable.
  const TraceCase disarmed = sample_case();
  ASSERT_EQ(disarmed.max_tears, 0);
  const std::string text = serialize_trace(disarmed);
  EXPECT_EQ(text.rfind("rmalock-trace v2\n", 0), 0u);
  EXPECT_EQ(text.find("tears"), std::string::npos);
  EXPECT_EQ(text.find("v3"), std::string::npos);
}

TEST(TraceSerialization, ArmedCaseRoundTripsTearKnobsAsV3) {
  TraceCase armed = sample_case();
  armed.max_tears = 6;
  armed.tear_chance_permille = 300;
  armed.trace.picks.push_back(-7);  // tear_pick(1) at P = 4
  const std::string text = serialize_trace(armed);
  EXPECT_EQ(text.rfind("rmalock-trace v3\n", 0), 0u);
  EXPECT_NE(text.find("tears 6 300\n"), std::string::npos);
  TraceCase parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.max_tears, 6);
  EXPECT_EQ(parsed.tear_chance_permille, 300u);
  EXPECT_EQ(parsed.trace, armed.trace);
}

TEST(TraceSerialization, OlderVersionsStillParse) {
  // A v2 body (no tears line) must parse with the fault model disarmed,
  // and the same body under a v1 magic must parse too (v1 predates the
  // crash keys; all v2/v3 keys are additive).
  const TraceCase reference = sample_case();
  const std::string v2 = serialize_trace(reference);
  TraceCase parsed;
  std::string error;
  ASSERT_TRUE(parse_trace(v2, &parsed, &error)) << error;
  EXPECT_EQ(parsed.max_tears, 0);
  EXPECT_EQ(parsed.max_crashes, 0);
  EXPECT_EQ(parsed.trace, reference.trace);

  std::string v1 = v2;
  v1.replace(v1.find("v2"), 2, "v1");
  TraceCase parsed1;
  ASSERT_TRUE(parse_trace(v1, &parsed1, &error)) << error;
  EXPECT_EQ(parsed1.trace, reference.trace);
  EXPECT_EQ(parsed1.topology, reference.topology);
}

TEST(TraceSerialization, RejectsGarbage) {
  TraceCase parsed;
  std::string error;
  EXPECT_FALSE(parse_trace("not a trace\n", &parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_trace("rmalock-trace v1\npicks 5\n0 1\n", &parsed,
                           &error));
  EXPECT_FALSE(read_trace_file("/nonexistent/nowhere.trace", &parsed,
                               &error));
  // A roles line that does not match the topology is a parse error, not a
  // downstream assertion failure in the replaying process.
  EXPECT_FALSE(parse_trace("rmalock-trace v1\ntopology - 2\nroles 101\n",
                           &parsed, &error));
  EXPECT_NE(error.find("roles"), std::string::npos);
}

TEST(TraceSerialization, RejectsOversizedCountsTopologiesAndBadValues) {
  // Each once escaped parse_trace as an exception (bad_alloc, length_error)
  // or parsed silently (seed 0).
  for (const char* body :
       {"picks 999999999999999999\n", "picks -1\n",
        "topology 100000,100000 100000\n", "seed abc\n"}) {
    TraceCase parsed;
    std::string error;
    EXPECT_FALSE(
        parse_trace(std::string("rmalock-trace v2\n") + body, &parsed, &error))
        << body;
    EXPECT_FALSE(error.empty()) << body;
  }
}

TEST(TraceSerialization, MutatedGoldensParseOrFailCleanly) {
  // Seeded mutations of every golden trace — truncation, corrupted bytes,
  // corrupted or huge fields — must each parse or be rejected with an
  // error, never throw.
  std::vector<std::filesystem::path> paths(
      std::filesystem::directory_iterator(RMALOCK_TEST_DATA_DIR), {});
  std::sort(paths.begin(), paths.end());  // a fixed mutation stream per file
  ASSERT_EQ(paths.size(), 9u);
  std::vector<std::string> goldens;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    goldens.push_back(text.str());
  }
  const char* const fields[] = {"99999999999999999999", "-1", "4294967296",
                                "abc", "", "1e9", "0x10"};
  Xoshiro256 rng(13);
  for (const std::string& golden : goldens) {
    for (i32 i = 0; i < 300; ++i) {
      std::string mutant = golden;
      const usize at = static_cast<usize>(rng.below(mutant.size()));
      switch (rng.below(3)) {
        case 0:  // truncation
          mutant.resize(at);
          break;
        case 1:  // a corrupted byte
          mutant[at] = "09- ,\nx"[rng.below(7)];
          break;
        default: {  // a corrupted field: the token at `at` replaced
          const usize begin = mutant.find_last_of(" \n", at) + 1;
          const usize end = std::min(mutant.find_first_of(" \n", at),
                                     mutant.size());
          mutant.replace(begin, end > begin ? end - begin : 0,
                         fields[rng.below(std::size(fields))]);
        }
      }
      TraceCase parsed;
      std::string error;
      bool ok = false;
      EXPECT_NO_THROW(ok = parse_trace(mutant, &parsed, &error)) << mutant;
      if (!ok) {
        EXPECT_FALSE(error.empty()) << mutant;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ddmin shrinking (synthetic oracles; lock-backed shrinking is covered in
// test_checker / test_explorer)
// ---------------------------------------------------------------------------

TEST(ShrinkTrace, ReducesToMinimalFailingSubset) {
  // "Fails" iff the trace still contains at least three 7s. A 1-minimal
  // result is exactly three picks.
  rma::ScheduleTrace noisy;
  for (i32 i = 0; i < 200; ++i) noisy.picks.push_back(i % 5);
  noisy.picks[17] = 7;
  noisy.picks[95] = 7;
  noisy.picks[171] = 7;
  const TraceOracle oracle = [](const rma::ScheduleTrace& t) {
    return std::count(t.picks.begin(), t.picks.end(), 7) >= 3;
  };
  ASSERT_TRUE(oracle(noisy));
  ShrinkStats stats;
  const rma::ScheduleTrace shrunk =
      shrink_trace(noisy, oracle, /*max_replays=*/0, &stats);
  EXPECT_EQ(shrunk.picks, (std::vector<Rank>{7, 7, 7}));
  EXPECT_EQ(stats.initial_len, 200u);
  EXPECT_EQ(stats.final_len, 3u);
  EXPECT_GT(stats.replays, 0u);
}

TEST(ShrinkTrace, PrefixSearchDiscardsTheTail) {
  // "Fails" iff pick #10 (index 9) is present and equals 9 — everything
  // after it is dead weight the prefix binary search must discard in
  // O(log n) replays before ddmin even starts.
  rma::ScheduleTrace noisy;
  for (i32 i = 0; i < 1024; ++i) noisy.picks.push_back(i % 3);
  noisy.picks[9] = 9;
  const TraceOracle oracle = [](const rma::ScheduleTrace& t) {
    return t.picks.size() > 9 && t.picks[9] == 9;
  };
  ShrinkStats stats;
  const rma::ScheduleTrace shrunk =
      shrink_trace(noisy, oracle, /*max_replays=*/0, &stats);
  EXPECT_EQ(shrunk.picks.size(), 10u);
  EXPECT_EQ(shrunk.picks[9], 9);
  EXPECT_LT(stats.replays, 200u);
}

TEST(ShrinkTrace, RespectsReplayBudget) {
  rma::ScheduleTrace noisy;
  for (i32 i = 0; i < 64; ++i) noisy.picks.push_back(i);
  const TraceOracle oracle = [](const rma::ScheduleTrace& t) {
    return !t.picks.empty();  // any nonempty trace "fails"
  };
  ShrinkStats stats;
  const rma::ScheduleTrace shrunk =
      shrink_trace(noisy, oracle, /*max_replays=*/3, &stats);
  EXPECT_LE(stats.replays, 3u);
  ASSERT_FALSE(shrunk.picks.empty());  // result must still satisfy the oracle
  EXPECT_TRUE(oracle(shrunk));
}

TEST(ShrinkTrace, EmptyFallbackScheduleWins) {
  // When the violation does not depend on the schedule at all, the minimal
  // counterexample is the empty trace (pure smallest-rank fallback).
  rma::ScheduleTrace noisy;
  for (i32 i = 0; i < 32; ++i) noisy.picks.push_back(i % 4);
  const TraceOracle oracle = [](const rma::ScheduleTrace&) { return true; };
  const rma::ScheduleTrace shrunk = shrink_trace(noisy, oracle);
  EXPECT_TRUE(shrunk.picks.empty());
}

}  // namespace
}  // namespace rmalock::mc
