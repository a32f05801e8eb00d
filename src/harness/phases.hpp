// The §5 measurement methodology, shared by the microbench, the DHT bench
// and the workload engine.
//
// Methodology follows §5: the first 10% of operations are a discarded
// warmup; latency is the arithmetic mean over all recorded operations;
// throughput is total acquires divided by the (virtual) time of the
// measured phase, which is bracketed by barriers. run_phases owns the
// barriers, the warmup arithmetic and the measured-phase window (its
// makespan and RMA op counts); each caller supplies only its op body and
// folds its own per-op results.
#pragma once

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "rma/world.hpp"

namespace rmalock::harness {

/// Share of the measured phase that runs first as discarded warmup (§5).
inline constexpr double kWarmupFraction = 0.1;

struct PhaseResult {
  /// Makespan of the measured phase, read on rank 0 (virtual time in
  /// SimWorld; the closing barrier synchronizes the clocks).
  Nanos elapsed_ns = 0;
  /// RMA ops issued during the measured phase, summed over ranks.
  rma::OpStats op_stats;
};

/// Runs, on every process of `world`: barrier; warmup; barrier; measured
/// phase; barrier. Each op is `op(comm, i, measured)`, with i counting the
/// ops of its phase from 0.
///
/// Fixed-ops mode (duration_ns == 0): ⌈kWarmupFraction·ops⌉ warmup ops,
/// then `ops` measured ones. Duration mode (duration_ns > 0): ops run for
/// kWarmupFraction·duration_ns of warmup, then until duration_ns of
/// measured time has passed — slow ops cost throughput instead of
/// stretching the run.
template <typename Op>
PhaseResult run_phases(rma::World& world, i32 ops, Nanos duration_ns,
                       const Op& op) {
  const bool duration_mode = duration_ns > 0;
  RMALOCK_CHECK(duration_mode || ops >= 1);
  const i32 warmup_ops = static_cast<i32>(std::ceil(kWarmupFraction * ops));
  const Nanos warmup_ns = static_cast<Nanos>(
      kWarmupFraction * static_cast<double>(duration_ns));
  const auto phase = [&](rma::RmaComm& comm, i32 count, Nanos length,
                         bool measured) {
    if (duration_mode) {
      const Nanos end = comm.now_ns() + length;
      for (i32 i = 0; comm.now_ns() < end; ++i) op(comm, i, measured);
    } else {
      for (i32 i = 0; i < count; ++i) op(comm, i, measured);
    }
  };

  PhaseResult result;
  std::vector<rma::OpStats> measured_ops(static_cast<usize>(world.nprocs()));
  const rma::RunResult run = world.run([&](rma::RmaComm& comm) {
    comm.barrier();
    phase(comm, warmup_ops, warmup_ns, /*measured=*/false);
    comm.barrier();
    const rma::OpStats before = comm.stats();
    const Nanos start = comm.now_ns();
    phase(comm, ops, duration_ns, /*measured=*/true);
    comm.barrier();
    rma::OpStats& mine = measured_ops[static_cast<usize>(comm.rank())];
    mine = comm.stats();
    mine -= before;
    if (comm.rank() == 0) result.elapsed_ns = comm.now_ns() - start;
  });
  RMALOCK_CHECK_MSG(run.ok(), "measurement run failed (deadlock/step limit)");

  result.op_stats = rma::OpStats(world.topology().num_levels());
  for (const rma::OpStats& stats : measured_ops) result.op_stats += stats;
  return result;
}

}  // namespace rmalock::harness
