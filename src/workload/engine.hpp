// Synthetic lock-service workload engine.
//
// Drives a lockspace::LockSpace from every process of a World with a
// configurable request mix: key popularity (see keygen.hpp), read/write
// ratio, and arrival discipline:
//
//   * closed loop — each process issues the next request as soon as the
//     previous one completed (the classic interactive-client model; offered
//     load adapts to service time);
//   * open loop — requests arrive on a Poisson schedule independent of
//     completion; a process that falls behind works through its backlog,
//     and each op's latency is measured from its *scheduled arrival*, so
//     queueing delay is visible (the coordinated-omission-free convention).
//
// Every request touches one remote word on its key's shard home inside the
// critical section (readers get, writers put) — the SOB-style payload that
// makes a lock service out of a lock microbench — unless the versioned
// payload area replaces it. Runs follow the §5 phases of harness/phases.hpp.
//
// All randomness flows through the per-process comm.rng() stream, so runs
// are deterministic per (world seed, config) in both worlds and SimWorld
// virtual-time metrics are bit-identical however the surrounding campaign
// is parallelized.
#pragma once

#include "harness/stats.hpp"
#include "lockspace/lockspace.hpp"
#include "workload/keygen.hpp"

namespace rmalock::workload {

enum class Arrival : u8 { kClosed, kOpen };

struct WorkloadConfig {
  KeyGenConfig keys;
  /// Probability that a request is a read (shared mode); the rest are
  /// writes (exclusive mode).
  double read_fraction = 0.95;
  Arrival arrival = Arrival::kClosed;
  /// Open loop: mean Poisson inter-arrival gap per process.
  Nanos interarrival_ns = 2000;
  /// Measured requests per process, after a discarded warmup (§5).
  i32 ops_per_proc = 100;
  /// Route requests through the space's versioned payload area instead of
  /// the single payload word (the space must be built with
  /// payload_words > 0): writers publish every payload word via
  /// write_payload under the write lock; readers take a consistent
  /// multi-word snapshot — locked_read by default, or the lock-free
  /// optimistic_read when optimistic_reads is also set.
  bool versioned_payload = false;
  /// Readers use LockSpace::optimistic_read (requires versioned_payload).
  bool optimistic_reads = false;
};

struct WorkloadResult {
  u64 total_ops = 0;
  u64 read_ops = 0;
  u64 write_ops = 0;
  /// Makespan of the measured phase (virtual time in SimWorld).
  Nanos elapsed_ns = 0;
  double throughput_mops_s = 0;
  harness::Summary latency_us;        // all requests
  harness::Summary read_latency_us;   // shared-mode requests
  harness::Summary write_latency_us;  // exclusive-mode requests
  /// The streaming histograms behind the summaries above (µs; recording is
  /// O(1) per request instead of the former O(ops) latency vectors).
  /// Per-process histograms are merged in rank order, so the buckets and
  /// running moments are bit-identical however the surrounding campaign is
  /// parallelized. latency_hist_us merges reads before writes.
  obs::LogHistogram latency_hist_us;
  obs::LogHistogram read_latency_hist_us;
  obs::LogHistogram write_latency_hist_us;
  /// LockSpace slots granted at least once by the end of the run (the
  /// working-set gauge: how much of the grid the key mix actually touched).
  u64 instantiated_slots = 0;
  /// Versioned-payload mode with optimistic_reads: reads that exhausted
  /// their retries and fell back to the read lock, and total optimistic
  /// attempts that failed validation (0 elsewhere).
  u64 optimistic_fallbacks = 0;
  u64 optimistic_retries = 0;
};

/// Runs the configured workload against `space` on every process of
/// `world`. Collective; the space must have been built over `world`.
WorkloadResult run_workload(rma::World& world, lockspace::LockSpace& space,
                            const WorkloadConfig& config);

}  // namespace rmalock::workload
