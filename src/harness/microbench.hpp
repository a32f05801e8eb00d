// Microbenchmark workloads (§5 "Selection of Benchmarks").
//
//   LB    latency of acquire+release — reported by every run as the
//         per-operation latency summary (the paper's LB is the same loop
//         with latencies recorded);
//   ECSB  empty-critical-section throughput;
//   SOB   single-operation benchmark: one remote memory access in the CS
//         (writers put, readers get a shared word) — fine-grained irregular
//         workloads such as graph processing;
//   WCSB  workload-critical-section: increment a shared counter, then spin
//         1-4 µs of local compute inside the CS;
//   WARB  wait-after-release: empty CS, 1-4 µs pause between operations —
//         varies lock contention.
//
// Every run follows the §5 methodology of harness/phases.hpp.
#pragma once

#include "harness/stats.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::harness {

enum class Workload : u8 { kEcsb, kSob, kWcsb, kWarb };

/// How reader/writer roles are assigned in RW benchmarks.
enum class RoleMode : u8 {
  /// F_W of the *processes* are writers, spread evenly over ranks (and so
  /// over nodes) — the paper's Figure-2 illustration style. Used by tests
  /// that need deterministic role placement.
  kStaticRanks,
  /// Every operation is a write with probability F_W — the paper's
  /// workload motivation (0.2% of *requests* to the Facebook graph are
  /// writes [50]). Used by the figure benchmarks.
  kPerOp,
};

struct MicrobenchConfig {
  Workload workload = Workload::kEcsb;
  /// Measured acquires per process (fixed-ops mode; ignored when
  /// duration_ns > 0).
  i32 ops_per_proc = 100;
  /// Duration mode: measure for this much virtual time instead of a fixed
  /// op count ("throughput is the aggregate count of lock acquires divided
  /// by the total time", §5) — with mixed roles this is essential, since
  /// slow writer cycles must cost *throughput*, not stretch the run.
  Nanos duration_ns = 0;
  /// F_W — fraction of writers (see RoleMode for the interpretation).
  double fw = 1.0;
  RoleMode role_mode = RoleMode::kStaticRanks;
};

struct BenchResult {
  u64 total_acquires = 0;
  Nanos elapsed_ns = 0;  // measured phase makespan (virtual time)
  double throughput_mlocks_s = 0;
  Summary latency_us;         // per acquire+release, all processes
  Summary reader_latency_us;  // RW runs only
  Summary writer_latency_us;  // RW runs only
  /// kStaticRanks (and every exclusive run): number of writer processes;
  /// kPerOp: writer ops counted.
  i64 num_writers = 0;
  rma::OpStats op_stats;  // measured phase, summed over processes
};

/// Number of writer processes for a given F_W (at least 1 when F_W > 0).
[[nodiscard]] i32 writer_count(i32 nprocs, double fw);

/// Even spread of `writers` writer roles across `nprocs` ranks.
[[nodiscard]] bool is_writer_rank(Rank rank, i32 nprocs, i32 writers);

/// All processes contend on `lock` with the configured workload. Over an
/// RwLock each op is a read or a write per F_W and the role mode; over an
/// exclusive lock every op is a write and F_W is ignored.
BenchResult run_lock_bench(rma::World& world, locks::ExclusiveLock& lock,
                           const MicrobenchConfig& config);

}  // namespace rmalock::harness
