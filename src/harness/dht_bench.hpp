// DHT case-study benchmark (§5.3, Fig. 6).
//
// Ranks 1..P-1 hammer the local volume of rank 0 with a mix of inserts and
// reads on random elements; the figure of merit is the total (virtual) time
// to complete all operations. Three synchronization
// regimes, matching the paper's comparison:
//
//   kAtomics  "foMPI-A"  — lock-free CAS/FAO protocol, no lock;
//   kLockedRw             — every read under a reader lock, every insert
//                           under a writer lock (pass foMPI-RW or RMA-RW).
#pragma once

#include "dht/dht.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::harness {

struct DhtBenchConfig {
  /// Operations per participating process (P-1 of them).
  i32 ops_per_proc = 30;
  /// Probability that an operation is an insert, F_W; the rest are reads.
  double fw = 0.05;
};

struct DhtBenchResult {
  u64 total_ops = 0;
  Nanos elapsed_ns = 0;
  /// Measured-phase inserts dropped with dht::InsertStatus::kHeapFull
  /// (overflow heap exhausted). The bench reports this as a rate instead of
  /// aborting the run, so undersized volumes degrade observably.
  u64 dropped_inserts = 0;
  [[nodiscard]] double total_time_s() const {
    return static_cast<double>(elapsed_ns) / 1e9;
  }
  /// Dropped inserts per executed operation (inserts and reads).
  [[nodiscard]] double drop_rate() const {
    return total_ops == 0
               ? 0.0
               : static_cast<double>(dropped_inserts) /
                     static_cast<double>(total_ops);
  }
};

/// Lock-free (foMPI-A) regime.
DhtBenchResult run_dht_atomics_bench(rma::World& world,
                                     const dht::DistributedHashTable& table,
                                     const DhtBenchConfig& config);

/// Lock-protected regime: reads under the reader lock, inserts under the
/// writer lock.
DhtBenchResult run_dht_locked_bench(rma::World& world,
                                    const dht::DistributedHashTable& table,
                                    locks::RwLock& lock,
                                    const DhtBenchConfig& config);

/// Lock-service regime: every volume is guarded by its own named lock out
/// of a LockSpace (key = volume owner rank) instead of one global RW lock
/// — reads take the shared mode, inserts the exclusive mode. With the
/// single-hot-volume workload this degenerates to one named lock (the
/// directory must cost nothing); whole-table workloads (examples/kv_store)
/// contend per volume.
DhtBenchResult run_dht_lockspace_bench(rma::World& world,
                                       const dht::DistributedHashTable& table,
                                       lockspace::LockSpace& space,
                                       const DhtBenchConfig& config);

}  // namespace rmalock::harness
