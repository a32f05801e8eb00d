#include "harness/dht_bench.hpp"

#include <cmath>
#include <functional>

#include "common/check.hpp"
#include "harness/phases.hpp"

namespace rmalock::harness {

namespace {

/// Every participant targets rank 0's local volume.
constexpr Rank kVolumeOwner = 0;
/// Values are drawn uniformly from [1, kKeyRange].
constexpr u64 kKeyRange = u64{1} << 16;

/// Returns true iff the op was an insert that was dropped (heap full).
using DhtOp = std::function<bool(rma::RmaComm&, bool insert, i64 value)>;

DhtBenchResult run_dht_impl(rma::World& world, const DhtBenchConfig& config,
                            const DhtOp& op) {
  const i32 nprocs = world.nprocs();
  RMALOCK_CHECK_MSG(nprocs >= 2, "DHT benchmark needs P >= 2");
  std::vector<u64> drops(static_cast<usize>(nprocs), 0);  // measured phase
  const u64 insert_permille =
      static_cast<u64>(std::lround(config.fw * 1000.0));

  const PhaseResult phases = run_phases(
      world, config.ops_per_proc, /*duration_ns=*/0,
      [&](rma::RmaComm& comm, i32 /*i*/, bool measured) {
        if (comm.rank() == kVolumeOwner) return;  // hosts the volume only
        const bool insert = comm.rng().chance(insert_permille, 1000);
        // Values are per-op random; +1 keeps the kEmpty sentinel unused.
        const i64 value = static_cast<i64>(comm.rng().below(kKeyRange)) + 1;
        if (op(comm, insert, value) && measured) {
          ++drops[static_cast<usize>(comm.rank())];
        }
      });

  DhtBenchResult result;
  result.total_ops = static_cast<u64>(nprocs - 1) *
                     static_cast<u64>(config.ops_per_proc);
  result.elapsed_ns = phases.elapsed_ns;
  for (const u64 d : drops) result.dropped_inserts += d;
  return result;
}

}  // namespace

DhtBenchResult run_dht_atomics_bench(rma::World& world,
                                     const dht::DistributedHashTable& table,
                                     const DhtBenchConfig& config) {
  return run_dht_impl(
      world, config,
      [&table](rma::RmaComm& comm, bool insert, i64 value) {
        if (insert) {
          return table.insert_atomic(comm, kVolumeOwner, value) ==
                 dht::InsertStatus::kHeapFull;
        }
        (void)table.contains_atomic(comm, kVolumeOwner, value);
        return false;
      });
}

DhtBenchResult run_dht_lockspace_bench(rma::World& world,
                                       const dht::DistributedHashTable& table,
                                       lockspace::LockSpace& space,
                                       const DhtBenchConfig& config) {
  return run_dht_impl(
      world, config,
      [&table, &space](rma::RmaComm& comm, bool insert, i64 value) {
        const u64 key = static_cast<u64>(kVolumeOwner);  // lock per volume
        if (insert) {
          space.acquire(comm, key);
          const auto status = table.insert_locked(comm, kVolumeOwner, value);
          space.release(comm, key);
          return status == dht::InsertStatus::kHeapFull;
        }
        space.acquire_read(comm, key);
        (void)table.contains_locked(comm, kVolumeOwner, value);
        space.release_read(comm, key);
        return false;
      });
}

DhtBenchResult run_dht_locked_bench(rma::World& world,
                                    const dht::DistributedHashTable& table,
                                    locks::RwLock& lock,
                                    const DhtBenchConfig& config) {
  return run_dht_impl(
      world, config,
      [&table, &lock](rma::RmaComm& comm, bool insert, i64 value) {
        if (insert) {
          lock.acquire_write(comm);
          const auto status = table.insert_locked(comm, kVolumeOwner, value);
          lock.release_write(comm);
          return status == dht::InsertStatus::kHeapFull;
        }
        lock.acquire_read(comm);
        (void)table.contains_locked(comm, kVolumeOwner, value);
        lock.release_read(comm);
        return false;
      });
}

}  // namespace rmalock::harness
