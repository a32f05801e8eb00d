// Key-value store scenario (§1, §5.3): a distributed hashtable serving a
// Facebook-like workload — 99.8% reads (F_W = 0.2%), Zipfian key
// popularity — under four synchronization regimes:
//
//   * foMPI-A      lock-free atomics (no lock at all);
//   * foMPI-RW     ONE centralized RW lock guarding the whole table;
//   * RMA-RW       ONE topology-aware RW lock guarding the whole table;
//   * LockSpace    one named RMA-RW lock PER VOLUME out of a sharded
//                  lockspace::LockSpace (key = volume owner), so requests
//                  to different volumes never contend — the lock-service
//                  regime the LockSpace subsystem exists for.
//
// Every process issues lookups/inserts against all volumes (keys hash to
// owners via the DHT's own placement), with the workload engine's Zipfian
// generator supplying realistic key popularity.
#include <cstdio>

#include "dht/dht.hpp"
#include "lockspace/lockspace.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/rma_rw.hpp"
#include "rma/sim_world.hpp"
#include "workload/keygen.hpp"

using namespace rmalock;

namespace {

constexpr i32 kOpsPerProc = 60;
constexpr double kWriteFraction = 0.002;  // 0.2% — TAO-like read dominance

enum class Regime { kAtomics, kGlobalFompiRw, kGlobalRmaRw, kLockSpace };

double run_store(const char* name, Regime regime) {
  rma::SimOptions options;
  options.topology = topo::Topology::parse("4x16");
  options.seed = 7;
  auto world = rma::SimWorld::create(options);

  dht::DhtConfig volume;
  volume.table_buckets = 256;
  volume.heap_entries = 1024;
  dht::DistributedHashTable store(*world, volume);

  std::unique_ptr<locks::RwLock> global_lock;
  std::unique_ptr<lockspace::LockSpace> space;
  switch (regime) {
    case Regime::kAtomics:
      break;
    case Regime::kGlobalFompiRw:
      global_lock = std::make_unique<locks::FompiRw>(*world);
      break;
    case Regime::kGlobalRmaRw:
      global_lock = std::make_unique<locks::RmaRw>(*world);
      break;
    case Regime::kLockSpace: {
      lockspace::LockSpaceConfig config;
      config.backend = locks::Backend::kRmaRw;  // one shard per node
      space = std::make_unique<lockspace::LockSpace>(*world, config);
      break;
    }
  }

  // Zipfian key popularity over a 16k-key space: the hot keys concentrate
  // on a few volumes, which is exactly where per-volume locks pay off.
  workload::KeyGenConfig keygen_config;
  keygen_config.num_keys = 1 << 14;
  keygen_config.dist = workload::KeyDist::kZipfian;
  keygen_config.zipf_s = 0.99;
  const workload::KeyGenerator keygen(keygen_config);

  std::vector<Nanos> finish(static_cast<usize>(world->nprocs()));
  std::vector<u64> dropped(static_cast<usize>(world->nprocs()), 0);
  world->run([&](rma::RmaComm& comm) {
    u64& drops = dropped[static_cast<usize>(comm.rank())];
    const auto count_drop = [&drops](dht::InsertStatus status) {
      if (status == dht::InsertStatus::kHeapFull) ++drops;
    };
    comm.barrier();
    for (i32 i = 0; i < kOpsPerProc; ++i) {
      const i64 key = static_cast<i64>(keygen.next(comm.rng())) + 1;
      const Rank owner = store.owner_of(key);
      const bool is_write = comm.rng().uniform() < kWriteFraction;
      switch (regime) {
        case Regime::kAtomics:
          if (is_write) {
            count_drop(store.insert_atomic(comm, owner, key));
          } else {
            (void)store.contains_atomic(comm, owner, key);
          }
          break;
        case Regime::kGlobalFompiRw:
        case Regime::kGlobalRmaRw:
          if (is_write) {
            global_lock->acquire_write(comm);
            count_drop(store.insert_locked(comm, owner, key));
            global_lock->release_write(comm);
          } else {
            global_lock->acquire_read(comm);
            (void)store.contains_locked(comm, owner, key);
            global_lock->release_read(comm);
          }
          break;
        case Regime::kLockSpace: {
          const u64 lock_key = static_cast<u64>(owner);
          if (is_write) {
            space->acquire(comm, lock_key);
            count_drop(store.insert_locked(comm, owner, key));
            space->release(comm, lock_key);
          } else {
            space->acquire_read(comm, lock_key);
            (void)store.contains_locked(comm, owner, key);
            space->release_read(comm, lock_key);
          }
          break;
        }
      }
    }
    comm.barrier();
    finish[static_cast<usize>(comm.rank())] = comm.now_ns();
  });

  const double ms = static_cast<double>(finish[0]) / 1e6;
  const double mops =
      static_cast<double>(world->nprocs()) * kOpsPerProc /
      static_cast<double>(finish[0]) * 1e3;
  std::printf("%-38s %10.3f ms   %8.2f mln ops/s", name, ms, mops);
  if (space != nullptr) {
    std::printf("   (%llu named locks used)",
                static_cast<unsigned long long>(space->instantiated_slots()));
  }
  u64 drops = 0;
  for (const u64 d : dropped) drops += d;
  if (drops > 0) {
    std::printf("   (%llu inserts dropped, overflow heaps full)",
                static_cast<unsigned long long>(drops));
  }
  std::printf("\n");
  return ms;
}

}  // namespace

int main() {
  std::printf("KV store, 64 processes x %d ops, %.1f%% writes, "
              "Zipfian(0.99) keys\n\n",
              kOpsPerProc, kWriteFraction * 100);
  std::printf("%-38s %13s   %15s\n", "synchronization", "total time",
              "throughput");
  run_store("foMPI-A (lock-free atomics)", Regime::kAtomics);
  const double fompi =
      run_store("foMPI-RW (one centralized RW lock)", Regime::kGlobalFompiRw);
  const double rma =
      run_store("RMA-RW (one topology-aware lock)", Regime::kGlobalRmaRw);
  const double space =
      run_store("LockSpace (RMA-RW per volume)", Regime::kLockSpace);
  std::printf("\nRMA-RW vs foMPI-RW: %.2fx faster on this workload\n",
              fompi / rma);
  std::printf("per-volume LockSpace vs one RMA-RW lock: %.2fx faster\n",
              rma / space);
  return 0;
}
