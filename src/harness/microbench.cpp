#include "harness/microbench.hpp"

#include <cmath>

#include "harness/phases.hpp"

namespace rmalock::harness {

i32 writer_count(i32 nprocs, double fw) {
  if (fw <= 0.0) return 0;
  const i32 writers =
      static_cast<i32>(std::lround(fw * static_cast<double>(nprocs)));
  return std::max(1, std::min(nprocs, writers));
}

bool is_writer_rank(Rank rank, i32 nprocs, i32 writers) {
  // Rank r is a writer iff the cumulative quota floor increases at r; this
  // spreads writers evenly across the rank space and thus across nodes.
  const i64 before = static_cast<i64>(rank) * writers / nprocs;
  const i64 after = (static_cast<i64>(rank) + 1) * writers / nprocs;
  return after != before;
}

namespace {

struct PerProc {
  std::vector<double> reader_latencies_us;
  std::vector<double> writer_latencies_us;
};

/// Work inside the critical section, per workload.
void cs_work(rma::RmaComm& comm, Workload workload, bool writer,
             Rank data_rank, WinOffset data) {
  switch (workload) {
    case Workload::kEcsb:
    case Workload::kWarb:
      break;  // empty CS
    case Workload::kSob: {
      // One memory access to the protected data. The data is distributed
      // (graph processing: each node hosts its shard of the vertices);
      // the holder accesses the shard co-located with its node. Funneling
      // every CS through one global word would benchmark that word's NIC,
      // not the lock.
      const topo::Topology& topo = comm.topology();
      const Rank shard =
          topo.rep_rank(topo.num_levels(),
                        topo.element_of(comm.rank(), topo.num_levels()));
      if (writer) {
        comm.put(1, shard, data);
      } else {
        comm.get(shard, data);
      }
      comm.flush(shard);
      break;
    }
    case Workload::kWcsb:
      // Increment a shared counter, then local computation for 1-4 us.
      comm.accumulate(1, data_rank, data, rma::AccumOp::kSum);
      comm.flush(data_rank);
      comm.compute(comm.rng().range(1000, 4000));
      break;
  }
}

/// Work after releasing the lock, per workload.
void post_release_work(rma::RmaComm& comm, Workload workload) {
  if (workload == Workload::kWarb) {
    comm.compute(comm.rng().range(1000, 4000));
  }
}

}  // namespace

BenchResult run_lock_bench(rma::World& world, locks::ExclusiveLock& lock,
                           const MicrobenchConfig& config) {
  auto* const rw = dynamic_cast<locks::RwLock*>(&lock);
  const i32 nprocs = world.nprocs();
  const i32 static_writers =
      rw == nullptr ? nprocs : writer_count(nprocs, config.fw);
  const u64 write_permille =
      static_cast<u64>(std::lround(config.fw * 1000.0));
  const Rank data_rank = 0;
  const WinOffset data = world.allocate(1);

  std::vector<PerProc> per(static_cast<usize>(nprocs));
  PhaseResult phases = run_phases(
      world, config.ops_per_proc, config.duration_ns,
      [&](rma::RmaComm& comm, i32 /*i*/, bool measured) {
        bool writer = true;
        if (rw != nullptr) {
          writer = config.role_mode == RoleMode::kStaticRanks
                       ? is_writer_rank(comm.rank(), nprocs, static_writers)
                       : comm.rng().chance(write_permille, 1000);
        }
        const Nanos start = comm.now_ns();
        if (writer) {
          lock.acquire(comm);
        } else {
          rw->acquire_read(comm);
        }
        cs_work(comm, config.workload, writer, data_rank, data);
        if (writer) {
          lock.release(comm);
        } else {
          rw->release_read(comm);
        }
        const Nanos end = comm.now_ns();
        if (measured) {
          PerProc& me = per[static_cast<usize>(comm.rank())];
          auto& bucket =
              writer ? me.writer_latencies_us : me.reader_latencies_us;
          bucket.push_back(static_cast<double>(end - start) / 1e3);
        }
        post_release_work(comm, config.workload);
      });

  BenchResult result;
  std::vector<double> all;
  std::vector<double> readers;
  std::vector<double> writers;
  for (const PerProc& proc : per) {
    readers.insert(readers.end(), proc.reader_latencies_us.begin(),
                   proc.reader_latencies_us.end());
    writers.insert(writers.end(), proc.writer_latencies_us.begin(),
                   proc.writer_latencies_us.end());
  }
  all.reserve(readers.size() + writers.size());
  all.insert(all.end(), readers.begin(), readers.end());
  all.insert(all.end(), writers.begin(), writers.end());

  result.total_acquires = all.size();
  result.elapsed_ns = phases.elapsed_ns;
  result.throughput_mlocks_s = static_cast<double>(result.total_acquires) /
                               static_cast<double>(result.elapsed_ns) * 1e3;
  const bool per_op = rw != nullptr && config.role_mode == RoleMode::kPerOp;
  result.num_writers =
      per_op ? static_cast<i64>(writers.size()) : static_writers;
  result.latency_us = summarize(std::move(all));
  result.reader_latency_us = summarize(std::move(readers));
  result.writer_latency_us = summarize(std::move(writers));
  result.op_stats = std::move(phases.op_stats);
  return result;
}

}  // namespace rmalock::harness
