#include "workload/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "harness/phases.hpp"

namespace rmalock::workload {

namespace {

struct PerProc {
  // Streaming histograms instead of latency vectors: O(1) per request, and
  // rank-order merging below reproduces one deterministic result however
  // the surrounding campaign is parallelized.
  obs::LogHistogram read_latencies_us;
  obs::LogHistogram write_latencies_us;
  u64 optimistic_fallbacks = 0;
  u64 optimistic_retries = 0;
  /// Versioned-payload mode: the request's payload image.
  std::vector<i64> snapshot;
  /// Open loop: the current request's scheduled arrival.
  Nanos scheduled = 0;
};

/// Exponential inter-arrival with the given mean (inverse-CDF over the
/// process's deterministic stream).
[[nodiscard]] Nanos exponential_gap(Xoshiro256& rng, Nanos mean) {
  const double u = rng.uniform();
  return static_cast<Nanos>(-static_cast<double>(mean) *
                            std::log1p(-u));
}

}  // namespace

WorkloadResult run_workload(rma::World& world, lockspace::LockSpace& space,
                            const WorkloadConfig& config) {
  RMALOCK_CHECK(config.read_fraction >= 0.0 && config.read_fraction <= 1.0);
  const bool open_loop = config.arrival == Arrival::kOpen;
  if (open_loop) RMALOCK_CHECK(config.interarrival_ns >= 1);
  const bool versioned = config.versioned_payload;
  if (config.optimistic_reads) {
    RMALOCK_CHECK_MSG(versioned,
                      "optimistic_reads requires versioned_payload");
  }
  if (versioned) {
    RMALOCK_CHECK_MSG(space.optimistic_capable(),
                      "versioned_payload needs a space with payload_words > 0");
  }
  const usize payload_words =
      versioned ? static_cast<usize>(space.payload_words()) : 0;
  const i32 nprocs = world.nprocs();
  const KeyGenerator keygen(config.keys);
  const u64 read_permille = static_cast<u64>(
      std::lround(config.read_fraction * 1000.0));

  // Payload word: one per rank; the holder touches the word of the key's
  // shard home, so payload traffic follows lock placement.
  const WinOffset payload = world.allocate(1);

  std::vector<PerProc> per(static_cast<usize>(nprocs));
  for (PerProc& proc : per) proc.snapshot.assign(payload_words, 0);

  const harness::PhaseResult phases = harness::run_phases(
      world, config.ops_per_proc, /*duration_ns=*/0,
      [&](rma::RmaComm& comm, i32 i, bool measured) {
        PerProc& me = per[static_cast<usize>(comm.rank())];
        // A request's latency is measured from `latency_from`: its call time
        // in the closed loop (and in every warmup), its scheduled arrival in
        // the open loop. Open-loop arrivals are Poisson on a schedule that
        // starts with the measured phase and ignores completions; a late
        // process drains its backlog, so queueing delay is charged (no
        // coordinated omission).
        Nanos latency_from = comm.now_ns();
        if (open_loop && measured) {
          if (i == 0) me.scheduled = latency_from;
          me.scheduled += exponential_gap(comm.rng(), config.interarrival_ns);
          if (latency_from < me.scheduled) {
            comm.compute(me.scheduled - latency_from);
          }
          latency_from = me.scheduled;
        }
        const bool read = comm.rng().chance(read_permille, 1000);
        const u64 key = keygen.next(comm.rng());
        const lockspace::LockRef ref = space.resolve(key);
        i64* const snapshot = me.snapshot.data();
        if (versioned) {
          if (read && config.optimistic_reads) {
            const lockspace::LockSpace::OptimisticResult r =
                space.optimistic_read(comm, key, snapshot, payload_words);
            if (r.fell_back) ++me.optimistic_fallbacks;
            me.optimistic_retries += r.retries;
          } else if (read) {
            space.locked_read(comm, key, snapshot, payload_words);
          } else {
            std::fill_n(snapshot, payload_words, static_cast<i64>(key));
            space.acquire(comm, key);
            space.write_payload(comm, key, snapshot, payload_words);
            space.release(comm, key);
          }
        } else if (read) {
          space.acquire_read(comm, key);
          comm.get(ref.home, payload);
          comm.flush(ref.home);
          space.release_read(comm, key);
        } else {
          space.acquire(comm, key);
          comm.put(static_cast<i64>(key), ref.home, payload);
          comm.flush(ref.home);
          space.release(comm, key);
        }
        if (measured) {
          // Clamp at zero: in the open loop `latency_from` is the
          // *scheduled* arrival, and an over-driven process can reach here
          // with a wall clock (ThreadWorld) that ran ahead of or behind the
          // schedule by less than the clock's granularity — the difference
          // must never go negative (or, worse, wrap through a huge unsigned
          // value).
          const Nanos end = comm.now_ns();
          const Nanos delta = end > latency_from ? end - latency_from : 0;
          const double us = static_cast<double>(delta) / 1e3;
          (read ? me.read_latencies_us : me.write_latencies_us).record(us);
        }
      });

  WorkloadResult result;
  // Rank-order merge (then reads before writes for the combined histogram):
  // the fixed order makes buckets and floating-point moments bit-identical
  // across --jobs settings and worlds-with-the-same-virtual-times.
  for (const PerProc& proc : per) {
    result.read_latency_hist_us.merge(proc.read_latencies_us);
    result.write_latency_hist_us.merge(proc.write_latencies_us);
    result.optimistic_fallbacks += proc.optimistic_fallbacks;
    result.optimistic_retries += proc.optimistic_retries;
  }
  result.latency_hist_us.merge(result.read_latency_hist_us);
  result.latency_hist_us.merge(result.write_latency_hist_us);

  result.read_ops = result.read_latency_hist_us.count();
  result.write_ops = result.write_latency_hist_us.count();
  result.total_ops = result.latency_hist_us.count();
  result.elapsed_ns = phases.elapsed_ns;
  result.throughput_mops_s = static_cast<double>(result.total_ops) /
                             static_cast<double>(result.elapsed_ns) * 1e3;
  result.latency_us = harness::summarize(result.latency_hist_us);
  result.read_latency_us = harness::summarize(result.read_latency_hist_us);
  result.write_latency_us = harness::summarize(result.write_latency_hist_us);
  result.instantiated_slots = space.instantiated_slots();
  return result;
}

}  // namespace rmalock::workload
