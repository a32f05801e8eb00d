// rmabench — the repository benchmark.
//
// Runs one of four named workloads on SimWorld from a single OS thread and
// prints every metric by name and unit, then one JSON result line:
//
//   rmabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--span-dir <dir>]
//   rmabench --selftest
//   rmabench --list
//
// A run repeats one fixed amount of work (an "iteration": build the world
// and locks, warm up, run the measured phase) until --seconds are used up,
// and reports the median set-up time. Virtual-time results
// are identical in every iteration by construction; rmabench checks that
// (a mismatch is an engine bug, not noise) and fails the run otherwise.
// With --trace 1 the iterations alternate untraced and traced; the traced
// ones record the benchmark's own spans (spans.hpp) and must reproduce the
// untraced virtual-time results bit for bit.
//
// The benchmark calls only public functions of the rma, locks, lockspace,
// workload and mc modules and times those calls from outside. See
// README.md for why each workload exists and how to read the output.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lockspace/lockspace.hpp"
#include "locks/rma_rw.hpp"
#include "mc/checker.hpp"
#include "mc/explorer.hpp"
#include "metrics.hpp"
#include "rma/sim_world.hpp"
#include "spans.hpp"
#include "workload/keygen.hpp"

namespace perfbench {
namespace {

using rmalock::i32;
using rmalock::i64;
using rmalock::Nanos;
using rmalock::Rank;
using rmalock::u32;
using rmalock::u64;
using rmalock::usize;
using rmalock::WinOffset;
namespace rma = rmalock::rma;
namespace locks = rmalock::locks;
namespace lockspace = rmalock::lockspace;
namespace mc = rmalock::mc;
namespace topo = rmalock::topo;
namespace workload = rmalock::workload;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr const char* kWorkloads[] = {"kv_zipf_read", "rw_hot_lock",
                                      "gray_deadline", "mc_exhaustive"};

// "vus" is a modeled (virtual-time) microsecond and "Mops/vs" a million
// requests per modeled second: both come from RmaComm::now_ns() under the
// xc30 cost model and reproduce exactly. Wall-clock units are s, ms, us, ns.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_mops", "Mops/vs"}, {"latency_p50_us", "vus"},
    {"latency_p99_us", "vus"},      {"read_p99_us", "vus"},
    {"write_p99_us", "vus"},        {"ok_frac", "ratio"},
    {"setup_s", "s"},               {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"rma.steps", "count"},
    {"rma.wall_ns_per_step", "ns"},
    {"rma.world_create_ms", "ms"},
    {"rma.ops", "count"},
    {"rma.atomic_ops", "count"},
    {"rma.remote_op_frac", "ratio"},
    {"rma.ops_per_request", "ops"},
    {"rma.payload_vus_p50", "vus"},
    {"rma.fault_events", "count"},
    {"locks.acquire_read_vus_p50", "vus"},
    {"locks.acquire_read_vus_p99", "vus"},
    {"locks.acquire_write_vus_p50", "vus"},
    {"locks.acquire_write_vus_p99", "vus"},
    {"locks.release_write_vus_p50", "vus"},
    {"locks.ops_per_write_acquire", "ops"},
    {"locks.remote_ops_per_write_acquire", "ops"},
    {"locks.ops_per_read_acquire", "ops"},
    {"locks.attempts_per_timed_acquire", "attempts"},
    {"locks.build_ms", "ms"},
    {"lockspace.acquire_vus_p50", "vus"},
    {"lockspace.acquire_vus_p99", "vus"},
    {"lockspace.shard_imbalance", "ratio"},
    {"lockspace.instantiated_slots", "count"},
    {"lockspace.build_ms", "ms"},
    {"lockspace.resolve_ns", "ns"},
    {"lockspace.timeout_frac", "ratio"},
    {"lockspace.degraded_frac", "ratio"},
    {"lockspace.quarantines", "count"},
    {"workload.requests", "count"},
    {"workload.keygen_ns", "ns"},
    {"workload.hot_key_share", "ratio"},
    {"workload.write_share", "ratio"},
    {"mc.schedules", "count"},
    {"mc.cs_entries", "count"},
    {"mc.wall_us_per_schedule", "us"},
    {"mc.lock_build_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

// ---------------------------------------------------------------------------
// Correctness gate: host-side occupancy per lock slot
// ---------------------------------------------------------------------------

/// Reader/writer occupancy of every lock slot, kept on the host. SimWorld
/// runs one fiber at a time and nothing yields between an acquire's return
/// and enter_*, or between exit_* and the release call, so the counts are
/// exact: any overlap the lock admits is seen here.
class OccupancyMonitor {
 public:
  explicit OccupancyMonitor(usize slots) : readers_(slots, 0), writers_(slots, 0) {}

  /// Each enter returns false (and counts a violation) on an overlap.
  bool enter_read(usize slot) {
    const bool ok = writers_[slot] == 0;
    ++readers_[slot];
    if (!ok) ++violations_;
    return ok;
  }
  void exit_read(usize slot) { --readers_[slot]; }
  bool enter_write(usize slot) {
    const bool ok = writers_[slot] == 0 && readers_[slot] == 0;
    ++writers_[slot];
    if (!ok) ++violations_;
    return ok;
  }
  void exit_write(usize slot) { --writers_[slot]; }

  [[nodiscard]] u64 violations() const { return violations_; }

 private:
  std::vector<i32> readers_;
  std::vector<i32> writers_;
  u64 violations_ = 0;
};

// ---------------------------------------------------------------------------
// One iteration's outcome
// ---------------------------------------------------------------------------

struct IterResult {
  double setup_s = 0;
  double wall_s = 0;
  /// The measured phase's wall time split into chunks of identical work in
  /// every iteration (see ChunkMarks).
  std::vector<double> chunk_s;
  /// Requests (schedules on mc) attempted, granted-and-correct, and failed
  /// by a correctness check.
  u64 attempted = 0;
  u64 ok = 0;
  u64 failed = 0;
  std::map<std::string, u64> failures;  // message -> count
  /// Virtual-time results (granted requests only), in modeled ns.
  std::vector<double> lat_vus, read_vus, write_vus;
  Nanos makespan_ns = 0;
  u64 granted = 0;
  u64 fingerprint = 0;
  /// Per-layer values the workload measured directly (the span-derived
  /// ones are added from the traced iteration's log).
  std::map<std::string, double> layer;
  /// Keys of the measured requests, for lockspace.resolve_ns.
  std::vector<u64> keys;

  void fail(const std::string& why) {
    ++failed;
    ++failures[why];
  }
};

/// Wall-clock marks taken at points of the measured phase that every
/// iteration reaches after exactly the same work (the engine is
/// deterministic), so its wall time splits into chunks of identical work and
/// each chunk's fastest time can be taken across iterations (fastest_wall).
/// A shared machine's load shifts within one measured phase; per-chunk
/// minima are far steadier than whole-phase ones.
class ChunkMarks {
 public:
  static constexpr i32 kChunks = 32;

  void start() {
    marks_.clear();
    marks_.push_back(Clock::now());
  }
  void mark() { marks_.push_back(Clock::now()); }
  /// Chunk durations from start() through every mark to `end`.
  [[nodiscard]] std::vector<double> chunks(Clock::time_point end) const {
    std::vector<double> out;
    for (usize i = 0; i < marks_.size(); ++i) {
      const auto to = i + 1 < marks_.size() ? marks_[i + 1] : end;
      out.push_back(std::chrono::duration<double>(to - marks_[i]).count());
    }
    return out;
  }

 private:
  std::vector<Clock::time_point> marks_;
};

/// True when rank 0 has just completed a 1/kChunks share of its requests:
/// the deterministic points ChunkMarks are taken at.
bool chunk_boundary(Rank rank, i32 done, i32 requests) {
  const i32 every = std::max(1, requests / ChunkMarks::kChunks);
  return rank == 0 && done % every == 0 && done < requests;
}

/// One measured request as recorded by its rank.
struct Req {
  Nanos lat_ns = 0;
  u64 key = 0;
  bool write = false;
  bool granted = false;
  bool failed = false;
};

constexpr i32 kProcsPerNode = 16;

rma::SimOptions sim_options(i32 nprocs, u64 seed) {
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({nprocs / kProcsPerNode},
                                          kProcsPerNode);
  opts.seed = seed;
  // Report a deadlock instead of aborting, so it counts as a failure.
  opts.abort_on_deadlock = false;
  return opts;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Share of requests that hit the most-requested 1% of a key space of
/// `key_space` keys (at least one key).
double hot_key_share(const std::vector<u64>& keys, u64 key_space) {
  if (keys.empty()) return 0.0;
  std::unordered_map<u64, u64> counts;
  for (const u64 k : keys) ++counts[k];
  std::vector<u64> sorted;
  sorted.reserve(counts.size());
  for (const auto& [key, n] : counts) sorted.push_back(n);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const u64 top = std::max<u64>(1, (key_space + 99) / 100);
  u64 hits = 0;
  for (usize i = 0; i < sorted.size() && i < top; ++i) hits += sorted[i];
  return static_cast<double>(hits) / static_cast<double>(keys.size());
}

/// Folds the per-rank request records of a measured run into `r`, in rank
/// order (so the fingerprint is a function of the run alone).
void fold_requests(IterResult& r, const std::vector<std::vector<Req>>& reqs,
                   const std::vector<Nanos>& end_ns, const rma::RunResult& run,
                   const rma::OpStats& stats, u64 key_space) {
  Fingerprint fp;
  u64 writes = 0;
  for (const auto& per_rank : reqs) {
    for (const Req& q : per_rank) {
      ++r.attempted;
      if (q.failed) {
        r.fail("request failed its correctness check");
      } else if (q.granted) {
        ++r.ok;
      }
      if (q.write) ++writes;
      r.keys.push_back(q.key);
      fp.add(q.key);
      fp.add((q.write ? 1u : 0u) | (q.granted ? 2u : 0u));
      if (!q.granted) continue;
      ++r.granted;
      fp.add_signed(q.lat_ns);
      const double vus = static_cast<double>(q.lat_ns) / 1e3;
      r.lat_vus.push_back(vus);
      (q.write ? r.write_vus : r.read_vus).push_back(vus);
    }
  }
  for (const Nanos e : end_ns) r.makespan_ns = std::max(r.makespan_ns, e);
  if (!run.ok()) {
    r.fail(run.deadlocked ? "World::run deadlocked" : "World::run hit its step limit");
  }
  const OpCounts ops = op_counts(stats);
  for (const u64 w : {r.attempted, r.granted, static_cast<u64>(r.makespan_ns),
                      run.steps, run.delays, run.partitions, ops.ops,
                      ops.atomics, ops.remote}) {
    fp.add(w);
  }
  r.fingerprint = fp.value();
  auto& L = r.layer;
  L["rma.steps"] = static_cast<double>(run.steps);
  L["rma.ops"] = static_cast<double>(ops.ops);
  L["rma.atomic_ops"] = static_cast<double>(ops.atomics);
  L["rma.remote_op_frac"] =
      ops.ops > 0 ? static_cast<double>(ops.remote) / static_cast<double>(ops.ops) : 0.0;
  L["rma.ops_per_request"] =
      r.attempted > 0 ? static_cast<double>(ops.ops) / static_cast<double>(r.attempted)
                      : 0.0;
  L["rma.fault_events"] = static_cast<double>(run.delays + run.partitions);
  L["workload.requests"] = static_cast<double>(r.attempted);
  L["workload.write_share"] =
      r.attempted > 0 ? static_cast<double>(writes) / static_cast<double>(r.attempted)
                      : 0.0;
  L["workload.hot_key_share"] = hot_key_share(r.keys, key_space);
}

/// Wall ns per call of `fn` over `calls` calls, median of five passes.
template <typename Fn>
double ns_per_call(u64 calls, Fn&& fn) {
  std::vector<double> passes;
  volatile u64 sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    u64 acc = 0;
    for (u64 i = 0; i < calls; ++i) acc += fn(i);
    passes.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls));
    sink = sink + acc;
  }
  return median(passes);
}

/// Wall ns per KeyGenerator::next draw (a fresh stream; the measured run's
/// streams are not touched).
double keygen_ns(const workload::KeyGenerator& keygen, u64 seed) {
  rmalock::Xoshiro256 rng(seed);
  return ns_per_call(1u << 20, [&](u64) { return keygen.next(rng); });
}

/// Wall ns per LockSpace::resolve over the measured keys.
double resolve_ns(const lockspace::LockSpace& space, const std::vector<u64>& keys) {
  if (keys.empty()) return 0.0;
  return ns_per_call(std::max<u64>(keys.size(), 1u << 18), [&](u64 i) {
    return space.resolve(keys[i % keys.size()]).global_slot;
  });
}

// ---------------------------------------------------------------------------
// Lock-service workloads (kv_zipf_read, gray_deadline) and the hot lock
// ---------------------------------------------------------------------------

constexpr u64 kKeySpace = u64{1} << 17;
constexpr u64 kWritePermille = 50;  // 5% writes on every lock workload

/// Per-slot payload words (one per LockSpace slot, on the slot's shard home)
/// plus the host's record of the last committed value: a reader holding the
/// slot must read exactly what the last writer committed.
struct Payload {
  WinOffset base = 0;
  std::vector<i64> committed;
  i64 next_value = 0;

  Payload(rma::World& world, usize slots)
      : base(world.allocate(slots)), committed(slots, 0) {}

  /// The critical-section access of one request; false if a read returned
  /// something other than the last committed value.
  bool access(rma::RmaComm& comm, SpanLog* log, u64 request, bool write,
              Rank home, u32 slot) {
    const WinOffset offset = base + static_cast<WinOffset>(slot);
    if (write) {
      ScopedSpan span(log, comm, SpanKind::kPayloadPut, request);
      const i64 value = ++next_value;
      comm.put(value, home, offset);
      comm.flush(home);
      committed[slot] = value;
      return true;
    }
    ScopedSpan span(log, comm, SpanKind::kPayloadGet, request);
    const i64 value = comm.get(home, offset);
    comm.flush(home);
    return value == committed[slot];
  }
};

/// Drops the warmup's request records and makes room for `requests` per
/// rank, so recording never reallocates inside the measured phase.
void reset_records(std::vector<std::vector<Req>>& reqs, i32 requests) {
  for (auto& v : reqs) {
    v.clear();
    v.reserve(static_cast<usize>(requests));
  }
}

/// Shard-acquire totals (reads + writes) of every shard.
std::vector<u64> shard_acquires(const lockspace::LockSpace& space) {
  std::vector<u64> v(static_cast<usize>(space.shards()));
  for (i32 s = 0; s < space.shards(); ++s) {
    v[static_cast<usize>(s)] =
        space.shard_read_acquires(s) + space.shard_write_acquires(s);
  }
  return v;
}

double imbalance(const std::vector<u64>& before, const std::vector<u64>& after) {
  u64 max = 0;
  u64 sum = 0;
  for (usize i = 0; i < after.size(); ++i) {
    const u64 d = after[i] - before[i];
    max = std::max(max, d);
    sum += d;
  }
  if (sum == 0) return 0.0;
  return static_cast<double>(max) * static_cast<double>(after.size()) /
         static_cast<double>(sum);
}

// --- kv_zipf_read ----------------------------------------------------------

constexpr i32 kKvProcs = 256;
constexpr i32 kKvWarmup = 64;     // requests per rank
constexpr i32 kKvRequests = 768;  // measured requests per rank

IterResult run_kv(u64 seed, SpanLog* log) {
  IterResult r;
  const auto setup0 = Clock::now();
  int root = log ? log->begin_root(SpanKind::kWorldCreate) : -1;
  auto t0 = Clock::now();
  auto world = rma::SimWorld::create(sim_options(kKvProcs, seed));
  r.layer["rma.world_create_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  root = log ? log->begin_root(SpanKind::kSpaceBuild) : -1;
  t0 = Clock::now();
  lockspace::LockSpaceConfig config;  // one shard per node, 16 slots
  config.backend = locks::Backend::kRmaRw;
  lockspace::LockSpace space(*world, config);
  r.layer["lockspace.build_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  Payload payload(*world, space.total_slots());
  workload::KeyGenConfig keys;
  keys.num_keys = kKeySpace;
  keys.dist = workload::KeyDist::kZipfian;
  keys.zipf_s = 0.99;
  const workload::KeyGenerator keygen(keys);
  OccupancyMonitor monitor(space.total_slots());

  std::vector<std::vector<Req>> reqs(kKvProcs);
  std::vector<Nanos> end_ns(kKvProcs, 0);
  ChunkMarks marks;
  const auto body = [&](i32 requests, SpanLog* slog) {
    return [&, requests, slog](rma::RmaComm& comm) {
      const Rank me = comm.rank();
      for (i32 i = 0; i < requests; ++i) {
        const u64 id = static_cast<u64>(me) * static_cast<u64>(requests) +
                       static_cast<u64>(i);
        ScopedSpan request(slog, comm, SpanKind::kRequest, id);
        Req q;
        {
          ScopedSpan span(slog, comm, SpanKind::kKeygen, id);
          q.key = keygen.next(comm.rng());
        }
        q.write = comm.rng().chance(kWritePermille, 1000);
        const lockspace::LockRef ref = space.resolve(q.key);
        const Nanos start = comm.now_ns();
        if (q.write) {
          {
            ScopedSpan span(slog, comm, SpanKind::kSpaceAcquire, id);
            space.acquire(comm, q.key);
          }
          q.failed = !monitor.enter_write(ref.global_slot);
          q.failed |= !payload.access(comm, slog, id, true, ref.home, ref.global_slot);
          monitor.exit_write(ref.global_slot);
          ScopedSpan span(slog, comm, SpanKind::kSpaceRelease, id);
          space.release(comm, q.key);
        } else {
          {
            ScopedSpan span(slog, comm, SpanKind::kSpaceAcquireRead, id);
            space.acquire_read(comm, q.key);
          }
          q.failed = !monitor.enter_read(ref.global_slot);
          q.failed |= !payload.access(comm, slog, id, false, ref.home, ref.global_slot);
          monitor.exit_read(ref.global_slot);
          ScopedSpan span(slog, comm, SpanKind::kSpaceReleaseRead, id);
          space.release_read(comm, q.key);
        }
        q.lat_ns = comm.now_ns() - start;
        q.granted = true;
        reqs[static_cast<usize>(me)].push_back(q);
        if (chunk_boundary(me, i + 1, requests)) marks.mark();
      }
      end_ns[static_cast<usize>(me)] = comm.now_ns();
    };
  };

  // Warmup: lazy slot instantiation and first-touch paths happen here.
  const rma::RunResult warm = world->run(body(kKvWarmup, nullptr));
  if (!warm.ok()) r.fail("warmup World::run did not complete");
  r.setup_s = seconds_since(setup0);

  world->reset_stats();
  const std::vector<u64> shards0 = shard_acquires(space);
  reset_records(reqs, kKvRequests);
  root = log ? log->begin_root(SpanKind::kWorldRun) : -1;
  t0 = Clock::now();
  marks.start();
  const rma::RunResult run = world->run(body(kKvRequests, log));
  r.chunk_s = marks.chunks(Clock::now());
  r.wall_s = seconds_since(t0);
  if (log) log->end_root(root, run.makespan_ns);

  fold_requests(r, reqs, end_ns, run, world->aggregate_stats(), kKeySpace);
  r.layer["lockspace.shard_imbalance"] = imbalance(shards0, shard_acquires(space));
  r.layer["lockspace.instantiated_slots"] = static_cast<double>(space.instantiated_slots());
  if (monitor.violations() > 0) r.fail("occupancy monitor saw overlapping holds");
  if (log) {
    r.layer["workload.keygen_ns"] = keygen_ns(keygen, seed);
    r.layer["lockspace.resolve_ns"] = resolve_ns(space, r.keys);
  }
  return r;
}

// --- rw_hot_lock -------------------------------------------------------------

constexpr i32 kHotProcs = 1024;
constexpr i32 kHotWarmup = 8;
constexpr i32 kHotRequests = 256;

/// fig5a's RMA-RW parameters: one counter per node, T_L,q = 16, T_R = 1000.
locks::RmaRwParams hot_params() {
  locks::RmaRwParams p;
  p.tdc = kProcsPerNode;
  p.locality = {16, 16};
  p.tr = 1000;
  return p;
}

/// Closed loop of `requests` reader/writer requests per rank on one RwLock,
/// with a `cs_ns` critical section. compute(cs_ns) is a scheduling point
/// even at 0 ns, which is what lets other ranks run while a holder is in
/// its (virtually empty) critical section, so an overlap is observable.
std::function<void(rma::RmaComm&)> rw_loop(locks::RwLock& lock,
                                           OccupancyMonitor& monitor,
                                           i32 requests, Nanos cs_ns,
                                           SpanLog* log,
                                           std::vector<std::vector<Req>>& reqs,
                                           std::vector<Nanos>& end_ns,
                                           ChunkMarks& marks) {
  return [&lock, &monitor, requests, cs_ns, log, &reqs, &end_ns,
          &marks](rma::RmaComm& comm) {
    const Rank me = comm.rank();
    for (i32 i = 0; i < requests; ++i) {
      const u64 id = static_cast<u64>(me) * static_cast<u64>(requests) +
                     static_cast<u64>(i);
      ScopedSpan request(log, comm, SpanKind::kRequest, id);
      Req q;
      q.write = comm.rng().chance(kWritePermille, 1000);
      const Nanos start = comm.now_ns();
      if (q.write) {
        {
          ScopedSpan span(log, comm, SpanKind::kLockAcquireWrite, id);
          lock.acquire_write(comm);
        }
        q.failed = !monitor.enter_write(0);
        comm.compute(cs_ns);
        monitor.exit_write(0);
        ScopedSpan span(log, comm, SpanKind::kLockReleaseWrite, id);
        lock.release_write(comm);
      } else {
        {
          ScopedSpan span(log, comm, SpanKind::kLockAcquireRead, id);
          lock.acquire_read(comm);
        }
        q.failed = !monitor.enter_read(0);
        comm.compute(cs_ns);
        monitor.exit_read(0);
        ScopedSpan span(log, comm, SpanKind::kLockReleaseRead, id);
        lock.release_read(comm);
      }
      q.lat_ns = comm.now_ns() - start;
      q.granted = true;
      reqs[static_cast<usize>(me)].push_back(q);
      if (chunk_boundary(me, i + 1, requests)) marks.mark();
    }
    end_ns[static_cast<usize>(me)] = comm.now_ns();
  };
}

IterResult run_hot(u64 seed, SpanLog* log) {
  IterResult r;
  const auto setup0 = Clock::now();
  int root = log ? log->begin_root(SpanKind::kWorldCreate) : -1;
  auto t0 = Clock::now();
  auto world = rma::SimWorld::create(sim_options(kHotProcs, seed));
  r.layer["rma.world_create_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  root = log ? log->begin_root(SpanKind::kLockBuild) : -1;
  t0 = Clock::now();
  locks::RmaRw lock(*world, hot_params());
  r.layer["locks.build_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  OccupancyMonitor monitor(1);
  std::vector<std::vector<Req>> reqs(kHotProcs);
  std::vector<Nanos> end_ns(kHotProcs, 0);
  ChunkMarks marks;
  const rma::RunResult warm =
      world->run(rw_loop(lock, monitor, kHotWarmup, 0, nullptr, reqs, end_ns, marks));
  if (!warm.ok()) r.fail("warmup World::run did not complete");
  r.setup_s = seconds_since(setup0);

  world->reset_stats();
  reset_records(reqs, kHotRequests);
  root = log ? log->begin_root(SpanKind::kWorldRun) : -1;
  t0 = Clock::now();
  marks.start();
  const rma::RunResult run =
      world->run(rw_loop(lock, monitor, kHotRequests, 0, log, reqs, end_ns, marks));
  r.chunk_s = marks.chunks(Clock::now());
  r.wall_s = seconds_since(t0);
  if (log) log->end_root(root, run.makespan_ns);

  fold_requests(r, reqs, end_ns, run, world->aggregate_stats(), /*key_space=*/1);
  if (monitor.violations() > 0) r.fail("occupancy monitor saw overlapping holds");
  return r;
}

// --- gray_deadline -------------------------------------------------------------

constexpr i32 kGrayProcs = 256;
constexpr i32 kGrayWarmup = 128;
constexpr i32 kGrayRequests = 1536;
constexpr Nanos kDeadlineNs = 50'000;  // fig9's per-acquire deadline
constexpr i32 kReadmitAfter = 4;       // fail-fast rejections of a shard
                                       // before it is re-admitted
// Faults: each remote op draws a straggler or a partition with this
// chance; the budgets are far beyond what a measured phase consumes, so
// faults keep arriving until it ends (checked per run).
constexpr rmalock::u32 kFaultPermille = 10;
constexpr i32 kFaultBudget = 1 << 30;
constexpr Nanos kPartitionSpan = 150'000;

IterResult run_gray(u64 seed, SpanLog* log) {
  IterResult r;
  const auto setup0 = Clock::now();
  rma::SimOptions opts = sim_options(kGrayProcs, seed);
  opts.delay_chance_permille = kFaultPermille;
  opts.max_delays = kFaultBudget;
  opts.delay_factor = 32;
  opts.max_partitions = kFaultBudget;
  opts.partition_span = kPartitionSpan;
  int root = log ? log->begin_root(SpanKind::kWorldCreate) : -1;
  auto t0 = Clock::now();
  auto world = rma::SimWorld::create(opts);
  r.layer["rma.world_create_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  root = log ? log->begin_root(SpanKind::kSpaceBuild) : -1;
  t0 = Clock::now();
  lockspace::LockSpaceConfig config;  // one shard per node, 16 slots
  config.backend = locks::Backend::kLeaseMcs;
  config.quarantine_after = 2;
  lockspace::LockSpace space(*world, config);
  r.layer["lockspace.build_ms"] = ms_since(t0);
  if (log) log->end_root(root, 0);

  Payload payload(*world, space.total_slots());
  workload::KeyGenConfig keys;
  keys.num_keys = kKeySpace;
  keys.dist = workload::KeyDist::kUniform;
  const workload::KeyGenerator keygen(keys);
  OccupancyMonitor monitor(space.total_slots());
  const locks::RetryPolicy retry;

  // Host-side tallies of the timed path (exact: one fiber runs at a time).
  struct Tally {
    u64 timeouts = 0, degraded = 0, tried = 0, attempts = 0, quarantines = 0;
  };
  Tally tally;
  // Per shard: fail-fast rejections since its last re-admission, and
  // whether its current quarantine has been counted.
  std::vector<i32> rejections(static_cast<usize>(space.shards()), 0);
  std::vector<bool> latched(static_cast<usize>(space.shards()), false);

  std::vector<std::vector<Req>> reqs(kGrayProcs);
  std::vector<Nanos> end_ns(kGrayProcs, 0);
  ChunkMarks marks;
  const auto body = [&](i32 requests, SpanLog* slog) {
    return [&, requests, slog](rma::RmaComm& comm) {
      const Rank me = comm.rank();
      for (i32 i = 0; i < requests; ++i) {
        const u64 id = static_cast<u64>(me) * static_cast<u64>(requests) +
                       static_cast<u64>(i);
        ScopedSpan request(slog, comm, SpanKind::kRequest, id);
        {
          // fig9's think time: jittered and scaled with P, which keeps lock
          // queueing far below the deadline, so a timeout means the network
          // is gray. Thinking first also staggers the ranks' first requests.
          ScopedSpan span(slog, comm, SpanKind::kThink, id);
          comm.compute(1'000 + static_cast<Nanos>(comm.rng().below(
                                   static_cast<u64>(kGrayProcs) * 30'000)));
        }
        Req q;
        {
          ScopedSpan span(slog, comm, SpanKind::kKeygen, id);
          q.key = keygen.next(comm.rng());
        }
        q.write = comm.rng().chance(kWritePermille, 1000);
        const lockspace::LockRef ref = space.resolve(q.key);
        const Nanos start = comm.now_ns();
        locks::AcquireResult ar;
        {
          ScopedSpan span(slog, comm, SpanKind::kSpaceTryAcquire, id);
          ar = space.try_acquire_for(comm, q.key, start + kDeadlineNs, retry);
        }
        const auto shard = static_cast<usize>(ref.shard);
        if (ar.status == locks::AcquireStatus::kDegraded) {
          ++tally.degraded;
          if (++rejections[shard] >= kReadmitAfter) {
            // Health-prober cadence (fig9): back off one deadline, then
            // re-admit the shard for a probe.
            rejections[shard] = 0;
            comm.compute(kDeadlineNs);
            space.reset_shard_health(ref.shard);
            latched[shard] = false;
          }
        } else {
          ++tally.tried;
          tally.attempts += ar.attempts;
        }
        if (ar.status == locks::AcquireStatus::kTimeout) {
          ++tally.timeouts;
          if (space.shard_quarantined(ref.shard) && !latched[shard]) {
            latched[shard] = true;
            ++tally.quarantines;
          }
        }
        if (ar.ok()) {
          q.failed = !monitor.enter_write(ref.global_slot);
          q.failed |= !payload.access(comm, slog, id, q.write, ref.home, ref.global_slot);
          monitor.exit_write(ref.global_slot);
          ScopedSpan span(slog, comm, SpanKind::kSpaceRelease, id);
          space.release(comm, q.key);
          q.lat_ns = comm.now_ns() - start;
          q.granted = true;
        }
        reqs[static_cast<usize>(me)].push_back(q);
        if (chunk_boundary(me, i + 1, requests)) marks.mark();
      }
      end_ns[static_cast<usize>(me)] = comm.now_ns();
    };
  };

  const rma::RunResult warm = world->run(body(kGrayWarmup, nullptr));
  if (!warm.ok()) r.fail("warmup World::run did not complete");
  r.setup_s = seconds_since(setup0);

  world->reset_stats();
  const std::vector<u64> shards0 = shard_acquires(space);
  reset_records(reqs, kGrayRequests);
  tally = Tally{};
  root = log ? log->begin_root(SpanKind::kWorldRun) : -1;
  t0 = Clock::now();
  marks.start();
  const rma::RunResult run = world->run(body(kGrayRequests, log));
  r.chunk_s = marks.chunks(Clock::now());
  r.wall_s = seconds_since(t0);
  if (log) log->end_root(root, run.makespan_ns);

  fold_requests(r, reqs, end_ns, run, world->aggregate_stats(), kKeySpace);
  if (monitor.violations() > 0) r.fail("occupancy monitor saw overlapping holds");
  if (run.delays >= static_cast<u64>(kFaultBudget) ||
      run.partitions >= static_cast<u64>(kFaultBudget)) {
    r.fail("fault budget exhausted before the measured phase ended");
  }
  if (run.delays == 0 || run.partitions == 0) {
    r.fail("no straggler or no partition was injected");
  }
  const auto frac = [&](u64 n) {
    return r.attempted > 0 ? static_cast<double>(n) / static_cast<double>(r.attempted) : 0.0;
  };
  auto& L = r.layer;
  L["lockspace.timeout_frac"] = frac(tally.timeouts);
  L["lockspace.degraded_frac"] = frac(tally.degraded);
  L["lockspace.quarantines"] = static_cast<double>(tally.quarantines);
  L["locks.attempts_per_timed_acquire"] =
      tally.tried > 0 ? static_cast<double>(tally.attempts) / static_cast<double>(tally.tried)
                      : 0.0;
  L["lockspace.shard_imbalance"] = imbalance(shards0, shard_acquires(space));
  L["lockspace.instantiated_slots"] = static_cast<double>(space.instantiated_slots());
  Fingerprint fp;
  fp.add(r.fingerprint);
  for (const u64 w : {tally.timeouts, tally.degraded, tally.tried, tally.attempts,
                      tally.quarantines}) {
    fp.add(w);
  }
  r.fingerprint = fp.value();
  if (log) {
    L["workload.keygen_ns"] = keygen_ns(keygen, seed);
    L["lockspace.resolve_ns"] = resolve_ns(space, r.keys);
  }
  return r;
}

// ---------------------------------------------------------------------------
// mc_exhaustive
// ---------------------------------------------------------------------------

/// Everything the probe locks of one explorer campaign report back.
struct McSink {
  std::vector<i64> read_ns, write_ns;  // per request, virtual
  i64 makespan_sum_ns = 0;             // over schedules
  u64 violations = 0;
  bool time_builds = false;
  std::vector<i64> build_ns;  // wall, per lock build (traced run only)
  u64 schedules = 0;  // lock builds, one per schedule
  ChunkMarks marks;
};

/// RwLock wrapper the benchmark's factory hands to the explorer: forwards
/// every call and records per-request virtual latency and occupancy. It
/// makes no RMA call of its own, so it adds no scheduling decision and the
/// enumerated space is the unwrapped lock's.
class ProbeRwLock final : public locks::RwLock {
 public:
  ProbeRwLock(std::unique_ptr<locks::RwLock> inner, McSink& sink, i32 nprocs)
      : inner_(std::move(inner)), sink_(sink), start_(static_cast<usize>(nprocs), 0) {}
  ~ProbeRwLock() override {
    sink_.makespan_sum_ns += makespan_;
    sink_.violations += monitor_.violations();
  }

  void acquire_read(rma::RmaComm& comm) override {
    start_[static_cast<usize>(comm.rank())] = comm.now_ns();
    inner_->acquire_read(comm);
    monitor_.enter_read(0);
  }
  void release_read(rma::RmaComm& comm) override {
    monitor_.exit_read(0);
    inner_->release_read(comm);
    finish(comm, sink_.read_ns);
  }
  void acquire_write(rma::RmaComm& comm) override {
    start_[static_cast<usize>(comm.rank())] = comm.now_ns();
    inner_->acquire_write(comm);
    monitor_.enter_write(0);
  }
  void release_write(rma::RmaComm& comm) override {
    monitor_.exit_write(0);
    inner_->release_write(comm);
    finish(comm, sink_.write_ns);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  void finish(rma::RmaComm& comm, std::vector<i64>& out) {
    const Nanos now = comm.now_ns();
    out.push_back(now - start_[static_cast<usize>(comm.rank())]);
    makespan_ = std::max(makespan_, now);
  }

  std::unique_ptr<locks::RwLock> inner_;
  McSink& sink_;
  std::vector<Nanos> start_;
  Nanos makespan_ = 0;
  OccupancyMonitor monitor_{1};
};

constexpr u64 kMcSchedules = 322'062;  // RMA-RW P=2x2, d <= 2, 1 acquire

/// mc_verification's "RMA-RW P=2x2" exhaustive case.
mc::CheckConfig mc_config(u64 seed) {
  mc::CheckConfig config;
  config.topology = topo::Topology::uniform({2}, 2);
  config.acquires_per_proc = 1;
  config.max_steps = 400'000;
  config.base_seed = seed;
  config.jobs = 1;
  // Writer roles alternate by rank parity.
  config.writer_roles.assign(static_cast<usize>(config.topology.nprocs()), false);
  for (i32 r = 0; r < config.topology.nprocs(); r += 2) {
    config.writer_roles[static_cast<usize>(r)] = true;
  }
  return config;
}

/// The checker's RMA-RW parameters: small thresholds stress mode changes.
locks::RmaRwParams mc_params(const topo::Topology& t) {
  locks::RmaRwParams p = locks::RmaRwParams::defaults(t);
  p.tr = 3;
  p.locality.assign(static_cast<usize>(t.num_levels()), 2);
  return p;
}

IterResult run_mc(u64 seed, SpanLog* log) {
  IterResult r;
  const mc::CheckConfig config = mc_config(seed);
  const locks::RmaRwParams params = mc_params(config.topology);

  // Set-up: what every schedule pays before it explores — build the
  // checker's world and lock and run the default schedule once. It takes
  // microseconds, so it is timed 1001 times and the median is reported.
  {
    int root = log ? log->begin_root(SpanKind::kWorldCreate) : -1;
    std::vector<double> setups, creates;
    for (int rep = 0; rep < 1001; ++rep) {
      const auto t0 = Clock::now();
      auto world = rma::SimWorld::create(mc::schedule_options(config, 0));
      creates.push_back(ms_since(t0));
      locks::RmaRw lock(*world, params);
      const rma::RunResult warm = world->run([&lock](rma::RmaComm& comm) {
        lock.acquire_read(comm);
        lock.release_read(comm);
      });
      if (!warm.ok()) r.fail("warmup schedule did not complete");
      setups.push_back(seconds_since(t0));
    }
    if (log) log->end_root(root, 0);
    r.setup_s = median(setups);
    r.layer["rma.world_create_ms"] = median(creates);
  }

  McSink sink;
  sink.time_builds = log != nullptr;
  const mc::RwLockFactory factory = [&sink, &params](rma::World& world) {
    const auto t0 = Clock::now();
    if (++sink.schedules % (kMcSchedules / ChunkMarks::kChunks) == 0) sink.marks.mark();
    auto inner = std::make_unique<locks::RmaRw>(world, params);
    if (sink.time_builds) {
      sink.build_ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - t0)
                                  .count());
    }
    return std::make_unique<ProbeRwLock>(std::move(inner), sink, world.nprocs());
  };
  mc::ExploreConfig explore;
  explore.max_schedules = 500'000;
  explore.max_preemptions = 2;

  const int root = log ? log->begin_root(SpanKind::kExplore) : -1;
  const auto t0 = Clock::now();
  sink.marks.start();
  const mc::CheckReport report =
      mc::check_rw_exhaustive(config, explore, factory, /*iterative=*/true);
  r.chunk_s = sink.marks.chunks(Clock::now());
  r.wall_s = seconds_since(t0);
  if (log) log->end_root(root, 0);

  r.attempted = report.schedules_run;
  const u64 bad = report.mutex_violations + report.deadlocks +
                  report.livelock_violations + report.step_limit_hits;
  for (u64 i = 0; i < bad; ++i) r.fail("schedule violated a checked property");
  r.ok = report.schedules_run - std::min(bad, report.schedules_run);
  if (report.exhausted_spaces != 1) r.fail("bounded schedule space not drained");
  if (report.schedules_run != kMcSchedules) {
    r.fail("enumerated " + std::to_string(report.schedules_run) +
           " schedules, expected " + std::to_string(kMcSchedules));
  }
  if (sink.violations > 0) r.fail("occupancy monitor saw overlapping holds");

  Fingerprint fp;
  for (const auto* v : {&sink.read_ns, &sink.write_ns}) {
    for (const i64 ns : *v) fp.add_signed(ns);
    fp.add(v->size());
  }
  fp.add(report.schedules_run);
  fp.add(report.total_cs_entries);
  fp.add_signed(sink.makespan_sum_ns);
  r.fingerprint = fp.value();
  r.makespan_ns = sink.makespan_sum_ns;
  r.granted = sink.read_ns.size() + sink.write_ns.size();
  for (const i64 ns : sink.read_ns) r.read_vus.push_back(static_cast<double>(ns) / 1e3);
  for (const i64 ns : sink.write_ns) r.write_vus.push_back(static_cast<double>(ns) / 1e3);
  r.lat_vus = r.read_vus;
  r.lat_vus.insert(r.lat_vus.end(), r.write_vus.begin(), r.write_vus.end());

  auto& L = r.layer;
  L["mc.schedules"] = static_cast<double>(report.schedules_run);
  L["mc.cs_entries"] = static_cast<double>(report.total_cs_entries);
  L["workload.requests"] = static_cast<double>(r.granted);
  L["workload.write_share"] =
      r.granted > 0 ? static_cast<double>(sink.write_ns.size()) / static_cast<double>(r.granted)
                    : 0.0;
  L["workload.hot_key_share"] = 1.0;  // a single lock
  if (!sink.build_ns.empty()) {
    std::vector<double> us;
    us.reserve(sink.build_ns.size());
    for (const i64 ns : sink.build_ns) us.push_back(static_cast<double>(ns) / 1e3);
    L["mc.lock_build_us"] = median(std::move(us));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Span-derived per-layer metrics
// ---------------------------------------------------------------------------

void add_span_metrics(const SpanLog& log, std::map<std::string, double>& L) {
  const auto& spans = log.spans();
  std::vector<std::vector<double>> dur(static_cast<usize>(SpanKind::kCount));
  std::vector<OpCounts> ops(static_cast<usize>(SpanKind::kCount));
  for (const Span& s : spans) {
    if (s.rank < 0) continue;
    const auto k = static_cast<usize>(s.kind);
    dur[k].push_back(static_cast<double>(s.vdur()) / 1e3);
    ops[k].ops += s.ops.ops;
    ops[k].atomics += s.ops.atomics;
    ops[k].remote += s.ops.remote;
  }
  const auto of = [&](SpanKind k) -> std::vector<double>& {
    return dur[static_cast<usize>(k)];
  };
  const auto per = [&](SpanKind k, u64 OpCounts::*field) {
    const usize n = of(k).size();
    return n > 0 ? static_cast<double>(ops[static_cast<usize>(k)].*field) /
                       static_cast<double>(n)
                 : 0.0;
  };
  Dist d = summarize(of(SpanKind::kLockAcquireRead));
  L["locks.acquire_read_vus_p50"] = d.p50;
  L["locks.acquire_read_vus_p99"] = d.p99;
  d = summarize(of(SpanKind::kLockAcquireWrite));
  L["locks.acquire_write_vus_p50"] = d.p50;
  L["locks.acquire_write_vus_p99"] = d.p99;
  L["locks.release_write_vus_p50"] = summarize(of(SpanKind::kLockReleaseWrite)).p50;
  L["locks.ops_per_write_acquire"] = per(SpanKind::kLockAcquireWrite, &OpCounts::ops);
  L["locks.remote_ops_per_write_acquire"] =
      per(SpanKind::kLockAcquireWrite, &OpCounts::remote);
  L["locks.ops_per_read_acquire"] = per(SpanKind::kLockAcquireRead, &OpCounts::ops);

  std::vector<double> space_acq = of(SpanKind::kSpaceAcquireRead);
  for (const SpanKind k : {SpanKind::kSpaceAcquire, SpanKind::kSpaceTryAcquire}) {
    space_acq.insert(space_acq.end(), of(k).begin(), of(k).end());
  }
  d = summarize(space_acq);
  L["lockspace.acquire_vus_p50"] = d.p50;
  L["lockspace.acquire_vus_p99"] = d.p99;

  std::vector<double> payload = of(SpanKind::kPayloadGet);
  payload.insert(payload.end(), of(SpanKind::kPayloadPut).begin(),
                 of(SpanKind::kPayloadPut).end());
  L["rma.payload_vus_p50"] = summarize(payload).p50;
  L["trace.spans"] = static_cast<double>(spans.size());
}

/// Per-span-kind table: count, duration and self-time percentiles, share of
/// all rank self time, and ops per call.
void print_span_table(const SpanLog& log) {
  const auto& spans = log.spans();
  const std::vector<i64> self = log.self_times();
  const usize kinds = static_cast<usize>(SpanKind::kCount);
  std::vector<std::vector<double>> dur(kinds), selfs(kinds);
  std::vector<double> wall_ms(kinds, 0.0);
  std::vector<u64> nops(kinds, 0);
  double self_total = 0;
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<usize>(s.kind);
    if (s.rank < 0) {
      wall_ms[k] += static_cast<double>(s.wall_ns) / 1e6;
      dur[k].push_back(static_cast<double>(s.vdur()) / 1e3);
      continue;
    }
    dur[k].push_back(static_cast<double>(s.vdur()) / 1e3);
    selfs[k].push_back(static_cast<double>(self[i]) / 1e3);
    self_total += static_cast<double>(self[i]);
    nops[k] += s.ops.ops;
  }
  std::printf("spans: %-28s %9s %12s %12s %12s %8s %9s %10s\n", "name", "count",
              "dur_p50_vus", "dur_p99_vus", "self_p50_vus", "self_%", "ops/call",
              "wall_ms");
  for (usize k = 0; k < kinds; ++k) {
    if (dur[k].empty()) continue;
    const Dist dd = summarize(dur[k]);
    const Dist sd = summarize(selfs[k]);
    double self_sum = 0;
    for (const double v : selfs[k]) self_sum += v * 1e3;
    std::printf("spans: %-28s %9zu %12.4f %12.4f %12.4f %8.2f %9.2f %10.3f\n",
                span_name(static_cast<SpanKind>(k)), dd.n, dd.p50, dd.p99, sd.p50,
                self_total > 0 ? 100.0 * self_sum / self_total : 0.0,
                static_cast<double>(nops[k]) / static_cast<double>(dd.n), wall_ms[k]);
  }
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

/// Planted bug: a reader-writer lock whose acquire and release do nothing.
class NoopRwLock final : public locks::RwLock {
 public:
  void acquire_read(rma::RmaComm&) override {}
  void release_read(rma::RmaComm&) override {}
  void acquire_write(rma::RmaComm&) override {}
  void release_write(rma::RmaComm&) override {}
  [[nodiscard]] std::string name() const override { return "noop (planted)"; }
};

/// Overlaps the occupancy monitor records for `lock` under the hot-lock
/// loop on a small machine, with a 100 ns critical section.
u64 overlaps_seen(const std::function<std::unique_ptr<locks::RwLock>(rma::World&)>& make) {
  auto world = rma::SimWorld::create(sim_options(32, 7));
  const auto lock = make(*world);
  OccupancyMonitor monitor(1);
  std::vector<std::vector<Req>> reqs(static_cast<usize>(world->nprocs()));
  std::vector<Nanos> end_ns(static_cast<usize>(world->nprocs()), 0);
  ChunkMarks marks;
  const rma::RunResult run =
      world->run(rw_loop(*lock, monitor, 40, 100, nullptr, reqs, end_ns, marks));
  return run.ok() ? monitor.violations() : ~u64{0};
}

int run_selftests(bool verbose) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) ++failures;
    if (verbose || !ok) std::printf("selftest %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  };

  std::vector<double> one_to_100;
  for (int i = 1; i <= 100; ++i) one_to_100.push_back(i);
  expect(percentile_sorted(one_to_100, 50) == 50 && percentile_sorted(one_to_100, 99) == 99 &&
             percentile_sorted(one_to_100, 100) == 100 &&
             percentile_sorted(one_to_100, 0) == 1 &&
             percentile_sorted(one_to_100, 99.5) == 100,
         "nearest-rank percentiles of 1..100");
  expect(percentile_sorted({7.0}, 1) == 7 && percentile_sorted({7.0}, 99) == 7 &&
             percentile_sorted({}, 50) == 0,
         "percentiles of one and zero samples");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2, "median (lower middle)");
  expect(tail_percentile(1000) == 99.0 && tail_percentile(10) == -1 &&
             tail_percentile(11) == 9.09 && tail_percentile(100000) == 99.99,
         "tail percentile leaves ten samples beyond it");
  {
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i) v.push_back(i);
    const Dist d = summarize(v);
    expect(d.n == 1000 && d.p50 == 500 && d.p99 == 990 && d.tail_q == 99.0 && d.tail == 990,
           "summarize sorts and reports the tail with its count");
  }

  bool names_ok = true;
  for (const char* w : kWorkloads) names_ok = names_ok && valid_name(w);
  for (const MetricDef& m : kEndToEnd) names_ok = names_ok && valid_name(m.name);
  for (const MetricDef& m : kPerLayer) names_ok = names_ok && valid_name(m.name);
  expect(names_ok, "every metric and workload name matches [A-Za-z0-9_.-]+");
  expect(!valid_name("") && !valid_name("a b") && !valid_name("-x") &&
             !valid_name(std::string(65, 'a')),
         "malformed names are rejected");

  const u64 planted = overlaps_seen(
      [](rma::World&) { return std::make_unique<NoopRwLock>(); });
  expect(planted > 0 && planted != ~u64{0},
         "occupancy monitor flags the planted no-op lock (" + std::to_string(planted) +
             " overlaps)");
  const u64 real = overlaps_seen([](rma::World& world) {
    locks::RmaRwParams p = hot_params();
    return std::make_unique<locks::RmaRw>(world, p);
  });
  expect(real == 0, "occupancy monitor is silent on RMA-RW");
  return failures;
}

// ---------------------------------------------------------------------------
// Command line and main loop
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string span_dir;
  bool selftest = false;
  bool list = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rmabench: %s\nusage: rmabench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-dir <dir>]\n"
               "       rmabench --selftest | --list\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = std::stoi(value());
      } else if (arg == "--span-dir") {
        a.span_dir = value();
      } else if (arg == "--selftest") {
        a.selftest = true;
      } else if (arg == "--list") {
        a.list = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (a.selftest || a.list) return a;
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_dist(const char* name, const char* unit, std::vector<double> v) {
  const Dist d = summarize(v);
  const double min = v.empty() ? 0.0 : v.front();  // sorted by summarize
  if (d.tail_q > 50) {
    std::printf("  %-18s min %-11.6g p50 %-11.6g p%-6g %-11.6g n=%zu [%s]\n", name, min,
                d.p50, d.tail_q, d.tail, d.n, unit);
  } else {
    std::printf("  %-18s min %-11.6g p50 %-11.6g (no tail: n < 20) n=%zu [%s]\n", name, min,
                d.p50, d.n, unit);
  }
}

/// The measured phase's fastest wall time over `iters`: each chunk's
/// minimum across iterations, summed.
double fastest_wall(const std::vector<IterResult>& iters) {
  std::vector<double> best;
  for (const IterResult& r : iters) {
    if (best.empty()) {
      best = r.chunk_s;
    } else {
      for (usize c = 0; c < best.size() && c < r.chunk_s.size(); ++c) {
        best[c] = std::min(best[c], r.chunk_s[c]);
      }
    }
  }
  double sum = 0;
  for (const double c : best) sum += c;
  return sum;
}

int run_benchmark(const Args& a) {
  using WorkloadFn = IterResult (*)(u64, SpanLog*);
  WorkloadFn fn = nullptr;
  i32 nprocs = 0;
  if (a.workload == "kv_zipf_read") {
    fn = run_kv;
    nprocs = kKvProcs;
  } else if (a.workload == "rw_hot_lock") {
    fn = run_hot;
    nprocs = kHotProcs;
  } else if (a.workload == "gray_deadline") {
    fn = run_gray;
    nprocs = kGrayProcs;
  } else if (a.workload == "mc_exhaustive") {
    fn = run_mc;
    nprocs = 4;
  } else {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (run_selftests(false) != 0) {
    std::fprintf(stderr, "rmabench: self-tests failed; not measuring\n");
    return 3;
  }

  std::printf("rmabench %s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  std::vector<IterResult> plain, traced;
  std::unique_ptr<SpanLog> last_log;
  // Peak RSS of building and running the workload once: read after the
  // first iteration, so it does not depend on how many iterations fit.
  double peak_rss_mb = 0;
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool tracing = a.trace == 1 && i % 2 == 1;
    auto log = tracing ? std::make_unique<SpanLog>(nprocs) : nullptr;
    if (log && last_log) log->reserve(last_log->spans().size());
    const auto it0 = Clock::now();
    IterResult r = fn(a.seed, log.get());
    const double iter_s = seconds_since(it0);
    if (i == 0) peak_rss_mb = peak_rss_mib();
    // Only the first untraced iteration keeps its samples; the others are
    // compared by fingerprint, so memory does not grow with the run length.
    r.keys = {};
    if (tracing || !plain.empty()) {
      r.lat_vus = {};
      r.read_vus = {};
      r.write_vus = {};
    }
    std::printf("iteration %d%s: setup %.4f s, measured %.4f s, total %.4f s\n", i,
                tracing ? " (traced)" : "", r.setup_s, r.wall_s, iter_s);
    if (tracing) {
      add_span_metrics(*log, r.layer);
      last_log = std::move(log);
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    const double elapsed = seconds_since(t0);
    const bool enough = a.trace == 1 ? !traced.empty() : plain.size() >= 2;
    // Stop before an iteration would overrun the budget; the hard cap keeps
    // a slow machine inside the run's time limit.
    if ((enough && elapsed + iter_s > a.seconds) || elapsed > 120) break;
    if (!enough && elapsed > 150) break;
  }

  // Correctness and determinism.
  const IterResult& first = plain.front();
  u64 attempted = 0, failed = 0;
  bool deterministic = true;
  std::map<std::string, u64> failures;
  for (const auto* set : {&plain, &traced}) {
    for (const IterResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& [why, n] : r.failures) failures[why] += n;
      if (r.fingerprint != first.fingerprint) deterministic = false;
    }
  }
  if (!deterministic) {
    ++failed;
    failures.emplace(
        "virtual-time results differ between iterations of one build "
        "(traced vs untraced, or repeats): engine nondeterminism",
        1);
  }
  const bool correct = failed == 0;

  std::vector<double> walls, setups;
  for (const IterResult& r : plain) {
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
  }
  // setup_s is the median iteration. The measured phase's wall time is not
  // an end-to-end metric: a shared host's speed swings for minutes at a time,
  // which moves it by more than any bound between runs of the same code. It
  // is reported at its least-disturbed, the sum of every chunk's fastest
  // time across iterations (ChunkMarks), in the text report and per layer
  // (rma.wall_ns_per_step, mc.wall_us_per_schedule).
  const double wall_s = fastest_wall(plain);
  const double setup_s = median(setups);
  const double throughput =
      first.makespan_ns > 0 ? static_cast<double>(first.granted) * 1e3 /
                                  static_cast<double>(first.makespan_ns)
                            : 0.0;
  std::vector<double> lat = first.lat_vus, rd = first.read_vus, wr = first.write_vus;
  const Dist dl = summarize(lat), dr = summarize(rd), dw = summarize(wr);
  const double ok_frac =
      first.attempted > 0 ? static_cast<double>(first.ok) / static_cast<double>(first.attempted)
                          : 0.0;

  std::map<std::string, double> e2e = {
      {"throughput_mops", throughput}, {"latency_p50_us", dl.p50},
      {"latency_p99_us", dl.p99},      {"read_p99_us", dr.p99},
      {"write_p99_us", dw.p99},        {"ok_frac", ok_frac},
      {"setup_s", setup_s},            {"peak_rss_mb", peak_rss_mb},
  };

  std::printf("end-to-end (%zu untraced iterations; virtual metrics identical in each):\n",
              plain.size());
  std::printf("  throughput_mops        %.6g Mops/vs (%llu granted requests / %.6g modeled us)\n",
              throughput, static_cast<unsigned long long>(first.granted),
              static_cast<double>(first.makespan_ns) / 1e3);
  print_dist("latency_us", "vus", first.lat_vus);
  print_dist("read_latency_us", "vus", first.read_vus);
  print_dist("write_latency_us", "vus", first.write_vus);
  std::printf("  ok_frac                %.6g (%llu of %llu attempted; base = %s)\n", ok_frac,
              static_cast<unsigned long long>(first.ok),
              static_cast<unsigned long long>(first.attempted),
              a.workload == "mc_exhaustive" ? "schedules" : "requests");
  print_dist("wall_s", "s", walls);
  std::printf("  wall_s (fastest chunks) %.6g s (not an end-to-end metric)\n", wall_s);
  print_dist("setup_s", "s", setups);
  std::printf("  peak_rss_mb            %.6g MiB\n", e2e["peak_rss_mb"]);
  const auto& L0 = first.layer;
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  std::printf("workload properties: hot_key_share=%.6g write_share=%.6g "
              "instantiated_slots=%.0f fault_events=%.0f\n",
              get(L0, "workload.hot_key_share"), get(L0, "workload.write_share"),
              get(L0, "lockspace.instantiated_slots"), get(L0, "rma.fault_events"));

  std::map<std::string, double> layer;
  if (a.trace == 1) {
    const IterResult& tr = traced.back();
    layer = tr.layer;
    const double traced_wall = fastest_wall(traced);
    layer["trace.overhead_ratio"] = wall_s > 0 ? traced_wall / wall_s : 0.0;
    const double steps = get(layer, "rma.steps");
    layer["rma.wall_ns_per_step"] = steps > 0 ? wall_s * 1e9 / steps : 0.0;
    if (a.workload == "mc_exhaustive") {
      layer["mc.wall_us_per_schedule"] =
          get(layer, "mc.schedules") > 0 ? wall_s * 1e6 / get(layer, "mc.schedules") : 0.0;
    }
    std::printf("traced run: %zu traced iterations, overhead %.4fx (traced %.4f s / "
                "untraced %.4f s measured wall), virtual metrics %s\n",
                traced.size(), layer["trace.overhead_ratio"], traced_wall, wall_s,
                deterministic ? "bit-identical" : "DIFFER");
    if (last_log) {
      print_span_table(*last_log);
      if (!a.span_dir.empty()) {
        const std::string path = a.span_dir + "/" + a.workload + ".spans.tsv";
        if (last_log->write_tsv(path)) {
          std::printf("spans written to %s\n", path.c_str());
        } else {
          std::printf("warning: could not write spans to %s\n", path.c_str());
        }
      }
    }
    std::printf("per-layer:\n");
    for (const MetricDef& m : kPerLayer) {
      std::printf("  %-36s %.6g %s\n", m.name, get(layer, m.name), m.unit);
    }
  }

  for (const auto& [why, n] : failures) {
    std::printf("FAILED: %s (%llu times)\n", why.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("correct=%s attempted=%llu failed=%llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first_metric = true;
  const auto emit = [&](const MetricDef& m, double v) {
    if (!first_metric) json += ", ";
    first_metric = false;
    json += "\"";
    json += m.name;
    json += "\": {\"value\": ";
    json += json_number(v);
    json += ", \"unit\": \"";
    json += m.unit;
    json += "\"}";
  };
  if (a.trace == 1) {
    for (const MetricDef& m : kPerLayer) emit(m, get(layer, m.name));
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  if (args.list) {
    for (const char* w : perfbench::kWorkloads) std::printf("workload %s\n", w);
    for (const auto& m : perfbench::kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const auto& m : perfbench::kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  if (args.selftest) return perfbench::run_selftests(true) == 0 ? 0 : 1;
  if (args.workload.empty()) perfbench::usage("--workload is required");
  return perfbench::run_benchmark(args);
}
