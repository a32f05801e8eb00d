#include "mc/checker.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "harness/task_pool.hpp"
#include "mc/monitor.hpp"
#include "mc/schedule.hpp"
#include "obs/trace.hpp"

namespace rmalock::mc {

std::string CheckReport::summary() const {
  std::ostringstream out;
  out << "schedules=" << schedules_run << " cs_entries=" << total_cs_entries
      << " mutex_violations=" << mutex_violations
      << " deadlocks=" << deadlocks << " step_limit_hits=" << step_limit_hits;
  if (livelock_violations > 0) {
    out << " livelock_violations=" << livelock_violations;
  }
  if (stale_token_commits > 0) {
    out << " stale_token_commits=" << stale_token_commits;
  }
  if (exhausted_spaces > 0) out << " exhausted_spaces=" << exhausted_spaces;
  if (cross_key_overlap_schedules > 0) {
    out << " cross_key_overlaps=" << cross_key_overlap_schedules;
  }
  out << " => " << (ok() ? "OK" : "VIOLATION");
  if (has_first_failure) {
    const FirstFailure& f = first_failure;
    out << "; first_failure: kind=" << f.kind << " schedule=" << f.schedule_index
        << " base_seed=" << f.base_seed << " world_seed=" << f.world_seed;
    if (f.raw_trace_len > 0) {
      out << " trace=" << f.raw_trace_len << "->" << f.trace.picks.size()
          << " picks";
    }
    if (!f.trace_path.empty()) {
      out << "; repro: mc_verification --replay " << f.trace_path;
    }
    if (!f.post_mortem_path.empty()) {
      out << "; flight: " << f.post_mortem_path << " (perfetto: "
          << f.flight_trace_path << ")";
    }
  }
  return out.str();
}

CheckReport& CheckReport::operator+=(const CheckReport& other) {
  schedules_run += other.schedules_run;
  mutex_violations += other.mutex_violations;
  deadlocks += other.deadlocks;
  livelock_violations += other.livelock_violations;
  stale_token_commits += other.stale_token_commits;
  step_limit_hits += other.step_limit_hits;
  total_cs_entries += other.total_cs_entries;
  exhausted_spaces += other.exhausted_spaces;
  cross_key_overlap_schedules += other.cross_key_overlap_schedules;
  if (!has_first_failure && other.has_first_failure) {
    has_first_failure = true;
    first_failure = other.first_failure;
  }
  return *this;
}

rma::SimOptions schedule_options(const CheckConfig& config, u64 schedule) {
  rma::SimOptions opts;
  opts.topology = config.topology;
  opts.latency = rma::LatencyModel::zero(config.topology.num_levels());
  opts.seed = mix_seed(config.base_seed, schedule);
  opts.policy = config.policy;
  opts.pct_change_points = config.pct_change_points;
  // Sample PCT change points over the expected run length (~50 engine
  // steps per acquire), not the much larger safety step bound.
  opts.pct_horizon = static_cast<u64>(config.topology.nprocs()) *
                     static_cast<u64>(config.acquires_per_proc) * 50;
  opts.max_steps = config.max_steps;
  opts.knobs() = config.knobs();
  opts.abort_on_deadlock = false;  // report, don't abort: we are the checker
  // Randomized campaigns do not record up front: the engine is
  // deterministic, so capture_first_failure re-records only the (rare)
  // failing schedule instead of growing a picks vector on every clean run.
  // The exhaustive explorer overrides this — its schedules are driven by a
  // stateful hook and cannot be re-run after the fact.
  opts.record_schedule = false;
  return opts;
}

rma::SimOptions replay_options(const CheckConfig& config, u64 world_seed,
                               const rma::ScheduleTrace& trace) {
  rma::SimOptions opts = schedule_options(config, 0);
  opts.seed = world_seed;
  // Virtual-time campaigns (drift) record only fault-decision picks — the
  // scheduling itself is deterministic — so their replays keep kVirtualTime
  // and consume the trace at the decision sites. Preemptive campaigns
  // recorded every scheduling pick and replay under kReplay.
  opts.policy = config.policy == rma::SchedPolicy::kVirtualTime
                    ? rma::SchedPolicy::kVirtualTime
                    : rma::SchedPolicy::kReplay;
  opts.replay = &trace;
  opts.record_schedule = false;
  return opts;
}

namespace {

/// Whether `rank` is a writer: config.writer_roles when pinned, else drawn
/// per (world seed, rank) as in the paper's §4.4 setup — independent of the
/// schedule, so a replay under the same seed keeps the roles.
bool is_writer(const CheckConfig& config, u64 seed, Rank rank) {
  if (config.writer_roles.empty()) {
    Xoshiro256 rng(mix_seed(seed, 0xAB0 + static_cast<u64>(rank)));
    return rng.uniform() < config.writer_fraction;
  }
  RMALOCK_CHECK_MSG(
      config.writer_roles.size() ==
          static_cast<usize>(config.topology.nprocs()),
      "writer_roles has " << config.writer_roles.size() << " entries for "
                          << config.topology.nprocs() << " processes");
  return config.writer_roles[static_cast<usize>(rank)];
}

/// Key index of process `rank`'s i-th acquisition in the keyed workloads.
usize key_index(Rank rank, i32 i, usize nkeys) {
  return (static_cast<usize>(rank) + static_cast<usize>(i)) % nkeys;
}

/// Folds per-key critical-section monitors into a schedule outcome.
void add_monitors(ScheduleOutcome& outcome,
                  const std::vector<CsMonitor>& monitors) {
  for (const CsMonitor& monitor : monitors) {
    outcome.mutex_violations += monitor.violations();
    outcome.cs_entries += monitor.entries();
  }
}

/// Peak number of distinct keys held at once: the cross-key concurrency
/// witness. SimWorld runs fibers serially between RMA calls, so plain
/// counters are exact.
class KeyOverlap {
 public:
  explicit KeyOverlap(usize keys) : holders_(keys, 0) {}
  void enter(usize ki) {
    if (holders_[ki]++ == 0) peak_ = std::max(peak_, ++held_);
  }
  void exit(usize ki) {
    if (--holders_[ki] == 0) --held_;
  }
  [[nodiscard]] u64 peak() const { return peak_; }

 private:
  std::vector<i64> holders_;
  u64 held_ = 0;
  u64 peak_ = 0;
};

}  // namespace

Workload rw_workload(RwLockFactory factory) {
  return {[factory = std::move(factory)](const CheckConfig& config,
                                         const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto lock = factory(*world);
    CsMonitor monitor;
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      const bool writer = is_writer(config, opts.seed, comm.rank());
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        if (writer) {
          lock->acquire_write(comm);
          monitor.enter_write();
          comm.compute(10);  // scheduling point: keeps the CS observable
          monitor.exit_write();
          lock->release_write(comm);
        } else {
          lock->acquire_read(comm);
          monitor.enter_read();
          comm.compute(10);
          monitor.exit_read();
          lock->release_read(comm);
        }
      }
    });
    outcome.mutex_violations = monitor.violations();
    outcome.cs_entries = monitor.entries();
    outcome.lock_name = lock->name();
    return outcome;
  }};
}

Workload exclusive_workload(ExclusiveLockFactory factory) {
  return {[factory = std::move(factory)](const CheckConfig& config,
                                         const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto lock = factory(*world);
    CsMonitor monitor;
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        lock->acquire(comm);
        monitor.enter();
        comm.compute(10);  // scheduling point: keeps the CS observable
        monitor.exit();
        lock->release(comm);
      }
    });
    outcome.mutex_violations = monitor.violations();
    outcome.cs_entries = monitor.entries();
    outcome.lock_name = lock->name();
    return outcome;
  }};
}

Workload lease_workload(LeaseLockFactory factory) {
  return {[factory = std::move(factory)](const CheckConfig& config,
                                         const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto lock = factory(*world);
    EpochMonitor monitor;
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        comm.crash_point();  // may die right before competing for the lease
        const i64 epoch = lock->acquire_epoch(comm);
        monitor.enter(epoch);
        comm.compute(10);  // scheduling point: keeps the CS observable
        comm.crash_point();  // may die mid-CS — the unwind skips exit() and
                             // release(), so the epoch stays active and the
                             // lease is orphaned until a survivor fences it
        monitor.exit(epoch);
        lock->release(comm);
      }
    });
    outcome.mutex_violations = monitor.violations();
    outcome.cs_entries = monitor.entries();
    outcome.lock_name = lock->name();
    return outcome;
  }};
}

Workload lockspace_workload(LockSpaceFactory factory, std::vector<u64> keys) {
  RMALOCK_CHECK_MSG(!keys.empty(), "lockspace workload needs >= 1 key");
  return {[factory = std::move(factory), keys = std::move(keys)](
              const CheckConfig& config, const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto space = factory(*world);
    // One monitor per key: mutual exclusion is a per-key property.
    std::vector<CsMonitor> monitors(keys.size());
    KeyOverlap overlap(keys.size());
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      const bool writer = is_writer(config, opts.seed, comm.rank());
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        const usize ki = key_index(comm.rank(), i, keys.size());
        const u64 key = keys[ki];
        if (writer || !space->rw_capable()) {
          space->acquire(comm, key);
          monitors[ki].enter_write();
          overlap.enter(ki);
          comm.compute(10);  // scheduling point: keeps the CS observable
          overlap.exit(ki);
          monitors[ki].exit_write();
          space->release(comm, key);
        } else {
          space->acquire_read(comm, key);
          monitors[ki].enter_read();
          overlap.enter(ki);
          comm.compute(10);
          overlap.exit(ki);
          monitors[ki].exit_read();
          space->release_read(comm, key);
        }
      }
    });
    add_monitors(outcome, monitors);
    outcome.max_distinct_keys_held = overlap.peak();
    outcome.lock_name = space->describe();
    return outcome;
  }};
}

Workload optimistic_workload(LockSpaceFactory factory, std::vector<u64> keys) {
  RMALOCK_CHECK_MSG(!keys.empty(), "optimistic workload needs >= 1 key");
  return {[factory = std::move(factory), keys = std::move(keys)](
              const CheckConfig& config, const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto space = factory(*world);
    RMALOCK_CHECK_MSG(space->optimistic_capable(),
                      "optimistic workload needs payload_words > 0");
    const usize payload = static_cast<usize>(space->payload_words());
    // Write-side mutual exclusion stays a per-key CsMonitor property; the
    // lock-free readers are instead checked for snapshot consistency: every
    // payload a read returns must be non-increasing along the word index
    // (writers publish ascending-order, monotone-generation words — see
    // OptimisticReadMonitor). Both fold into mutex_violations.
    std::vector<CsMonitor> monitors(keys.size());
    OptimisticReadMonitor read_monitor;
    KeyOverlap overlap(keys.size());
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      const bool writer = is_writer(config, opts.seed, comm.rank());
      std::vector<i64> buf(payload, 0);
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        const usize ki = key_index(comm.rank(), i, keys.size());
        const u64 key = keys[ki];
        if (writer) {
          space->acquire(comm, key);
          monitors[ki].enter_write();
          overlap.enter(ki);
          // Next generation for this key: completed write sessions so far
          // plus one (version is even and == 2 * sessions under the lock).
          const i64 gen = space->payload_version(comm, key) / 2 + 1;
          std::fill(buf.begin(), buf.end(), gen);
          space->write_payload(comm, key, buf.data(), payload);
          comm.compute(10);  // scheduling point: keeps the CS observable
          overlap.exit(ki);
          monitors[ki].exit_write();
          space->release(comm, key);
        } else {
          space->optimistic_read(comm, key, buf.data(), payload);
          read_monitor.record(buf.data(), payload);
        }
      }
    });
    add_monitors(outcome, monitors);
    outcome.mutex_violations += read_monitor.violations();
    outcome.cs_entries += read_monitor.reads();
    outcome.max_distinct_keys_held = overlap.peak();
    outcome.lock_name = space->describe();
    return outcome;
  }};
}

Workload timeout_workload(ExclusiveLockFactory factory) {
  return {[factory = std::move(factory)](const CheckConfig& config,
                                         const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto lock = factory(*world);
    CsMonitor monitor;
    LivelockMonitor livelock(kLivelockBound);
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      for (i32 round = 0; round < config.timeout_retry_rounds; ++round) {
        const Nanos deadline = comm.now_ns() + kAcquireTimeoutNs;
        const locks::AcquireResult r =
            lock->try_acquire_for(comm, deadline, config.retry);
        livelock.record(comm.rank(), r.attempts, r.ok());
        if (!r.ok()) continue;  // timed out: the round's budget is spent
        monitor.enter();
        comm.compute(10);  // scheduling point: keeps the CS observable
        monitor.exit();
        lock->release(comm);
      }
    });
    outcome.mutex_violations = monitor.violations();
    outcome.livelock_violations = livelock.violations();
    outcome.cs_entries = monitor.entries();
    outcome.lock_name = lock->name();
    return outcome;
  }};
}

Workload drift_workload(DriftLeaseFactory factory) {
  return {[factory = std::move(factory)](const CheckConfig& config,
                                         const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    DriftLeaseSubject subject = factory(*world);
    RMALOCK_CHECK(subject.lease != nullptr && subject.space != nullptr);
    RMALOCK_CHECK_MSG(subject.space->optimistic_capable(),
                      "drift workload needs payload_words > 0");
    const usize payload = static_cast<usize>(subject.space->payload_words());
    const Nanos duration = locks::TimedLease::kDurationNs;
    const Nanos margin = subject.lease->params().safety_margin_ns;
    // Pace the hold so the last write lands AT the belief boundary: each
    // round checks still_valid, ages the belief by a quarter duration, THEN
    // writes — the check-then-act pattern every real lease client has. With
    // honest clocks the claimant's kReclaimGraceNs covers that in-flight
    // final write; a drift-slow clock stretches the same local schedule past
    // the grace in real time, and THOSE are the stale writes the fencing
    // token exists to reject.
    const Nanos chunk = std::max<Nanos>(1, duration / 4);
    WallClockLeaseMonitor monitor;
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      std::vector<i64> buf(payload, 0);
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        const i64 token = subject.lease->acquire_token(comm);
        monitor.session_begin(comm.rank(), comm.now_ns());
        // A well-behaved client: writes only while it believes the grant
        // valid on its own clock, and stamps every write with its token.
        // What it cannot know is whether its clock made the belief a lie —
        // deciding that is the resource's (and the monitor's) job.
        for (i32 w = 0; w < 8; ++w) {
          if (!subject.lease->still_valid(comm)) break;
          // A fresh grantee writes immediately; later rounds age the belief
          // first, so a lying clock's final round writes past the boundary.
          if (w > 0) comm.compute(chunk);
          std::fill(buf.begin(), buf.end(), token);
          i64 admitted = 0;
          const bool accepted = subject.space->write_payload_fenced(
              comm, subject.key, token, buf.data(), payload, &admitted);
          monitor.commit(token, accepted,
                         admitted & lockspace::LockSpace::kTokenSeqMask);
          if (!accepted) break;  // fenced out: this grant is stale
        }
        monitor.session_end(comm.rank(), comm.now_ns());
        // Rank-staggered holds are ABANDONED — the holder walks away without
        // releasing (a stalled client), so the next claimant must reclaim by
        // time. Staggering by rank keeps one releasing rank per round; if
        // every rank abandoned the same rounds the fleet would phase-lock
        // into self-re-takes and no timed reclaim would ever happen. The
        // abandoner sits out past every claimant's reclaim point (with a
        // jittered tail so reclaims never tie-break against self-re-takes)
        // so it does not simply re-take its own lease.
        if ((i + comm.rank()) % 2 == 0) {
          subject.lease->release(comm);
        } else {
          comm.compute(2 * (duration + margin) +
                       static_cast<Nanos>(
                           comm.rng().below(static_cast<u64>(duration))));
        }
      }
    });
    outcome.mutex_violations = monitor.violations();
    outcome.stale_token_commits = monitor.stale_commits();
    outcome.cs_entries = monitor.writes();
    outcome.lock_name = subject.lease->name();
    return outcome;
  }};
}

Workload rehome_workload(LockSpaceFactory factory, std::vector<u64> keys) {
  RMALOCK_CHECK_MSG(!keys.empty(), "rehome workload needs >= 1 key");
  return {[factory = std::move(factory), keys = std::move(keys)](
              const CheckConfig& config, const rma::SimOptions& opts) {
    auto world = rma::SimWorld::create(opts);
    const auto space = factory(*world);
    RMALOCK_CHECK_MSG(space->config().rehome_epochs >= 1,
                      "rehome workload needs rehome_epochs >= 1");
    const Rank nprocs = config.topology.nprocs();
    // Per-key monitors, plane-agnostic: an old-plane owner concurrent with a
    // new-plane owner of the same key is exactly a mutex violation here.
    std::vector<CsMonitor> monitors(keys.size());
    LivelockMonitor livelock(kLivelockBound);
    ScheduleOutcome outcome;
    outcome.run = world->run([&](rma::RmaComm& comm) {
      const Rank me = comm.rank();
      const bool migrator = me == nprocs - 1;
      for (i32 i = 0; i < config.acquires_per_proc; ++i) {
        if (migrator && i == config.acquires_per_proc / 2) {
          // Mid-run migration of the first key's shard to its successor
          // home; a generous drain budget so only a wedged holder aborts it.
          const i32 shard = space->resolve(keys[0]).shard;
          (void)space->rehome_shard(comm, shard, 10 * kAcquireTimeoutNs);
        }
        const usize ki = key_index(me, i, keys.size());
        const u64 key = keys[ki];
        const Nanos deadline = comm.now_ns() + kAcquireTimeoutNs;
        const locks::AcquireResult r =
            space->try_acquire_for(comm, key, deadline, config.retry);
        livelock.record(me, r.attempts, r.ok());
        if (!r.ok()) continue;  // timeout or degraded: budget spent
        monitors[ki].enter_write();
        comm.compute(10);  // scheduling point: keeps the CS observable
        monitors[ki].exit_write();
        space->release(comm, key);
      }
    });
    add_monitors(outcome, monitors);
    outcome.livelock_violations = livelock.violations();
    outcome.lock_name = space->describe();
    return outcome;
  }};
}

void fold_outcome(CheckReport& report, const ScheduleOutcome& outcome) {
  ++report.schedules_run;
  report.mutex_violations += outcome.mutex_violations;
  report.livelock_violations += outcome.livelock_violations;
  report.stale_token_commits += outcome.stale_token_commits;
  report.total_cs_entries += outcome.cs_entries;
  if (outcome.run.deadlocked) ++report.deadlocks;
  if (outcome.run.step_limit_hit) ++report.step_limit_hits;
  if (outcome.max_distinct_keys_held >= 2) {
    ++report.cross_key_overlap_schedules;
  }
}

namespace {

/// Replay budget for shrinking one counterexample.
constexpr u64 kMaxShrinkReplays = 2000;

/// "rw:rma-rw" -> "rw_rma-rw" (safe as a filename component).
std::string sanitize_for_filename(const std::string& s) {
  std::string out = s.empty() ? "trace" : s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

/// Destination path for a failing schedule's trace file. Built lazily —
/// only when a failure is actually being recorded — so no campaign pays
/// for filename assembly on clean schedules. Topology size and policy keep
/// names unique when several campaigns of one workload (different
/// machines/policies) share a trace_dir; the schedule index is the
/// campaign-global one, so sequential and --jobs N campaigns produce the
/// same file name.
std::string failure_trace_path(const CheckConfig& config,
                               const std::string& lock_name,
                               const std::string& kind, u64 schedule_index) {
  std::ostringstream name;
  name << config.trace_dir << "/"
       << sanitize_for_filename(
              config.workload_id.empty() ? lock_name : config.workload_id)
       << "-P" << config.topology.nprocs() << "-"
       << policy_name(config.policy) << "-" << kind << "-s" << schedule_index
       << ".trace";
  return name.str();
}

}  // namespace

void capture_first_failure(
    CheckReport& report, const CheckConfig& config,
    const ScheduleOutcome& outcome, u64 schedule_index,
    const rma::SimOptions& opts,
    const std::function<ScheduleOutcome(const rma::SimOptions&)>& rerun) {
  if (report.has_first_failure || !outcome.failed()) return;
  FirstFailure failure;
  failure.kind = outcome.kind();
  failure.lock_name = outcome.lock_name;
  failure.base_seed = config.base_seed;
  failure.schedule_index = schedule_index;
  failure.world_seed = opts.seed;
  failure.trace = outcome.run.schedule;
  if (failure.trace.empty() && !opts.pick_hook) {
    // The failing run was not recorded (randomized campaigns skip recording
    // on the hot path): re-execute it deterministically with recording on.
    rma::SimOptions record_opts = opts;
    record_opts.record_schedule = true;
    failure.trace = rerun(record_opts).run.schedule;
  }
  failure.raw_trace_len = failure.trace.picks.size();

  if (!failure.trace.picks.empty()) {
    const bool want_mutex = outcome.mutex_violations > 0;
    const bool want_livelock =
        !want_mutex && outcome.livelock_violations > 0;
    const TraceOracle oracle = [&](const rma::ScheduleTrace& candidate) {
      const ScheduleOutcome replayed =
          rerun(replay_options(config, opts.seed, candidate));
      if (want_mutex) return replayed.mutex_violations > 0;
      if (want_livelock) return replayed.livelock_violations > 0;
      return replayed.run.deadlocked;
    };
    failure.trace =
        shrink_trace(failure.trace, oracle, kMaxShrinkReplays);
  }

  // Flight recorder: re-run the (shrunk) counterexample once with the event
  // tracer armed, so the repro line ships with each rank's last recorded
  // moments. The run is deterministic — replayed from the shrunk trace, or
  // re-seeded identically when no trace could be recorded — so the rings
  // show exactly the failing execution. One extra schedule per campaign, and
  // only on the first failure.
  obs::Tracer flight(config.topology.nprocs());
  {
    rma::SimOptions flight_opts =
        failure.trace.picks.empty()
            ? opts
            : replay_options(config, opts.seed, failure.trace);
    flight_opts.tracer = &flight;
    rerun(flight_opts);
  }
  failure.post_mortem = obs::render_post_mortem(flight);

  if (!config.trace_dir.empty()) {
    TraceCase repro;
    repro.workload = config.workload_id;
    repro.lock_name = failure.lock_name;
    repro.kind = failure.kind;
    repro.topology = config.topology;
    repro.recorded_policy = config.policy;
    repro.world_seed = failure.world_seed;
    repro.acquires_per_proc = config.acquires_per_proc;
    repro.writer_fraction = config.writer_fraction;
    repro.writer_roles = config.writer_roles;
    repro.max_steps = config.max_steps;
    repro.knobs() = config.knobs();
    repro.trace = failure.trace;
    const std::string name = failure_trace_path(config, failure.lock_name,
                                                failure.kind, schedule_index);
    std::string error;
    if (write_trace_file(name, repro, &error)) {
      failure.trace_path = name;
    }
    // On I/O failure the report still carries the in-memory trace.
  }

  // Flight-recorder artifacts land next to the counterexample trace so any
  // harness that collects trace_dir (e.g. the extended-mc workflow) picks
  // them up automatically: the human-readable post-mortem and a Chrome
  // trace-event JSON of the failing run (loadable in Perfetto).
  if (!failure.trace_path.empty()) {
    const std::string pm_path = failure.trace_path + ".postmortem.txt";
    if (std::FILE* f = std::fopen(pm_path.c_str(), "wb")) {
      const bool ok = std::fwrite(failure.post_mortem.data(), 1,
                                  failure.post_mortem.size(),
                                  f) == failure.post_mortem.size();
      if (std::fclose(f) == 0 && ok) failure.post_mortem_path = pm_path;
    }
    const std::string json_path = failure.trace_path + ".trace.json";
    if (obs::write_chrome_trace(flight, json_path)) {
      failure.flight_trace_path = json_path;
    }
  }

  report.has_first_failure = true;
  report.first_failure = std::move(failure);
}

// Every schedule runs on the TaskPool into its own per-index slot, at every
// jobs value: schedule i's options depend only on (config, i), and folding /
// first-failure capture (including ddmin shrinking and trace-file writing)
// happens afterwards on the calling thread, in index order — so the
// reported first failure is the smallest failing schedule index no matter
// which worker finished first, and --jobs N matches --jobs 1 byte for byte.
CheckReport check(const CheckConfig& config, const Workload& workload) {
  CheckReport report;
  // The schedule-invariant option parts (topology copy, latency model,
  // PCT horizon) are built once, outside the hot schedule loop; per
  // schedule only the world seed changes.
  rma::SimOptions opts = schedule_options(config, 0);
  const auto rerun = [&](const rma::SimOptions& run_opts) {
    return workload.run(config, run_opts);
  };
  std::vector<ScheduleOutcome> slots(static_cast<usize>(config.schedules));
  harness::TaskPool pool(config.jobs);
  pool.run(config.schedules, [&](u64 schedule) {
    rma::SimOptions task_opts = opts;  // private copy per task
    task_opts.seed = mix_seed(config.base_seed, schedule);
    slots[static_cast<usize>(schedule)] = rerun(task_opts);
  });
  for (u64 schedule = 0; schedule < config.schedules; ++schedule) {
    opts.seed = mix_seed(config.base_seed, schedule);
    fold_outcome(report, slots[static_cast<usize>(schedule)]);
    capture_first_failure(report, config, slots[static_cast<usize>(schedule)],
                          schedule, opts, rerun);
  }
  return report;
}

std::vector<u64> pick_cross_slot_keys(const LockSpaceFactory& factory,
                                      const topo::Topology& topology,
                                      i32 k) {
  // Scratch world: the directory only needs the topology, never runs.
  rma::SimOptions opts;
  opts.topology = topology;
  opts.latency = rma::LatencyModel::zero(topology.num_levels());
  const auto world = rma::SimWorld::create(opts);
  return factory(*world)->distinct_slot_keys(k);
}

}  // namespace rmalock::mc
