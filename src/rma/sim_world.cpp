#include "rma/sim_world.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "rma/stack_pool.hpp"

namespace rmalock::rma {

namespace {
/// World whose fibers run on this thread (run() is not reentrant).
thread_local SimWorld* t_fiber_world = nullptr;

/// RMALOCK_TRACE is immutable for the process lifetime: read it once
/// instead of per SimWorld construction (sweeps build thousands of worlds).
bool trace_env_enabled() {
  static const bool enabled = std::getenv("RMALOCK_TRACE") != nullptr;
  return enabled;
}

/// The candidates of the current pick_hook call, refilled per decision so
/// the explorer's decisions do not allocate. One buffer per thread rather
/// than a SimWorld member: a hook cannot start another run on its thread,
/// and sizeof(SimWorld) (1000) must stay within the largest request glibc
/// serves from its per-thread cache (1032, pinned by
/// SimWorldLayout.FitsGlibcThreadCache); past it each P = 4 explored world
/// paid about 0.4 us of allocation. A 24-byte vector member would spend
/// most of the 32 bytes left.
std::vector<Rank>& hook_candidates() {
  thread_local std::vector<Rank> candidates;
  return candidates;
}
}  // namespace

// ---------------------------------------------------------------------------
// SimComm: the per-process face of the engine. All calls forward to the
// engine with the caller's rank; the calling fiber is the running process.
// ---------------------------------------------------------------------------
class SimComm final : public RmaComm {
 public:
  SimComm(SimWorld& world, Rank rank) : world_(world), rank_(rank) {}

  [[nodiscard]] Rank rank() const override { return rank_; }
  [[nodiscard]] i32 nprocs() const override { return world_.nprocs(); }
  [[nodiscard]] const topo::Topology& topology() const override {
    return world_.topology();
  }

  void put(i64 src_data, Rank target, WinOffset offset) override {
    world_.execute_op(rank_, OpKind::kPut, target, offset, src_data, 0,
                      AccumOp::kReplace);
  }
  void iput(i64 src_data, Rank target, WinOffset offset) override {
    world_.execute_op(rank_, OpKind::kPut, target, offset, src_data, 0,
                      AccumOp::kReplace, IssueMode::kNonblocking);
  }
  void iaccumulate(i64 oprd, Rank target, WinOffset offset,
                   AccumOp op) override {
    world_.execute_op(rank_, OpKind::kAccumulate, target, offset, oprd, 0, op,
                      IssueMode::kNonblocking);
  }
  i64 iget(Rank target, WinOffset offset) override {
    return world_.execute_op(rank_, OpKind::kGet, target, offset, 0, 0,
                             AccumOp::kSum, IssueMode::kNonblocking);
  }
  i64 get(Rank target, WinOffset offset) override {
    return world_.execute_op(rank_, OpKind::kGet, target, offset, 0, 0,
                             AccumOp::kSum);
  }
  void accumulate(i64 oprd, Rank target, WinOffset offset,
                  AccumOp op) override {
    world_.execute_op(rank_, OpKind::kAccumulate, target, offset, oprd, 0, op);
  }
  i64 fao(i64 oprd, Rank target, WinOffset offset, AccumOp op) override {
    return world_.execute_op(rank_, OpKind::kFao, target, offset, oprd, 0, op);
  }
  i64 cas(i64 src_data, i64 cmp_data, Rank target, WinOffset offset) override {
    return world_.execute_op(rank_, OpKind::kCas, target, offset, src_data,
                             cmp_data, AccumOp::kReplace);
  }
  void get_vec(Rank target, WinOffset offset, i64* out, usize n) override {
    world_.execute_get_vec(rank_, target, offset, out, n);
  }
  TryResult try_get(Rank target, WinOffset offset,
                    Nanos deadline_ns) override {
    return world_.execute_try_op(rank_, OpKind::kGet, target, offset, 0, 0,
                                 AccumOp::kSum, deadline_ns);
  }
  TryResult try_cas(i64 src_data, i64 cmp_data, Rank target, WinOffset offset,
                    Nanos deadline_ns) override {
    return world_.execute_try_op(rank_, OpKind::kCas, target, offset, src_data,
                                 cmp_data, AccumOp::kReplace, deadline_ns);
  }
  void flush(Rank target) override { world_.execute_flush(rank_, target); }

  void crash_point() override { world_.execute_crash_point(rank_); }
  [[nodiscard]] bool suspected(Rank target) override {
    return world_.proc_suspected(rank_, target);
  }

  void compute(Nanos ns) override { world_.execute_compute(rank_, ns); }
  [[nodiscard]] Nanos now_ns() override { return world_.proc_clock(rank_); }
  [[nodiscard]] Nanos local_now_ns() override {
    return world_.local_now(rank_);
  }
  void barrier() override { world_.execute_barrier(rank_); }
  [[nodiscard]] Xoshiro256& rng() override { return world_.proc_rng(rank_); }
  [[nodiscard]] OpStats& stats() override { return world_.proc_stats(rank_); }
  [[nodiscard]] obs::Tracer* tracer() override { return world_.tracer_; }

 private:
  SimWorld& world_;
  Rank rank_;
};

// ---------------------------------------------------------------------------
// Construction / window management
// ---------------------------------------------------------------------------

SimWorld::SimWorld(SimOptions opts)
    : World(opts.topology), opts_(std::move(opts)) {
  // Tracer resolution: an external sink wins; otherwise RMALOCK_TRACE arms
  // an internal one that mirrors the structured events to stderr in the
  // legacy text format (same schema either way).
  tracer_ = opts_.tracer;
  if (tracer_ == nullptr && trace_env_enabled()) {
    owned_tracer_ = std::make_unique<obs::Tracer>(nprocs());
    owned_tracer_->set_echo_stderr(true);
    tracer_ = owned_tracer_.get();
  }
  if (opts_.latency.rma_ns.empty()) {
    opts_.latency = LatencyModel::xc30(topology_.num_levels());
  }
  RMALOCK_CHECK_MSG(
      opts_.latency.num_distance_classes() >= topology_.num_levels(),
      "latency model covers " << opts_.latency.num_distance_classes()
                              << " distance classes but topology has "
                              << topology_.num_levels() << " levels");
  const i32 p = nprocs();
  const i32 levels = topology_.num_levels();
  // Distance keys (see dclass_by_width_): a level whose elements have
  // `fanout` children in their parent needs bit_width(fanout - 1) key bits.
  // Fields are laid out from the leaf level up.
  const auto fanout = [this](i32 level) {
    return topology_.fanouts()[static_cast<usize>(level - 2)];
  };
  std::vector<i32> bits(static_cast<usize>(levels) + 1, 0);
  i32 width = 0;
  for (i32 level = levels; level > 1; --level) {
    const i32 field = std::bit_width(static_cast<u32>(fanout(level) - 1));
    RMALOCK_CHECK_MSG(width + field <= 64,
                      "distance keys exceed 64 bits at level " << level);
    bits[static_cast<usize>(level)] = field;
    for (i32 w = width + 1; w <= width + field; ++w) {
      dclass_by_width_[static_cast<usize>(w)] =
          static_cast<u8>(levels - level + 2);
    }
    width += field;
  }
  dclass_by_width_[0] = 1;
  procs_.reserve(static_cast<usize>(p));
  dkeys_.reserve(static_cast<usize>(p));
  for (Rank r = 0; r < p; ++r) {
    procs_.push_back(
        std::make_unique<Proc>(mix_seed(opts_.seed, static_cast<u64>(r))));
    procs_.back()->stats = OpStats(levels);
    u64 key = 0;
    for (i32 level = 2; level <= levels; ++level) {
      const i32 index = topology_.element_of(r, level) % fanout(level);
      key = key << bits[static_cast<usize>(level)] | static_cast<u64>(index);
    }
    dkeys_.push_back(key);
  }
  nic_free_.assign(static_cast<usize>(p), 0);
  partition_until_.assign(static_cast<usize>(p), 0);
}

SimWorld::~SimWorld() {
  // Stacks outlive the world in the thread-local pool: sweeps and MC
  // campaigns that build a world per point reuse them (see stack_pool.hpp).
  for (auto& proc : procs_) {
    StackPool::local().release(std::move(proc->stack));
  }
}

void SimWorld::grow_windows(WinOffset /*first*/, i64 init) {
  RMALOCK_CHECK_MSG(!running_, "allocate() while run() in flight");
  // Offset-major cells: the new words are appended rows, so every earlier
  // word and waiter head keeps its index, and the appended rows are
  // exactly the words from `first` on (reserve() adds capacity, not rows).
  const usize cells = window_words() * static_cast<usize>(nprocs());
  windows_.resize(cells, init);
  waiter_heads_.resize(cells, -1);
}

void SimWorld::reserve(usize words) {
  RMALOCK_CHECK_MSG(!running_, "reserve() while run() in flight");
  const usize cells = words * static_cast<usize>(nprocs());
  windows_.reserve(cells);
  waiter_heads_.reserve(cells);
}

usize SimWorld::checked_cell(Rank rank, WinOffset offset) const {
  RMALOCK_CHECK_MSG(rank >= 0 && rank < nprocs() && offset >= 0 &&
                        static_cast<usize>(offset) < window_words(),
                    "window word (rank " << rank << ", offset " << offset
                                         << ") outside " << nprocs()
                                         << " ranks x " << window_words()
                                         << " words");
  return cell(rank, offset);
}

i64 SimWorld::read_word(Rank rank, WinOffset offset) const {
  RMALOCK_CHECK(!running_);
  return windows_[checked_cell(rank, offset)];
}

void SimWorld::write_word(Rank rank, WinOffset offset, i64 value) {
  RMALOCK_CHECK(!running_);
  windows_[checked_cell(rank, offset)] = value;
}

OpStats SimWorld::aggregate_stats() const {
  OpStats agg(topology_.num_levels());
  for (const auto& proc : procs_) agg += proc->stats;
  return agg;
}

void SimWorld::reset_stats() {
  for (auto& proc : procs_) proc->stats.reset();
}

// ---------------------------------------------------------------------------
// Run orchestration
// ---------------------------------------------------------------------------

RunResult SimWorld::run(const std::function<void(RmaComm&)>& body) {
  RMALOCK_CHECK_MSG(!running_, "nested run()");
  RMALOCK_CHECK_MSG(t_fiber_world == nullptr,
                    "another SimWorld is running on this thread");
  running_ = true;
  stopping_ = false;
  result_ = RunResult{};
  steps_ = 0;
  window_writes_ = 0;
  writes_at_last_stall_ = 0;
  stall_rounds_ = 0;
  barrier_ranks_.clear();
  const i32 p = nprocs();
  unfinished_ = p;
  ready_heap_.clear();
  ready_list_.clear();
  replay_pos_ = 0;
  sched_rng_ = Xoshiro256(mix_seed(opts_.seed, 0xface5eedULL));
  std::fill(nic_free_.begin(), nic_free_.end(), 0);
  std::fill(partition_until_.begin(), partition_until_.end(), 0);
  body_ = &body;

  if (opts_.policy == SchedPolicy::kPct) {
    // Distinct random priorities; change points sampled over the step budget.
    pct_next_priority_low_ = 1u << 20;
    std::vector<u32> prio(static_cast<usize>(p));
    for (i32 r = 0; r < p; ++r) {
      prio[static_cast<usize>(r)] = pct_next_priority_low_ + static_cast<u32>(r);
    }
    for (i32 r = p - 1; r > 0; --r) {
      const auto j =
          static_cast<usize>(sched_rng_.below(static_cast<u64>(r) + 1));
      std::swap(prio[static_cast<usize>(r)], prio[j]);
    }
    const u64 horizon =
        opts_.pct_horizon > 0
            ? opts_.pct_horizon
            : (opts_.max_steps > 0 ? opts_.max_steps : 1'000'000);
    pct_change_steps_.clear();
    for (i32 k = 0; k < opts_.pct_change_points; ++k) {
      pct_change_steps_.push_back(1 + sched_rng_.below(horizon));
    }
    std::sort(pct_change_steps_.begin(), pct_change_steps_.end());
    pct_next_change_ = 0;
    for (i32 r = 0; r < p; ++r) {
      procs_[static_cast<usize>(r)]->pct_priority = prio[static_cast<usize>(r)];
    }
  }

  for (Rank r = 0; r < p; ++r) {
    Proc& proc = *procs_[static_cast<usize>(r)];
    proc.clock = 0;
    proc.state = ProcState::kRunnable;
    proc.wait_cells.clear();
    proc.pending_acks.clear();
    proc.num_polls = 0;
    proc.crashed = false;
    proc.incarnation = 0;
    proc.drift_anchor_wall = 0;
    proc.drift_anchor_local = 0;
    proc.drift_rate_permille = 0;
    proc.drift_skew = 0;
    proc.drift_events = 0;
    proc.rng = Xoshiro256(mix_seed(opts_.seed, static_cast<u64>(r)));
    if (!proc.stack) proc.stack = StackPool::local().acquire();
    proc.fiber.init(proc.stack.top() - StackPool::kStackBytes,
                    StackPool::kStackBytes, &fiber_entry);
    if (opts_.policy == SchedPolicy::kVirtualTime) {
      ready_heap_.push({proc.clock, r});
    } else {
      ready_list_.push_back(r);
    }
  }
  std::fill(waiter_heads_.begin(), waiter_heads_.end(), -1);
  waiter_nodes_.clear();
  waiter_free_ = -1;

  t_fiber_world = this;
  const Rank first = pick_next();
  RMALOCK_CHECK(first != kNilRank);
  switch_to_proc(main_fiber_, first);
  // Control returns here once every process has finished.
  t_fiber_world = nullptr;
  body_ = nullptr;

  result_.steps = steps_;
  result_.makespan_ns = 0;
  for (const auto& proc : procs_) {
    result_.makespan_ns = std::max(result_.makespan_ns, proc->clock);
  }
  for (Rank r = 0; r < p; ++r) {
    if (procs_[static_cast<usize>(r)]->crashed) {
      result_.crashed_ranks.push_back(r);
    }
  }
  running_ = false;
  return result_;
}

void SimWorld::switch_to_proc(Fiber& from, Rank next) {
  entering_rank_ = next;
  Fiber::switch_to(from, procs_[static_cast<usize>(next)]->fiber);
}

void SimWorld::fiber_entry() {
  Fiber::on_entry();
  SimWorld* world = t_fiber_world;
  world->fiber_body(world->entering_rank_);
}

void SimWorld::fiber_body(Rank rank) {
  SimComm comm(*this, rank);
  while (!stopping_) {
    bool crashed = false;
    try {
      (*body_)(comm);
    } catch (const StopRun&) {
      // Run is being torn down (deadlock / step limit); unwind quietly.
    } catch (const ProcCrashed&) {
      crashed = true;
    } catch (...) {
      RMALOCK_CHECK_MSG(false,
                        "exception escaped a SimWorld process body (rank "
                            << rank << ")");
    }
    if (!crashed || !opts_.restart_crashed || stopping_) break;
    // Restart: stay visibly dead (crashed == true) until the scheduler
    // next picks this rank, so the downtime window is an ordinary
    // scheduling decision. Then reboot and re-run the body from the top.
    Proc& self = *procs_[static_cast<usize>(rank)];
    try {
      yield_cpu(rank);
    } catch (const StopRun&) {
      break;
    }
    self.crashed = false;
    ++self.incarnation;
  }
  finish_proc(rank);
}

void SimWorld::finish_proc(Rank rank) {
  Proc& self = *procs_[static_cast<usize>(rank)];
  self.state = ProcState::kFinished;
  --unfinished_;
  if (unfinished_ == 0) {
    // Last process out: resume the main context (run() continues there).
    Fiber::switch_to(self.fiber, main_fiber_);
  } else {
    // Our exit may satisfy a barrier the remaining processes wait in.
    release_barrier_if_complete();
    switch_to_proc(self.fiber, pick_or_force_wake());
  }
  RMALOCK_CHECK_MSG(false, "finished fiber resumed");
  std::abort();  // unreachable; satisfies [[noreturn]]
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

Rank SimWorld::pick_next() {
  if (opts_.policy == SchedPolicy::kVirtualTime) {
    if (ready_heap_.empty()) return kNilRank;
    return start_running(ready_heap_.pop().rank);
  }
  if (ready_list_.empty()) return kNilRank;
  usize idx = 0;
  if (opts_.policy == SchedPolicy::kRandom) {
    idx = static_cast<usize>(sched_rng_.below(ready_list_.size()));
  } else if (opts_.policy == SchedPolicy::kPct) {  // highest priority runnable
    for (usize i = 1; i < ready_list_.size(); ++i) {
      if (procs_[static_cast<usize>(ready_list_[i])]->pct_priority >
          procs_[static_cast<usize>(ready_list_[idx])]->pct_priority) {
        idx = i;
      }
    }
  } else {  // kReplay
    idx = replay_pick_index();
  }
  const Rank rank = ready_list_[idx];
  if (opts_.record_schedule) result_.schedule.picks.push_back(rank);
  ready_list_[idx] = ready_list_.back();
  ready_list_.pop_back();
  return start_running(rank);
}

Rank SimWorld::start_running(Rank rank) {
  Proc& proc = *procs_[static_cast<usize>(rank)];
  RMALOCK_DCHECK(proc.state == ProcState::kRunnable);
  proc.state = ProcState::kRunning;
  return rank;
}

usize SimWorld::replay_pick_index() {
  usize fallback = 0;
  for (usize i = 1; i < ready_list_.size(); ++i) {
    if (ready_list_[i] < ready_list_[fallback]) fallback = i;
  }
  Rank desired;
  if (opts_.replay != nullptr && replay_pos_ < opts_.replay->picks.size()) {
    desired = opts_.replay->picks[replay_pos_++];
  } else if (opts_.pick_hook) {
    std::vector<Rank>& candidates = hook_candidates();
    candidates.assign(ready_list_.begin(), ready_list_.end());
    std::sort(candidates.begin(), candidates.end());
    desired = opts_.pick_hook(candidates);
  } else {
    return fallback;
  }
  for (usize i = 0; i < ready_list_.size(); ++i) {
    if (ready_list_[i] == desired) return i;
  }
  // Rank not runnable here (shrunk/edited trace, or a misbehaving hook):
  // fall back deterministically so the replay still completes.
  ++result_.replay_divergences;
  return fallback;
}

void SimWorld::make_runnable(Proc& proc, Rank rank) {
  if (proc.state == ProcState::kRunnable ||
      proc.state == ProcState::kRunning ||
      proc.state == ProcState::kFinished) {
    return;
  }
  proc.state = ProcState::kRunnable;
  if (opts_.policy == SchedPolicy::kVirtualTime) {
    ready_heap_.push({proc.clock, rank});
  } else {
    ready_list_.push_back(rank);
  }
}

void SimWorld::yield_cpu(Rank origin) {
  Proc& self = *procs_[static_cast<usize>(origin)];
  Rank next = kNilRank;
  if (opts_.policy == SchedPolicy::kVirtualTime) {
    // Keep running while still ahead of (or tied with, by rank) every
    // runnable process. Otherwise the minimum runs next and we take its
    // place in the heap, in one sift-down.
    const ReadyHeap::Entry self_entry{self.clock, origin};
    if (ready_heap_.empty() ||
        !ReadyHeap::before(ready_heap_.top(), self_entry)) {
      return;
    }
    self.state = ProcState::kRunnable;
    next = start_running(ready_heap_.replace_top(self_entry).rank);
  } else {
    ready_list_.push_back(origin);
    self.state = ProcState::kRunnable;
    next = pick_next();
    RMALOCK_DCHECK(next != kNilRank);  // at least `origin` is schedulable
    if (next == origin) return;        // picked ourselves: keep running
  }
  switch_to_proc(self.fiber, next);
  check_stop(origin);
}

void SimWorld::hand_off_from_blocked(Rank origin) {
  const Rank next = pick_or_force_wake();
  if (next == origin) return;  // force-woken (or barrier-released) already
  switch_to_proc(procs_[static_cast<usize>(origin)]->fiber, next);
}

Rank SimWorld::pick_or_force_wake() {
  Rank next = pick_next();
  if (next == kNilRank) {
    handle_no_runnable();
    next = pick_next();
  }
  RMALOCK_CHECK_MSG(next != kNilRank,
                    "engine invariant: no schedulable process");
  return next;
}

bool SimWorld::wake_parked(bool by_write, Nanos at) {
  bool woke_any = false;
  for (Rank r = 0; r < nprocs(); ++r) {
    Proc& proc = *procs_[static_cast<usize>(r)];
    if (proc.state != ProcState::kParked) continue;
    proc.clock = std::max(proc.clock, at);
    proc.woken_by_write = by_write;
    make_runnable(proc, r);
    woke_any = true;
  }
  return woke_any;
}

void SimWorld::handle_no_runnable() {
  release_barrier_if_complete();
  if (opts_.policy == SchedPolicy::kVirtualTime ? !ready_heap_.empty()
                                                : !ready_list_.empty()) {
    return;
  }
  // Every unfinished process is parked (or stuck in an incomplete barrier).
  if (stall_rounds_ > 0 && window_writes_ == writes_at_last_stall_) {
    ++stall_rounds_;
  } else {
    stall_rounds_ = 1;
  }
  writes_at_last_stall_ = window_writes_;
  if (stall_rounds_ >= 4) {
    // Several force-wake rounds produced no window write: nobody can ever
    // unblock anybody. Genuine deadlock.
    begin_stop(/*deadlock=*/true, /*step_limit=*/false);
    return;
  }
  // Once a crash has happened, force-wakes return the pending Get to the
  // caller (the failure-detector timeout firing): a proc that parked
  // polling a dead owner's cell must re-evaluate suspicion in its own loop,
  // which no window write will ever trigger. Without crashes the plain
  // force-wake (re-poll, re-park) is kept so stall detection stays cheap
  // and decision sequences stay bit-compatible.
  if (!wake_parked(/*by_write=*/result_.crashes > 0, /*at=*/0)) {
    // Only barrier waiters remain and the barrier cannot complete.
    begin_stop(/*deadlock=*/true, /*step_limit=*/false);
  }
}

void SimWorld::begin_stop(bool deadlock, bool step_limit) {
  if (stopping_) return;
  stopping_ = true;
  result_.deadlocked = deadlock;
  result_.step_limit_hit = step_limit;
  if (deadlock && opts_.abort_on_deadlock) {
    // One line per unfinished rank: its state and the cells it waits on.
    std::ostringstream blocked;
    for (Rank r = 0; r < nprocs(); ++r) {
      const Proc& proc = *procs_[static_cast<usize>(r)];
      if (proc.state == ProcState::kFinished) continue;
      blocked << "\n  rank " << r << " state=" << static_cast<int>(proc.state)
              << " clock=" << proc.clock << " waits:";
      for (const auto& [t, o] : proc.wait_cells) {
        blocked << " (" << t << ',' << o << ")=" << windows_[cell(t, o)];
      }
    }
    RMALOCK_CHECK_MSG(false, "SimWorld deadlock: all "
                                 << unfinished_
                                 << " unfinished processes are blocked and no "
                                    "window write can ever occur (steps="
                                 << steps_ << ")" << blocked.str());
  }
  for (Rank r = 0; r < nprocs(); ++r) {
    Proc& proc = *procs_[static_cast<usize>(r)];
    if (proc.state == ProcState::kParked ||
        proc.state == ProcState::kInBarrier) {
      make_runnable(proc, r);
    }
  }
  barrier_ranks_.clear();
}

void SimWorld::check_stop(Rank /*origin*/) {
  if (stopping_) throw StopRun{};
}

void SimWorld::bump_step(Rank origin) {
  ++steps_;
  if (opts_.max_steps != 0 && steps_ > opts_.max_steps && !stopping_) {
    begin_stop(/*deadlock=*/false, /*step_limit=*/true);
    throw StopRun{};
  }
  if (opts_.policy == SchedPolicy::kPct &&
      pct_next_change_ < pct_change_steps_.size() &&
      steps_ >= pct_change_steps_[pct_next_change_]) {
    ++pct_next_change_;
    procs_[static_cast<usize>(origin)]->pct_priority = --pct_next_priority_low_;
  }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void SimWorld::release_barrier_if_complete() {
  const auto arrived = static_cast<i32>(barrier_ranks_.size());
  if (arrived == 0 || arrived < unfinished_) return;
  Nanos max_clock = 0;
  for (const Rank r : barrier_ranks_) {
    max_clock = std::max(max_clock, procs_[static_cast<usize>(r)]->clock);
  }
  for (const Rank r : barrier_ranks_) {
    Proc& proc = *procs_[static_cast<usize>(r)];
    proc.clock = max_clock;
    make_runnable(proc, r);
  }
  barrier_ranks_.clear();
}

void SimWorld::execute_barrier(Rank origin) {
  check_stop(origin);
  bump_step(origin);
  Proc& self = *procs_[static_cast<usize>(origin)];
  clear_polls(self);
  barrier_ranks_.push_back(origin);
  if (static_cast<i32>(barrier_ranks_.size()) >= unfinished_) {
    // Last arrival: synchronize clocks and release everyone (make_runnable
    // skips us, the running caller); we keep the cpu and yield normally.
    release_barrier_if_complete();
    yield_cpu(origin);
    return;
  }
  self.state = ProcState::kInBarrier;
  hand_off_from_blocked(origin);
  check_stop(origin);
}

// ---------------------------------------------------------------------------
// RMA operations
// ---------------------------------------------------------------------------

i64 SimWorld::apply_to_window(OpKind kind, Rank target, WinOffset offset,
                              i64 operand, i64 cmp, AccumOp aop,
                              Nanos completion) {
  i64& word = windows_[cell(target, offset)];
  const i64 old = word;
  switch (kind) {
    case OpKind::kGet:
      return old;
    case OpKind::kPut:
      word = operand;
      break;
    case OpKind::kAccumulate:
    case OpKind::kFao:
      word = (aop == AccumOp::kSum) ? old + operand : operand;
      break;
    case OpKind::kCas:
      if (old != cmp) return old;
      word = operand;
      break;
    default:
      RMALOCK_CHECK_MSG(false, "bad op kind");
  }
  ++window_writes_;
  wake_waiters(target, offset, completion);
  return old;
}

void SimWorld::register_waiter(Rank target, WinOffset offset, Rank waiter) {
  i32& head = waiter_heads_[cell(target, offset)];
  i32 node;
  if (waiter_free_ != -1) {
    node = waiter_free_;
    waiter_free_ = waiter_nodes_[static_cast<usize>(node)].next;
  } else {
    node = static_cast<i32>(waiter_nodes_.size());
    waiter_nodes_.emplace_back();
  }
  waiter_nodes_[static_cast<usize>(node)] = WaiterNode{waiter, head};
  head = node;
}

void SimWorld::remove_waiter(Rank target, WinOffset offset, Rank waiter) {
  i32* link = &waiter_heads_[cell(target, offset)];
  while (*link != -1) {
    WaiterNode& node = waiter_nodes_[static_cast<usize>(*link)];
    if (node.rank == waiter) {
      const i32 freed = *link;
      *link = node.next;
      node.next = waiter_free_;
      waiter_free_ = freed;
      return;
    }
    link = &node.next;
  }
}

void SimWorld::trace_event_slow(Rank origin, obs::EventCode code, i64 a,
                                i64 b, i64 c) {
  // kDrift is an event *about* the local clock, so it is stamped with the
  // reading that clock just stepped to; everything else carries the
  // emitting process's virtual clock.
  const Nanos ts = code == obs::EventCode::kDrift
                       ? local_now(origin)
                       : procs_[static_cast<usize>(origin)]->clock;
  tracer_->emit(origin, code, obs::Phase::kInstant, ts, a, b, c);
}

void SimWorld::wake_waiters(Rank target, WinOffset offset, Nanos write_time) {
  i32& first = waiter_heads_[cell(target, offset)];
  i32 head = first;
  if (head == -1) return;
  first = -1;
  while (head != -1) {
    const Rank r = waiter_nodes_[static_cast<usize>(head)].rank;
    const i32 next = waiter_nodes_[static_cast<usize>(head)].next;
    waiter_nodes_[static_cast<usize>(head)].next = waiter_free_;
    waiter_free_ = head;
    head = next;
    Proc& proc = *procs_[static_cast<usize>(r)];
    if (proc.state != ProcState::kParked) continue;  // stale entry
    // Only wake if the proc is still parked *on this cell* — its wait set
    // may have changed since this (now stale) registration was made.
    bool registered = false;
    for (const auto& [wr, wo] : proc.wait_cells) {
      if (wr == target && wo == offset) {
        registered = true;
        break;
      }
    }
    if (!registered) continue;
    proc.clock = std::max(proc.clock, write_time);
    proc.woken_by_write = true;
    trace_event(r, obs::EventCode::kWake, target, offset);
    make_runnable(proc, r);
  }
}

bool SimWorld::track_poll(Proc& proc, Rank target, WinOffset offset,
                          i64 value) {
  ++proc.poll_epoch;
  // Evict entries not polled recently: they belong to earlier code (e.g.,
  // a previous loop) and must neither block parking nor register waits.
  constexpr u64 kRecencyWindow = 8;
  for (i32 i = proc.num_polls - 1; i >= 0; --i) {
    if (proc.poll_epoch -
            proc.polls[static_cast<usize>(i)].last_touch >
        kRecencyWindow) {
      proc.polls[static_cast<usize>(i)] =
          proc.polls[static_cast<usize>(proc.num_polls - 1)];
      --proc.num_polls;
    }
  }
  PollEntry* current = nullptr;
  for (i32 i = 0; i < proc.num_polls; ++i) {
    PollEntry& entry = proc.polls[static_cast<usize>(i)];
    if (entry.target == target && entry.offset == offset) {
      current = &entry;
      break;
    }
  }
  if (current == nullptr) {
    if (proc.num_polls == static_cast<i32>(proc.polls.size())) {
      // Evict the least recently touched entry.
      usize oldest = 0;
      for (usize i = 1; i < proc.polls.size(); ++i) {
        if (proc.polls[i].last_touch < proc.polls[oldest].last_touch) {
          oldest = i;
        }
      }
      proc.polls[oldest] = proc.polls[static_cast<usize>(proc.num_polls - 1)];
      --proc.num_polls;
    }
    proc.polls[static_cast<usize>(proc.num_polls)] =
        PollEntry{target, offset, value, 1, proc.poll_epoch};
    ++proc.num_polls;
    return false;
  }
  current->last_touch = proc.poll_epoch;
  if (current->value != value) {
    current->value = value;
    current->repeats = 1;
    return false;
  }
  ++current->repeats;
  if (current->repeats < 3) return false;
  // Only park when *every* recently-polled cell has been re-confirmed
  // unchanged: the caller has then evaluated its loop condition against
  // the current value vector at least once and chose to keep spinning, so
  // blocking until one of the cells changes cannot lose a satisfied exit.
  // (Counterexample this prevents: a drain loop whose ARRIVE just changed
  // to the satisfying value while DEPART — polled right after — is on its
  // third identical read; parking inside the DEPART Get would starve the
  // caller of its own exit condition.)
  for (i32 i = 0; i < proc.num_polls; ++i) {
    if (proc.polls[static_cast<usize>(i)].repeats < 2) return false;
  }
  return true;
}

bool SimWorld::poll_snapshot_is_current(Proc& proc) {
  // A cell may have been written between the caller's last read of it and
  // this park decision (made inside a read of a *different* cell); parking
  // on such a stale snapshot can sleep through an already-satisfied loop
  // condition. Refresh stale entries and refuse to park.
  bool current = true;
  for (i32 i = 0; i < proc.num_polls; ++i) {
    PollEntry& entry = proc.polls[static_cast<usize>(i)];
    const i64 actual = windows_[cell(entry.target, entry.offset)];
    if (actual != entry.value) {
      // The caller has not *received* this value yet (the change landed
      // after its last read), so it counts for zero confirmations — the
      // caller must observe it twice before this cell can support a park.
      entry.value = actual;
      entry.repeats = 0;
      current = false;
    }
  }
  return current;
}

void SimWorld::unregister_waits(Proc& proc, Rank rank) {
  for (const auto& [target, offset] : proc.wait_cells) {
    remove_waiter(target, offset, rank);
  }
  proc.wait_cells.clear();
}

void SimWorld::park_until_cell_write(Rank origin) {
  Proc& self = *procs_[static_cast<usize>(origin)];
  RMALOCK_DCHECK(self.num_polls > 0);
  self.wait_cells.clear();
  for (i32 i = 0; i < self.num_polls; ++i) {
    const PollEntry& entry = self.polls[static_cast<usize>(i)];
    register_waiter(entry.target, entry.offset, origin);
    self.wait_cells.emplace_back(entry.target, entry.offset);
  }
  trace_event(origin, obs::EventCode::kPark, self.wait_cells[0].first,
              self.wait_cells[0].second,
              static_cast<i64>(self.wait_cells.size()));
  self.state = ProcState::kParked;
  self.woken_by_write = false;
  hand_off_from_blocked(origin);
  unregister_waits(self, origin);
  if (self.woken_by_write) {
    // A write landed on one of the polled cells: restart poll tracking so
    // the re-issued read returns to the caller (its loop condition may now
    // be satisfied through *another* cell even if this one is unchanged).
    clear_polls(self);
  }
  check_stop(origin);
}

void SimWorld::note_pending_ack(Proc& proc, Rank target, Nanos ack_time) {
  for (auto& [rank, ack] : proc.pending_acks) {
    if (rank == target) {
      ack = std::max(ack, ack_time);
      return;
    }
  }
  proc.pending_acks.emplace_back(target, ack_time);
}

bool SimWorld::settle_pending_acks(Proc& proc, Rank target) {
  for (usize i = 0; i < proc.pending_acks.size(); ++i) {
    if (proc.pending_acks[i].first != target) continue;
    const bool jumped = proc.pending_acks[i].second > proc.clock;
    if (jumped) proc.clock = proc.pending_acks[i].second;
    proc.pending_acks[i] = proc.pending_acks.back();
    proc.pending_acks.pop_back();
    return jumped;
  }
  return false;
}

Nanos SimWorld::charge(Proc& self, OpKind kind, Rank target, i32 dclass,
                       Nanos cost, IssueMode mode) {
  if (dclass == 0) {
    // Self access: no pipelining win to model; both modes charge the op.
    self.clock += cost;
    return self.clock;
  }
  const Nanos occupancy = opts_.latency.occupancy(kind, dclass);
  const Nanos completion = book_nic(target, self.clock + cost / 2, occupancy);
  if (mode == IssueMode::kNonblocking) {
    // The request departs now; the origin's NIC stays busy for one
    // injection slot (that slot overlaps the wire time — it is what
    // serializes a burst of issues, not what delays each request).
    self.clock += occupancy;
    note_pending_ack(self, target, completion + (cost - cost / 2));
  } else {
    self.clock = completion + (cost - cost / 2);
  }
  return completion;
}

void SimWorld::execute_flush(Rank origin, Rank target) {
  check_stop(origin);
  Proc& self = *procs_[static_cast<usize>(origin)];
  RMALOCK_DCHECK(target >= 0 && target < nprocs());
  // Flush changes no shared state: charge its cost but skip the scheduling
  // point (halves engine steps for the flush-heavy listings). It is the
  // completion point of nonblocking ops: the origin catches up to
  // max(completion + return trip) of everything it issued at target.
  self.stats.record(OpKind::kFlush, dclass_of(origin, target));
  self.clock += opts_.latency.flush_ns;
  if (!self.pending_acks.empty() && settle_pending_acks(self, target) &&
      opts_.policy == SchedPolicy::kVirtualTime) {
    // The deferred round trip can jump the clock far ahead. Hand the cpu
    // back so procs still behind in virtual time book their NIC slots in
    // arrival order — without this the issuer races through the
    // (non-scheduling) flush and its *next* op is booked ahead of earlier
    // arrivals, which inverts the target's NIC queue and inflates queueing
    // delay under contention. List policies skip the yield: flush changes
    // no shared state (no interleaving is lost) and their decision
    // sequences must stay bit-compatible with recorded schedule traces.
    yield_cpu(origin);
  }
}

i64 SimWorld::execute_op(Rank origin, OpKind kind, Rank target,
                         WinOffset offset, i64 operand, i64 cmp, AccumOp aop,
                         IssueMode mode) {
  check_stop(origin);
  Proc& self = *procs_[static_cast<usize>(origin)];
  RMALOCK_DCHECK(target >= 0 && target < nprocs());
  RMALOCK_DCHECK(offset >= 0 && static_cast<usize>(offset) < window_words());
  const i32 dclass = dclass_of(origin, target);
  for (;;) {
    const Nanos cost = remote_op_faults(origin, target, kind, dclass);
    bump_step(origin);
    self.stats.record(kind, dclass);
    const Nanos completion = charge(self, kind, target, dclass, cost, mode);
    trace_event(origin, obs::EventCode::kRmaOp, static_cast<i64>(kind),
                target, dclass);
    const i64 result =
        apply_to_window(kind, target, offset, operand, cmp, aop, completion);
    if (kind == OpKind::kGet) {
      if (track_poll(self, target, offset, result) &&
          poll_snapshot_is_current(self)) {
        // Pure spin detected and the caller's view of every polled cell is
        // identical to the current window contents (so its loop condition
        // is false *right now*): sleep until one of the cells changes,
        // then re-issue the read (fresh cost, fresh value).
        park_until_cell_write(origin);
        continue;
      }
    } else {
      clear_polls(self);
    }
    yield_cpu(origin);
    return result;
  }
}

void SimWorld::execute_get_vec(Rank origin, Rank target, WinOffset offset,
                               i64* out, usize n) {
  check_stop(origin);
  if (n == 0) return;
  if (n == 1) {
    // A one-word vector is an ordinary get (same cost, same park behavior);
    // there is nothing to tear.
    out[0] = execute_op(origin, OpKind::kGet, target, offset, 0, 0,
                        AccumOp::kSum);
    return;
  }
  Proc& self = *procs_[static_cast<usize>(origin)];
  RMALOCK_DCHECK(target >= 0 && target < nprocs());
  RMALOCK_DCHECK(offset >= 0 &&
                 static_cast<usize>(offset) + n <= window_words());
  const i32 dclass = dclass_of(origin, target);

  const Nanos cost = remote_op_faults(origin, target, OpKind::kGet, dclass);

  usize split = 0;
  if (budget_left(opts_.max_tears, result_.tears)) {
    // Armed: the tear/no-tear choice is an explorable decision like a crash
    // point. The reserved tear-pick span bounds the payload size so tear
    // picks can never collide with the gray-failure picks below them.
    RMALOCK_CHECK_MSG(n - 1 <= static_cast<usize>(kTearPickSpan),
                      "get_vec of " << n << " words exceeds the tear-pick "
                      "span (" << kTearPickSpan << ") with tears armed");
    bump_step(origin);
    // Candidates ascending: a tear after n-1 words first, after 1 word last.
    std::array<Rank, kTearPickSpan> tears{};
    for (usize i = 0; i + 1 < n; ++i) {
      tears[i] = fault_pick(FaultKind::kTear, static_cast<i32>(n - 1 - i));
    }
    const Rank pick = decide_fault(origin, opts_.tear_chance_permille,
                                   {tears.data(), n - 1}, /*draw_sole=*/true);
    if (pick != origin) {
      split = static_cast<usize>(fault_pick(FaultKind::kTear, 0) - pick);
    }
  }

  bump_step(origin);
  self.stats.record(OpKind::kGet, dclass);
  // One blocking-get round trip for the whole vector: the payload words ride
  // one request, so latency is round-trip dominated like a single get. The
  // tear (if any) is a scheduling point, not an extra cost point.
  charge(self, OpKind::kGet, target, dclass, cost, IssueMode::kBlocking);

  // A vectored read is not a spin primitive (validated-read protocols retry
  // a bounded number of times, then fall back to a lock), so it never parks.
  clear_polls(self);
  // Consecutive words of one rank are P cells apart in the arena.
  const usize prefix = split == 0 ? n : split;
  const usize stride = static_cast<usize>(nprocs());
  const usize first = cell(target, offset);
  for (usize i = 0; i < prefix; ++i) out[i] = windows_[first + i * stride];
  if (split != 0) {
    ++result_.tears;
    trace_event(origin, obs::EventCode::kTear, target,
                static_cast<i64>(split), static_cast<i64>(n));
    // The torn window: hand the cpu back so concurrent writers can run
    // between the two halves, then read the suffix from the (possibly
    // updated) window.
    yield_cpu(origin);
    for (usize i = split; i < n; ++i) out[i] = windows_[first + i * stride];
  }
  yield_cpu(origin);
}

Rank SimWorld::decide_fault(Rank origin, u32 chance_permille,
                            std::span<const Rank> faults, bool draw_sole) {
  const auto offered = [&faults](Rank pick) {
    return std::find(faults.begin(), faults.end(), pick) != faults.end();
  };
  Rank pick = origin;
  if (opts_.replay != nullptr && replay_pos_ < opts_.replay->picks.size()) {
    // Honored under every policy: virtual-time campaigns record ONLY fault
    // picks (their schedule is deterministic), so their traces replay
    // under kVirtualTime with the picks consumed right here.
    const Rank recorded = opts_.replay->picks[replay_pos_++];
    if (offered(recorded)) {
      pick = recorded;
    } else if (recorded != origin) {
      // A pick naming neither outcome (shrunk/edited trace) falls back to
      // no fault, counted like any other divergence.
      ++result_.replay_divergences;
    }
  } else if (opts_.pick_hook) {
    // Candidates ascending like every hook call, the caller's own rank (no
    // fault) last: every injected fault costs the explorer one preemption,
    // so fault-free schedules are explored first. Consulted under any
    // policy: the exhaustive explorer may keep kVirtualTime scheduling and
    // drive only the fault decisions.
    std::vector<Rank>& candidates = hook_candidates();
    candidates.assign(faults.begin(), faults.end());
    candidates.push_back(origin);
    const Rank chosen = opts_.pick_hook(candidates);
    if (offered(chosen)) pick = chosen;
  } else if (opts_.replay == nullptr &&
             opts_.policy != SchedPolicy::kReplay &&
             sched_rng_.below(1000) < chance_permille) {
    // A replay never draws: past its trace it takes no fault, like the
    // smallest-rank fallback of its scheduling decisions.
    usize index = faults.size() - 1;
    if (faults.size() > 1 || draw_sole) {
      index -= static_cast<usize>(sched_rng_.below(faults.size()));
    }
    pick = faults[index];
  }
  if (opts_.record_schedule) result_.schedule.picks.push_back(pick);
  return pick;
}

Nanos SimWorld::remote_op_faults(Rank origin, Rank target, OpKind kind,
                                 i32 dclass) {
  Nanos cost = opts_.latency.op_cost(kind, dclass);
  if (dclass == 0) return cost;
  // Each armed class is one explorable decision (and one engine step)
  // before the op. Unarmed or spent budgets make no decision and record no
  // pick, keeping traces from before the class existed bit-compatible.
  if (budget_left(opts_.max_drift_events, result_.drift_events)) {
    bump_step(origin);
    const Rank drift = fault_pick(FaultKind::kDrift, origin);
    if (decide_fault(origin, opts_.drift_chance_permille, {&drift, 1}) ==
        drift) {
      apply_drift(origin);
    }
  }
  const bool delay_ok = budget_left(opts_.max_delays, result_.delays);
  const bool part_ok = budget_left(opts_.max_partitions, result_.partitions);
  if (!delay_ok && !part_ok) return cost;
  bump_step(origin);
  // Candidates ascending: partition picks sit below delay picks. Both
  // classes share one chance draw.
  const Rank partition = fault_pick(FaultKind::kPartition, target);
  const Rank delay = fault_pick(FaultKind::kDelay, origin);
  std::array<Rank, 2> faults{};
  usize n = 0;
  if (part_ok) faults[n++] = partition;
  if (delay_ok) faults[n++] = delay;
  const Rank pick =
      decide_fault(origin, opts_.delay_chance_permille, {faults.data(), n});
  if (pick == delay) {
    ++result_.delays;
    trace_event(origin, obs::EventCode::kDelay, target, opts_.delay_factor);
    cost *= opts_.delay_factor;
  } else if (pick == partition) {
    ++result_.partitions;
    Nanos& until = partition_until_[static_cast<usize>(target)];
    until = std::max(until, procs_[static_cast<usize>(origin)]->clock +
                                opts_.partition_span);
    trace_event(origin, obs::EventCode::kPartition, target, until);
  }
  return cost;
}

Nanos SimWorld::book_nic(Rank target, Nanos arrival, Nanos occupancy) {
  // partition_until_ is all-zero while the gray model is unarmed, making
  // the stall a no-op.
  const usize t = static_cast<usize>(target);
  const Nanos start = std::max({arrival, partition_until_[t], nic_free_[t]});
  nic_free_[t] = start + occupancy;
  return nic_free_[t];
}

void SimWorld::apply_drift(Rank origin) {
  Proc& self = *procs_[static_cast<usize>(origin)];
  // Deterministic worst-case event — no rng draws, so a replayed pick
  // stream reproduces the exact clock trajectory. The sign alternates per
  // event and starts opposite on adjacent ranks, so one event on each of
  // two ranks already produces the dangerous fast-claimant/slow-holder
  // split; the explorer controls which ranks drift and how often, covering
  // the other assignments.
  const i32 sign =
      ((static_cast<u32>(origin) + self.drift_events) % 2 == 0) ? 1 : -1;
  const Nanos skew = sign * opts_.skew_window;
  // Re-anchor at the origin's own current instant: the new local clock
  // continues from the old reading stepped by the skew change (an NTP-style
  // step, clamped to ± skew_window by construction), then advances at the
  // extreme rate.
  self.drift_anchor_local = local_now(origin) + (skew - self.drift_skew);
  self.drift_anchor_wall = self.clock;
  self.drift_skew = skew;
  self.drift_rate_permille =
      sign * static_cast<i32>(opts_.max_drift_permille);
  ++self.drift_events;
  ++result_.drift_events;
  trace_event(origin, obs::EventCode::kDrift, self.drift_rate_permille, skew);
}

TryResult SimWorld::execute_try_op(Rank origin, OpKind kind, Rank target,
                                   WinOffset offset, i64 operand, i64 cmp,
                                   AccumOp aop, Nanos deadline_ns) {
  check_stop(origin);
  Proc& self = *procs_[static_cast<usize>(origin)];
  RMALOCK_DCHECK(target >= 0 && target < nprocs());
  RMALOCK_DCHECK(offset >= 0 &&
                 static_cast<usize>(offset) < window_words());
  const i32 dclass = dclass_of(origin, target);
  const Nanos cost = remote_op_faults(origin, target, kind, dclass);

  bump_step(origin);
  self.stats.record(kind, dclass);
  // A single deadline-bounded attempt is not a spin primitive: it never
  // parks — the caller owns the retry loop and its backoff.
  clear_polls(self);

  // Self access cannot be partitioned away.
  const Nanos until = partition_until_[static_cast<usize>(target)];
  if (dclass != 0 && until > self.clock + cost / 2 && until > deadline_ns) {
    // The target is unreachable past the caller's deadline: fail fast
    // WITHOUT applying the op. The failed attempt still costs the caller the
    // time spent finding out (bounded by the deadline itself).
    self.clock = std::max(self.clock, deadline_ns);
    trace_event(origin, obs::EventCode::kTryTimeout, static_cast<i64>(kind),
                target);
    yield_cpu(origin);
    return TryResult{TryStatus::kTimeout, 0};
  }
  // A slow-but-delivered attempt (straggler) completes late rather than
  // failing: the caller re-checks now_ns() against its deadline.
  const Nanos completion =
      charge(self, kind, target, dclass, cost, IssueMode::kBlocking);
  const i64 result =
      apply_to_window(kind, target, offset, operand, cmp, aop, completion);
  yield_cpu(origin);
  return TryResult{TryStatus::kOk, result};
}

void SimWorld::execute_compute(Rank origin, Nanos ns) {
  check_stop(origin);
  bump_step(origin);
  Proc& self = *procs_[static_cast<usize>(origin)];
  clear_polls(self);
  self.clock += ns;
  yield_cpu(origin);
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

bool SimWorld::proc_suspected(Rank origin, Rank target) const {
  const Proc& proc = *procs_[static_cast<usize>(target)];
  return proc.crashed || (opts_.adversarial_suspicion && target != origin);
}

void SimWorld::execute_crash_point(Rank origin) {
  check_stop(origin);
  if (!budget_left(opts_.max_crashes, result_.crashes)) {
    // Unarmed (or budget spent): a complete no-op — no step, no decision,
    // no trace entry — so bodies may declare crash points unconditionally
    // without perturbing crash-free runs or pre-crash-model traces.
    return;
  }
  bump_step(origin);
  const Rank crash = fault_pick(FaultKind::kCrash, origin);
  if (decide_fault(origin, opts_.crash_chance_permille, {&crash, 1}) !=
      crash) {
    return;
  }
  Proc& self = *procs_[static_cast<usize>(origin)];
  ++result_.crashes;
  self.crashed = true;
  // Fail-stop with surviving window memory (the NIC keeps serving the dead
  // host's registered memory): issued effects stay applied, only the
  // process state dies with the fiber.
  clear_polls(self);
  self.pending_acks.clear();
  trace_event(origin, obs::EventCode::kCrash,
              static_cast<i64>(self.incarnation));
  // A crash is a failure-detection event: wake every parked process with
  // write semantics so pending Gets return and callers can re-evaluate
  // suspicion (a dead owner never writes the cell they parked on).
  wake_parked(/*by_write=*/true, /*at=*/self.clock);
  throw ProcCrashed{};
}

}  // namespace rmalock::rma
