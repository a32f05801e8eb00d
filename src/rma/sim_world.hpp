// SimWorld — deterministic virtual-time discrete-event RMA runtime.
//
// Role in the reproduction: the paper evaluates on a Cray XC30 with up to
// 1024 MPI processes. This container has 2 cores, so wall-clock measurement
// of real threads cannot reproduce any scaling behaviour. SimWorld instead
// executes P cooperatively-scheduled processes (user-space fibers) whose RMA
// operations advance per-process *virtual clocks* according to a
// LatencyModel (distance-based cost + per-target NIC occupancy). Results
// are deterministic for a given seed, and P sweeps to 1024 just like the
// paper's.
//
// Execution model
//   * Exactly one process runs at a time (fiber switching on one OS
//     thread), so RMA ops apply in a single global order — sequential
//     consistency by construction, no data races on window memory.
//   * Scheduling policy:
//       kVirtualTime — runnable process with the smallest clock runs next
//                      (deterministic DES; used by all benchmarks);
//       kRandom      — uniformly random runnable process (model checking);
//       kPct         — PCT priority scheduling with d change points
//                      (Burckhardt et al.; stronger bug-finding guarantees);
//       kReplay      — re-execute a recorded ScheduleTrace (and/or drive
//                      decisions through SimOptions::pick_hook): the
//                      foundation of deterministic repro, counterexample
//                      shrinking, and bounded-exhaustive exploration.
//   * Flush is not a scheduling point: it changes no shared state, so
//     skipping its yield halves engine steps without losing interleavings.
//   * Nonblocking issue (iput/iaccumulate/iget) applies its effect, or
//     reads its word, at issue — same engine path, same scheduling point,
//     same visibility and parking as the blocking op — but charges the
//     origin only its NIC injection slot; the round trip is charged by the
//     next flush(target) as max(completion times) of the ops pending
//     there. A flush whose
//     settlement jumps the clock yields under kVirtualTime (so procs keep
//     booking NIC slots in arrival order) but never under list policies:
//     converting a lock from put to iput changes *costs* only, and kReplay
//     traces and the exhaustive explorer stay bit-compatible (see
//     tests/mc/test_replay_compat.cpp).
//   * Spin-wait parking: a process that re-reads the same unchanged window
//     cells (three identical polls) is parked and woken by the next write
//     to any of those cells, with its clock advanced to the writer's
//     completion time. This models MCS-style local spinning in O(1) engine
//     steps per wait instead of O(wait/poll).
//   * Deadlock detection: if every unfinished process is parked and several
//     force-wake rounds produce no window write, the run is declared
//     deadlocked (reported or aborted per options). This reproduces the
//     deadlock-freedom checking of the paper's §4.4.
//
// Virtual-time caveat: operations are applied eagerly in engine order, so a
// parked process can observe a write that carries a slightly later
// timestamp. Logical behaviour always corresponds to the engine's serial
// order; virtual time is a faithful cost model, not a total order oracle.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "rma/faults.hpp"
#include "rma/fiber.hpp"
#include "rma/latency_model.hpp"
#include "rma/ready_heap.hpp"
#include "rma/stack_pool.hpp"
#include "rma/world.hpp"

namespace rmalock::obs {
enum class EventCode : u8;
class Tracer;
}  // namespace rmalock::obs

namespace rmalock::rma {

enum class SchedPolicy : u8 {
  kVirtualTime,  // deterministic min-clock DES (benchmarks)
  kRandom,       // uniform random walk over interleavings (model checking)
  kPct,          // PCT priority scheduling (model checking)
  kReplay,       // re-execute a recorded ScheduleTrace / drive via pick_hook
};

/// Explicit decision hook: called at each decision not covered by
/// SimOptions::replay, with the candidates sorted ascending, and must
/// return one of them. Scheduling decisions (kReplay only) offer the
/// runnable ranks; armed fault decisions (any policy) offer the fault
/// picks and the caller's rank (rma/faults.hpp). This is how the
/// bounded-exhaustive explorer enumerates interleavings and fault
/// placements.
using PickHook = std::function<Rank(const std::vector<Rank>& candidates)>;

struct SimOptions : FaultKnobs {
  topo::Topology topology;
  /// Network model; defaulted to LatencyModel::xc30(topology levels).
  LatencyModel latency{};
  /// Seed for scheduling and per-process RNG streams.
  u64 seed = 1;
  SchedPolicy policy = SchedPolicy::kVirtualTime;
  /// PCT: number of priority change points (d).
  i32 pct_change_points = 3;
  /// PCT: steps horizon (k) the change points are sampled from. Should
  /// approximate the expected run length — points beyond the actual run
  /// never fire and PCT degenerates to a strict priority schedule.
  /// 0 = derive from max_steps (or 1e6 if unbounded).
  u64 pct_horizon = 0;
  /// Stop the run after this many engine steps (0 = unbounded). Used by the
  /// model checker to bound exploration.
  u64 max_steps = 0;
  /// Abort the process on deadlock (benchmarks want loud failure); when
  /// false the deadlock is reported in RunResult (model checking).
  bool abort_on_deadlock = true;
  /// Record every decision into RunResult::schedule. kVirtualTime
  /// scheduling is deterministic by construction, so under it only armed
  /// fault decisions are recorded.
  bool record_schedule = false;
  /// The decisions to re-execute (typically a RunResult::schedule from a
  /// recorded run): scheduling decisions under kReplay, fault decisions
  /// under any policy. Not owned; must outlive run(). Decisions beyond the
  /// trace fall through to pick_hook, then to the deterministic
  /// smallest-rank (scheduling) or no-fault (faults) choice.
  const ScheduleTrace* replay = nullptr;
  /// Decision hook consulted after `replay` is exhausted (see PickHook).
  /// Used by the exhaustive explorer.
  PickHook pick_hook;
  /// Stack bytes per simulated process, mapped rounded up to whole pages
  /// with the top on a page boundary (rma/stack_pool.hpp). Only touched
  /// pages are resident: a process whose frames fit in one page keeps one
  /// page resident, whatever this size.
  usize fiber_stack_bytes = 256 * 1024;

  // The fault knobs are inherited from FaultKnobs (rma/faults.hpp).

  // --- observability -------------------------------------------------------

  /// Structured event sink (obs/trace.hpp): engine and fault-model events
  /// are recorded into its per-rank rings, stamped with the emitting
  /// process's virtual clock. Not owned; must outlive run(). Null (the
  /// default) disarms tracing — every would-be emission costs one
  /// predictable branch. When null and RMALOCK_TRACE is set, the world arms
  /// an internal tracer that echoes the legacy text lines to stderr (one
  /// event schema, two sinks).
  obs::Tracer* tracer = nullptr;
};

class SimWorld final : public World {
 public:
  explicit SimWorld(SimOptions opts);
  ~SimWorld() override;

  static std::unique_ptr<SimWorld> create(SimOptions opts) {
    return std::make_unique<SimWorld>(std::move(opts));
  }

  RunResult run(const std::function<void(RmaComm&)>& body) override;

  [[nodiscard]] i64 read_word(Rank rank, WinOffset offset) const override;
  void write_word(Rank rank, WinOffset offset, i64 value) override;
  void reserve(usize words) override;
  [[nodiscard]] OpStats aggregate_stats() const override;
  void reset_stats();

  [[nodiscard]] const SimOptions& options() const { return opts_; }

 private:
  friend class SimComm;

  enum class ProcState : u8 {
    kRunnable,   // waiting in the scheduler for the cpu
    kRunning,    // currently executing
    kParked,     // waiting for a write to registered cells
    kInBarrier,  // waiting for the collective barrier
    kFinished,
  };

  struct PollEntry {
    Rank target = kNilRank;
    WinOffset offset = -1;
    i64 value = 0;
    i32 repeats = 0;
    u64 last_touch = 0;  // poll_epoch of the most recent read of this cell
  };

  struct Proc {
    explicit Proc(u64 rng_seed) : rng(rng_seed) {}

    Fiber fiber;
    FiberStack stack;
    Nanos clock = 0;
    ProcState state = ProcState::kRunnable;
    /// Set when a window write (as opposed to a force-wake) unparked this
    /// proc: the pending Get must then *return* so the caller can
    /// re-evaluate its loop condition — any polled cell may have changed,
    /// not just the one the Get targets.
    bool woken_by_write = false;
    // Cells this proc is registered on while parked: (target, offset).
    std::vector<std::pair<Rank, WinOffset>> wait_cells;
    // Nonblocking ops issued but not yet flushed: per target, the virtual
    // time the origin reaches when flush(target) completes them (completion
    // + the acknowledgement's return trip). Small: protocols flush promptly.
    std::vector<std::pair<Rank, Nanos>> pending_acks;
    std::array<PollEntry, 4> polls{};
    i32 num_polls = 0;
    u64 poll_epoch = 0;  // counts this proc's Get operations
    u32 pct_priority = 0;
    /// Dead (crashed at a crash point). Stays true until the restart
    /// reboot (restart_crashed) or the end of the run; suspected() and the
    /// RunResult report read it.
    bool crashed = false;
    u64 incarnation = 0;  // restarts survived (0 = original process)
    // Clock-drift model: piecewise-linear map from the shared wall clock to
    // this proc's local clock (RmaComm::local_now_ns). The default anchors
    // are the identity map, so a proc that never drifts reads perfect time.
    Nanos drift_anchor_wall = 0;
    Nanos drift_anchor_local = 0;
    i32 drift_rate_permille = 0;  // signed deviation from the nominal rate
    Nanos drift_skew = 0;         // current skew offset, |skew| <= window
    u32 drift_events = 0;         // drift events applied to this proc
    Xoshiro256 rng;
    OpStats stats;
  };

  /// Thrown through user code to unwind a stopping run. Lock bodies are
  /// exception-transparent (RAII only), so this is safe.
  struct StopRun {};

  /// Thrown from an armed crash point to fail-stop the calling process
  /// (same exception-transparency argument as StopRun).
  struct ProcCrashed {};

  /// The pick recording a `kind` fault on `subject` in this world.
  [[nodiscard]] Rank fault_pick(FaultKind kind, i32 subject) const {
    return rma::fault_pick(kind, nprocs(), subject);
  }

  void grow_windows(WinOffset first, i64 init) override;

  // --- fiber plumbing ------------------------------------------------------
  static void fiber_entry();
  [[noreturn]] void fiber_body(Rank rank);
  void switch_to_proc(Fiber& from, Rank next);
  [[noreturn]] void finish_proc(Rank rank);

  // --- engine (all called from the currently running fiber) ---------------
  /// A single-word op (every RmaComm op but flush, get_vec and try_*): one
  /// engine step; a get that detects a pure spin parks and re-issues.
  i64 execute_op(Rank origin, OpKind kind, Rank target, WinOffset offset,
                 i64 operand, i64 cmp, AccumOp aop,
                 IssueMode mode = IssueMode::kBlocking);
  /// flush(target): charges flush_ns and settles the acks pending at
  /// target. Not a scheduling point unless settlement jumps the clock.
  void execute_flush(Rank origin, Rank target);
  void execute_compute(Rank origin, Nanos ns);
  void execute_barrier(Rank origin);
  /// Multi-word get (RmaComm::get_vec) with the torn-read fault model: with
  /// max_tears armed and n >= 2, an explorable decision to read atomically
  /// or split after a k-word prefix with a scheduling point between the
  /// halves.
  void execute_get_vec(Rank origin, Rank target, WinOffset offset, i64* out,
                       usize n);
  /// The one fault decision: `faults` are the class's candidate fault
  /// picks, sorted ascending (all below the no-fault pick, `origin`).
  /// Tries the replay trace, then the pick hook, then a replay's no-fault
  /// fallback, then the stochastic draw: one draw against
  /// `chance_permille`, and on a hit a second draw of the fault, counted
  /// from the last candidate. A single candidate skips the second draw
  /// unless `draw_sole` (the tear split is drawn even when only one
  /// exists; recorded random streams depend on it). Records and returns
  /// the chosen pick.
  Rank decide_fault(Rank origin, u32 chance_permille,
                    std::span<const Rank> faults, bool draw_sole = false);
  /// True iff a fault budget of `max` events has room after `used`.
  [[nodiscard]] static bool budget_left(i32 max, u64 used) {
    return max > 0 && used < static_cast<u64>(max);
  }
  /// The drift and gray decisions of a remote op (each only while its
  /// budget lasts); applies a drift or partition and returns the op's
  /// completion charge, stretched by delay_factor for a straggler.
  Nanos remote_op_faults(Rank origin, Rank target, OpKind kind, i32 dclass);
  /// The one cost path of an op whose faults are decided (`cost` from
  /// remote_op_faults). Self access adds `cost` to the clock. A remote op
  /// books target's NIC at clock + cost/2; blocking, it then pays the
  /// return trip; nonblocking, it pays one injection slot and leaves a
  /// pending ack for the next flush(target). Returns the op's completion
  /// time at the target.
  Nanos charge(Proc& self, OpKind kind, Rank target, i32 dclass, Nanos cost,
               IssueMode mode);
  /// Books a remote op on target's NIC: the op arrives at `arrival`,
  /// stalled past any partition window, queues behind earlier bookings and
  /// holds the NIC for `occupancy`. Returns its completion time.
  Nanos book_nic(Rank target, Nanos arrival, Nanos occupancy);
  /// Re-anchors origin's clock map at the current wall time with an
  /// extreme rate and skew step (deterministic: no rng draws, so replay
  /// reproduces the exact clock trajectory).
  void apply_drift(Rank origin);
  /// Deadline-aware single-attempt op (RmaComm::try_*): one engine step,
  /// never parks and logs no rma-op event; fails fast without applying when
  /// the target is inside a partition window that outlasts the deadline.
  TryResult execute_try_op(Rank origin, OpKind kind, Rank target,
                           WinOffset offset, i64 operand, i64 cmp, AccumOp aop,
                           Nanos deadline_ns);
  /// Declared crash point (RmaComm::crash_point): a no-op unless crash
  /// injection is armed and budget remains, else an explorable binary
  /// decision that may throw ProcCrashed through the caller.
  void execute_crash_point(Rank origin);
  /// Failure detector backing RmaComm::suspected().
  [[nodiscard]] bool proc_suspected(Rank origin, Rank target) const;

  /// The one write path: applies the op to the target word and returns the
  /// word's previous value. A write (every put, accumulate and fao, and a
  /// successful cas) counts for stall detection and wakes the cell's
  /// waiters at `completion`.
  i64 apply_to_window(OpKind kind, Rank target, WinOffset offset, i64 operand,
                      i64 cmp, AccumOp aop, Nanos completion);
  void wake_waiters(Rank target, WinOffset offset, Nanos write_time);
  /// Makes every parked process runnable, its clock raised to `at`;
  /// `by_write` returns its pending get to the caller instead of re-polling.
  /// True iff any process was parked.
  bool wake_parked(bool by_write, Nanos at);

  /// Records a nonblocking op's acknowledgement time (completion + return
  /// trip) for the next flush(target) to charge.
  void note_pending_ack(Proc& proc, Rank target, Nanos ack_time);
  /// flush(target): advances proc.clock past every pending ack to target.
  /// True iff a pending ack actually raised the clock (a jump that needs a
  /// virtual-time rescheduling point, see execute_flush).
  bool settle_pending_acks(Proc& proc, Rank target);

  /// Updates origin's poll tracker after a get; returns true if the caller
  /// should park (3 identical reads of this cell with no local progress).
  bool track_poll(Proc& proc, Rank target, WinOffset offset, i64 value);
  /// True iff every tracked cell still holds the value the caller last
  /// read (see the comment at the call site); refreshes stale entries.
  bool poll_snapshot_is_current(Proc& proc);
  void clear_polls(Proc& proc) { proc.num_polls = 0; }

  void park_until_cell_write(Rank origin);
  void yield_cpu(Rank origin);
  void hand_off_from_blocked(Rank origin);
  void release_barrier_if_complete();

  /// Picks the next process to run; kNilRank if no one is runnable.
  Rank pick_next();
  /// Marks `rank`, just taken off the ready queue, as running; returns it.
  Rank start_running(Rank rank);
  /// pick_next(), force-waking parked processes (handle_no_runnable) when
  /// no one is runnable; CHECKs that someone then is.
  Rank pick_or_force_wake();
  /// kReplay: index into ready_list_ of the next decision (replay trace,
  /// then pick_hook, then deterministic smallest-rank fallback).
  usize replay_pick_index();
  /// Called when no process is runnable: force-wake or declare deadlock.
  void handle_no_runnable();
  void begin_stop(bool deadlock, bool step_limit);
  void check_stop(Rank origin);
  void bump_step(Rank origin);

  void make_runnable(Proc& proc, Rank rank);
  void unregister_waits(Proc& proc, Rank rank);

  // --- window arena --------------------------------------------------------
  /// Index of (rank, offset) in windows_ and waiter_heads_ (hot: once per
  /// op, whose bounds the op paths only DCHECK).
  [[nodiscard]] usize cell(Rank rank, WinOffset offset) const {
    return static_cast<usize>(offset) * static_cast<usize>(nprocs()) +
           static_cast<usize>(rank);
  }
  /// cell() for the direct-access API: checks rank < P and offset <
  /// window_words(), since an out-of-range offset would otherwise alias
  /// another rank's word instead of leaving the arena.
  [[nodiscard]] usize checked_cell(Rank rank, WinOffset offset) const;
  void register_waiter(Rank target, WinOffset offset, Rank waiter);
  void remove_waiter(Rank target, WinOffset offset, Rank waiter);

  /// Distance class of (origin, target) (hot: once per op): 0 for self,
  /// else read off the highest bit in which the two ranks' keys differ,
  /// which lies in the field of the coarsest level that separates them.
  [[nodiscard]] i32 dclass_of(Rank origin, Rank target) const {
    const u64 apart = dkeys_[static_cast<usize>(origin)] ^
                      dkeys_[static_cast<usize>(target)];
    return origin == target
               ? 0
               : dclass_by_width_[static_cast<usize>(std::bit_width(apart))];
  }

  // Per-process accessors used by SimComm.
  [[nodiscard]] Nanos proc_clock(Rank rank) const {
    return procs_[static_cast<usize>(rank)]->clock;
  }
  /// rank's local clock (RmaComm::local_now_ns): the drift/skew map applied
  /// to the rank's own virtual clock — the instant its code is executing
  /// at, which is the only "now" its watch can be asked at. (NOT the global
  /// max over proc clocks: a rank whose clock trails a far-ahead peer would
  /// read the future and then watch its local time freeze while its own
  /// ops advance underneath the max.) A parked process's clock is bumped to
  /// the waking instant on resume, so a paused holder's watch catches up —
  /// and its lease reads as expired — the moment it next runs. Identity —
  /// perfect synchronization — until a drift event re-anchors the map; may
  /// step backward within the skew window.
  [[nodiscard]] Nanos local_now(Rank rank) const {
    const Proc& proc = *procs_[static_cast<usize>(rank)];
    const Nanos elapsed = proc.clock - proc.drift_anchor_wall;
    return proc.drift_anchor_local +
           elapsed * (1000 + proc.drift_rate_permille) / 1000;
  }
  [[nodiscard]] Xoshiro256& proc_rng(Rank rank) {
    return procs_[static_cast<usize>(rank)]->rng;
  }
  [[nodiscard]] OpStats& proc_stats(Rank rank) {
    return procs_[static_cast<usize>(rank)]->stats;
  }

  /// Records an instant event on origin's ring (virtual-clock timestamped;
  /// kDrift stamps the drift-adjusted local clock instead, since the event
  /// is *about* that clock). The disarmed path is this inline null test —
  /// the only cost tracing adds to an untraced run.
  void trace_event(Rank origin, obs::EventCode code, i64 a = 0, i64 b = 0,
                   i64 c = 0) {
    if (tracer_ != nullptr) [[unlikely]] {
      trace_event_slow(origin, code, a, b, c);
    }
  }
  void trace_event_slow(Rank origin, obs::EventCode code, i64 a, i64 b,
                        i64 c);

  SimOptions opts_;
  std::vector<std::unique_ptr<Proc>> procs_;
  // Window memory, one word per cell(rank, offset): offset-major, so
  // allocate() appends whole P-word rows and never moves earlier words.
  std::vector<i64> windows_;
  std::vector<Nanos> nic_free_;  // per-rank NIC availability time
  // Gray model: per-rank virtual time until which the rank is unreachable
  // (transient partition). All-zero when the model is unarmed, making the
  // stall below a no-op.
  std::vector<Nanos> partition_until_;
  // Distance keys for dclass_of: dkeys_[r] packs rank r's element index
  // within its parent element at each level 2..N (level 1, the whole
  // machine, is shared by every pair), one field per level, the coarsest
  // level in the highest bits, each field just wide enough for its fanout.
  // Two ranks share their level-i element iff their fields for levels
  // 2..i agree. dclass_by_width_[w] is the class of two distinct ranks
  // whose keys differ at most up to bit w - 1 (w = 0: same leaf, class 1).
  std::vector<u64> dkeys_;
  std::array<u8, 65> dclass_by_width_{};

  // Parked-waiter arena: one singly-linked list of ranks per window cell
  // (may hold stale entries for procs already woken; filtered by state on
  // wake). Heads share windows_' cell() layout; nodes live in a free-listed
  // per-world arena so parking never heap-allocates after warmup.
  struct WaiterNode {
    Rank rank = kNilRank;
    i32 next = -1;  // index into waiter_nodes_; -1 = end of chain
  };
  std::vector<i32> waiter_heads_;  // -1 = empty cell
  std::vector<WaiterNode> waiter_nodes_;
  i32 waiter_free_ = -1;  // free list threaded through WaiterNode::next

  // Scheduler state (valid during run()).
  ReadyHeap ready_heap_;          // kVirtualTime
  std::vector<Rank> ready_list_;  // kRandom / kPct / kReplay
  Xoshiro256 sched_rng_{0};
  std::vector<u64> pct_change_steps_;
  usize pct_next_change_ = 0;  // index of the next unfired change point
  u32 pct_next_priority_low_ = 0;
  usize replay_pos_ = 0;  // kReplay: next decision in opts_.replay

  Fiber main_fiber_;
  Rank entering_rank_ = kNilRank;  // rank a fresh fiber should adopt
  const std::function<void(RmaComm&)>* body_ = nullptr;

  u64 steps_ = 0;
  u64 window_writes_ = 0;
  u64 writes_at_last_stall_ = 0;
  i32 stall_rounds_ = 0;
  i32 unfinished_ = 0;
  i32 barrier_arrived_ = 0;
  std::vector<Rank> barrier_ranks_;
  bool stopping_ = false;
  bool running_ = false;
  obs::Tracer* tracer_ = nullptr;  // armed event sink; null = disarmed
  /// Backing tracer when RMALOCK_TRACE arms tracing with no external sink
  /// supplied (echoes the legacy stderr lines).
  std::unique_ptr<obs::Tracer> owned_tracer_;
  RunResult result_;
};

}  // namespace rmalock::rma
