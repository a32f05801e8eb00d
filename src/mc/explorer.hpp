// Bounded-exhaustive schedule exploration (the SPIN-shaped complement of
// the randomized checkers; paper §4.4).
//
// SimWorld's kReplay policy exposes every scheduler decision through a
// PickHook. The explorer drives that hook with a DFS over the decision
// tree: each complete run is one interleaving; after a run it backtracks to
// the deepest decision with an untried alternative and re-executes from the
// start (the engine is deterministic, so re-running a decision prefix
// reconstructs the exact state — no checkpointing needed, the CHESS/dBug
// stateless-exploration approach).
//
// The state space is tamed the same way CHESS does (Musuvathi & Qadeer,
// PLDI'07):
//
//   * preemption bounding — a decision that switches away from a process
//     that could have kept running costs one preemption; schedules are
//     enumerated within a per-run preemption budget. Most real concurrency
//     bugs need only 1-2 preemptions.
//   * iterative deepening — explore budget 0, then 1, ... so the cheapest
//     counterexamples surface first; exploration stops early when a bound
//     pruned nothing (the full space is already covered).
//   * decision-depth bounding — optionally stop branching beyond a depth
//     (decisions past it follow the default non-preempting choice).
//
// ExploreStats::complete reports whether the bounded space was fully
// drained, which is what turns "ran N schedules" into "verified all
// interleavings of this configuration under these bounds".
#pragma once

#include <functional>

#include "mc/checker.hpp"

namespace rmalock::mc {

struct ExploreConfig {
  /// Hard cap on complete runs (0 = unbounded). Exceeding it clears
  /// ExploreStats::complete.
  u64 max_schedules = 100'000;
  /// Branch only within the first `max_decision_depth` decisions
  /// (0 = unbounded); later decisions take the default non-preempting pick.
  usize max_decision_depth = 0;
  /// Preemption budget per schedule (-1 = unbounded).
  i32 max_preemptions = -1;
};

struct ExploreStats {
  /// Complete runs executed.
  u64 schedules = 0;
  /// True iff the DFS drained every schedule within the configured bounds
  /// (not stopped by max_schedules or by the runner).
  bool complete = false;
  /// True iff the runner requested a stop (e.g. violation found).
  bool aborted = false;
  /// Alternatives skipped because they exceeded the preemption budget.
  /// 0 together with `complete` means the *unbounded* space was drained.
  u64 pruned_by_preemption = 0;
  /// Branching decisions that fell beyond max_decision_depth.
  u64 truncated_by_depth = 0;
};

/// Executes one schedule end to end: must create a fresh SimWorld with
/// pick_hook = hook over a *deterministic* workload and run it to
/// completion. Returns false to abort exploration.
using ExploreRunner = std::function<bool(const rma::PickHook& hook)>;

/// DFS over all schedules within config's bounds (single preemption budget).
ExploreStats explore_schedules(const ExploreConfig& config,
                               const ExploreRunner& run_one);

/// Iterative deepening over preemption budgets 0..config.max_preemptions
/// (which must be >= 0). Stops early on abort or when a budget pruned
/// nothing. Schedules re-explored at higher budgets are counted again.
ExploreStats explore_iterative(const ExploreConfig& config,
                               const ExploreRunner& run_one);

/// Bounded-exhaustive campaign over a checker workload: enumerates
/// schedules (one world seed, mix_seed(base_seed, 0)) until the bounded
/// space is drained or a violation is found; the first failure is shrunk
/// and reported exactly as in the randomized campaigns. Explores under
/// kVirtualTime iff config.policy is kVirtualTime — the DFS then branches
/// only on fault decisions over one deterministic schedule (the clock is
/// the adversary, not the scheduler) — and under kReplay otherwise, where
/// every scheduling decision branches too. Every armed fault decision is a
/// DFS branch whose fault choices each cost one preemption, so iterative
/// deepening surfaces the fault-free space first. `iterative` selects
/// that deepening, as in explore_iterative (explore.max_preemptions >= 0).
/// At config.jobs > 1 each round runs as DFS subtrees on a task pool; the
/// report, including where max_schedules stops the campaign, is the same
/// at every jobs value (docs/PERF.md §4).
CheckReport check_exhaustive(const CheckConfig& config,
                             const ExploreConfig& explore,
                             const Workload& workload, bool iterative = false);

/// check_exhaustive over lock_workload(factory): the entry point of the
/// repository benchmark (perfbench/rmabench.cpp, workload mc_exhaustive).
CheckReport check_rw_exhaustive(const CheckConfig& config,
                                const ExploreConfig& explore,
                                const RwLockFactory& factory,
                                bool iterative = false);

}  // namespace rmalock::mc
