#include "mc/explorer.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "harness/task_pool.hpp"

namespace rmalock::mc {

namespace {

/// One decision point on the current DFS path.
struct Node {
  /// Candidate ranks in enumeration order: the non-preempting choice (the
  /// previously running rank, if still runnable) first, the rest ascending.
  std::vector<Rank> order;
  usize chosen = 0;
  /// True iff the previously running rank was runnable here — making every
  /// alternative (order index > 0) cost one preemption.
  bool preempt_possible = false;
  /// Preemptions spent before this decision.
  i32 preempt_base = 0;
  /// False beyond max_decision_depth: the decision is pinned to order[0].
  bool branchable = true;

  [[nodiscard]] i32 cost(usize choice) const {
    return (preempt_possible && choice > 0) ? 1 : 0;
  }
  [[nodiscard]] i32 preemptions_through() const {
    return preempt_base + cost(chosen);
  }
};

/// DFS core shared by the sequential explorer and the sharded parallel
/// one. With a `prefix`, decisions 0..prefix->size()-1 are forced to the
/// recorded ranks — their preemption cost is re-derived and charged, but
/// they are never branched — and the DFS enumerates only the subtree
/// below: the unit of work of the parallel campaign runtime.
ExploreStats explore_impl(const ExploreConfig& config,
                          const ExploreRunner& run_one,
                          const std::vector<Rank>* prefix) {
  const usize prefix_len = prefix ? prefix->size() : 0;
  ExploreStats stats;
  std::vector<Node> path;  // free decisions only (depth >= prefix_len)
  bool capped = false;
  for (;;) {
    usize depth = 0;
    i32 prefix_preempts = 0;
    Rank prev = kNilRank;
    const rma::PickHook hook = [&](const std::vector<Rank>& candidates)
        -> Rank {
      const usize d = depth++;
      if (d < prefix_len) {
        const Rank forced = (*prefix)[d];
        RMALOCK_CHECK_MSG(
            std::find(candidates.begin(), candidates.end(), forced) !=
                candidates.end(),
            "nondeterministic workload under exploration (prefix decision "
                << d << ": rank " << forced << " not runnable)");
        if (forced != prev &&
            std::find(candidates.begin(), candidates.end(), prev) !=
                candidates.end()) {
          ++prefix_preempts;  // the prefix pick preempted a runnable prev
        }
        prev = forced;
        return forced;
      }
      const usize fd = d - prefix_len;
      if (fd < path.size()) {
        // Re-executing the committed prefix: the engine is deterministic,
        // so the candidate set must match the recorded decision.
        RMALOCK_CHECK_MSG(path[fd].order.size() == candidates.size(),
                          "nondeterministic workload under exploration "
                          "(decision " << d << ": " << candidates.size()
                          << " candidates, expected "
                          << path[fd].order.size() << ")");
        prev = path[fd].order[path[fd].chosen];
        return prev;
      }
      Node node;
      node.preempt_base =
          path.empty() ? prefix_preempts : path.back().preemptions_through();
      node.preempt_possible =
          std::find(candidates.begin(), candidates.end(), prev) !=
          candidates.end();
      node.order.reserve(candidates.size());
      if (node.preempt_possible) node.order.push_back(prev);
      for (const Rank r : candidates) {  // candidates arrive sorted
        if (r != prev) node.order.push_back(r);
      }
      node.branchable =
          config.max_decision_depth == 0 || d < config.max_decision_depth;
      if (!node.branchable && node.order.size() > 1) {
        ++stats.truncated_by_depth;
      }
      prev = node.order[0];
      path.push_back(std::move(node));
      return prev;
    };

    const bool keep_going = run_one(hook);
    ++stats.schedules;
    if (!keep_going) {
      stats.aborted = true;
      break;
    }

    // Backtrack: deepest decision with an affordable untried alternative.
    while (!path.empty()) {
      Node& last = path.back();
      const usize remaining = last.order.size() - last.chosen - 1;
      if (last.branchable && remaining > 0) {
        // All alternatives (index > 0) share one cost, so one check covers
        // every remaining sibling.
        const i32 alt_cost = last.preempt_possible ? 1 : 0;
        if (config.max_preemptions < 0 ||
            last.preempt_base + alt_cost <= config.max_preemptions) {
          ++last.chosen;
          break;
        }
        stats.pruned_by_preemption += remaining;
      }
      path.pop_back();
    }
    if (path.empty()) break;  // space drained — even if the cap was reached
    if (config.max_schedules != 0 && stats.schedules >= config.max_schedules) {
      capped = true;  // unexplored work remains but the budget is spent
      break;
    }
  }
  stats.complete = !stats.aborted && !capped;
  return stats;
}

/// The iterative-deepening protocol, parameterized over how one budget
/// round is explored (sequential DFS or the sharded parallel round). One
/// implementation keeps jobs=1 and jobs>1 walking the exact same bound
/// sequence — budget transfer, early stop on abort/incomplete, and the
/// nothing-pruned termination — which the determinism contract depends on.
template <typename RoundFn>
ExploreStats iterate_budgets(const ExploreConfig& config,
                             const RoundFn& run_round) {
  RMALOCK_CHECK_MSG(config.max_preemptions >= 0,
                    "explore_iterative needs a finite preemption budget");
  ExploreStats total;
  for (i32 bound = 0; bound <= config.max_preemptions; ++bound) {
    ExploreConfig round = config;
    round.max_preemptions = bound;
    if (round.max_schedules != 0) {
      if (total.schedules >= round.max_schedules) {
        total.complete = false;
        break;
      }
      round.max_schedules -= total.schedules;
    }
    const ExploreStats s = run_round(round);
    total.schedules += s.schedules;
    total.pruned_by_preemption += s.pruned_by_preemption;
    total.truncated_by_depth += s.truncated_by_depth;
    total.complete = s.complete;
    if (s.aborted) {
      total.aborted = true;
      total.complete = false;
      break;
    }
    if (!s.complete) break;
    if (s.pruned_by_preemption == 0) break;  // nothing left above this bound
  }
  return total;
}

}  // namespace

ExploreStats explore_schedules(const ExploreConfig& config,
                               const ExploreRunner& run_one) {
  return explore_impl(config, run_one, nullptr);
}

ExploreStats explore_iterative(const ExploreConfig& config,
                               const ExploreRunner& run_one) {
  return iterate_budgets(config, [&](const ExploreConfig& round) {
    return explore_schedules(round, run_one);
  });
}

namespace {

/// SimOptions for one hook-driven exhaustive schedule (shared by the
/// sequential DFS, the frontier probes, and the parallel subtree tasks).
rma::SimOptions exhaustive_options(const CheckConfig& config,
                                   const rma::PickHook& hook, bool record) {
  rma::SimOptions opts = schedule_options(config, 0);
  opts.pick_hook = hook;
  // Recording happens up front when requested: these schedules are driven
  // by the (stateful) DFS hook and cannot be re-executed after the fact
  // for a lazy recording.
  opts.record_schedule = record;
  // One fresh world per schedule: at ~1e5 schedules the default 256 KiB
  // fiber stacks dominate wall time through page zeroing alone. The
  // explorer only ever runs tiny configurations, so 64 KiB is ample.
  opts.fiber_stack_bytes = 64 * 1024;
  return opts;
}

/// The DFS frontier at a fixed decision depth: one prefix per reachable
/// depth-bounded decision path, in DFS order — the exact order the
/// sequential DFS visits the corresponding subtrees, which is what makes
/// the parallel merge deterministic.
struct Frontier {
  std::vector<std::vector<Rank>> prefixes;
  ExploreStats stats;  // of the depth-bounded enumeration itself
};

/// Enumerates the frontier by running explore_impl with branching cut at
/// `depth`: each complete probe run corresponds to exactly one reachable
/// prefix (decisions beyond the cut follow the default non-preempting
/// pick). Probe outcomes are discarded — every probe is the leftmost leaf
/// of its subtree and is re-run (and then counted) by the subtree task.
Frontier enumerate_frontier(const ExploreConfig& config, usize depth,
                            const ExploreRunner& probe) {
  Frontier frontier;
  ExploreConfig bounded = config;
  bounded.max_decision_depth =
      config.max_decision_depth == 0
          ? depth
          : std::min(depth, config.max_decision_depth);
  std::vector<Rank> current;
  const ExploreRunner recording = [&](const rma::PickHook& hook) {
    current.clear();
    const rma::PickHook wrap = [&](const std::vector<Rank>& cands) -> Rank {
      const Rank pick = hook(cands);
      if (current.size() < depth) current.push_back(pick);
      return pick;
    };
    const bool keep = probe(wrap);
    frontier.prefixes.push_back(current);
    return keep;
  };
  frontier.stats = explore_impl(bounded, recording, nullptr);
  return frontier;
}

/// Outcome of one subtree task, merged on the calling thread in DFS order.
struct SubtreeResult {
  CheckReport report;  // local fold of this subtree's schedules
  ExploreStats stats;
  bool failed = false;
  ScheduleOutcome fail_outcome;
};

}  // namespace

CheckReport check_exhaustive(const CheckConfig& config,
                             const ExploreConfig& explore,
                             const Workload& workload, bool iterative) {
  // Trace files and reports stamp the policy the schedules actually ran
  // under, not the CheckConfig default.
  CheckConfig explored = config;
  explored.policy = config.policy == rma::SchedPolicy::kVirtualTime
                        ? rma::SchedPolicy::kVirtualTime
                        : rma::SchedPolicy::kReplay;
  const i32 jobs = harness::TaskPool::resolve_jobs(config.jobs);
  CheckReport report;
  const auto rerun = [&](const rma::SimOptions& run_opts) {
    return workload.run(explored, run_opts);
  };

  // One round on the calling thread, in DFS order: the jobs=1 campaign,
  // and the fallback for parallel rounds whose prefix space alone blows the
  // schedule budget (shard accounting can no longer mirror the sequential
  // order).
  const auto run_round_sequential =
      [&](const ExploreConfig& round) -> ExploreStats {
    const ExploreRunner run_one = [&](const rma::PickHook& hook) {
      const rma::SimOptions opts =
          exhaustive_options(explored, hook, /*record=*/true);
      const ScheduleOutcome outcome = rerun(opts);
      fold_outcome(report, outcome);
      capture_first_failure(report, explored, outcome,
                            report.schedules_run - 1, opts, rerun);
      return !outcome.failed();  // stop at the first counterexample
    };
    return explore_impl(round, run_one, nullptr);
  };

  const auto run_round_parallel =
      [&](const ExploreConfig& round) -> ExploreStats {
    // Phase 1 (sequential): enumerate the subtree frontier with cheap
    // unrecorded probe runs.
    const ExploreRunner probe = [&](const rma::PickHook& hook) {
      const rma::SimOptions opts =
          exhaustive_options(explored, hook, /*record=*/false);
      (void)rerun(opts);
      return true;  // failures resurface deterministically in phase 2
    };
    Frontier frontier;
    if (round.shard_depth != 0) {
      frontier = enumerate_frontier(round, round.shard_depth, probe);
    } else {
      // Auto depth: deepen until the frontier is a few times wider than
      // the worker pool (load balance across skewed subtrees) or stops
      // growing (the whole space is smaller than the cut).
      usize last_count = 0;
      for (usize depth = 2; depth <= 16; depth += 2) {
        frontier = enumerate_frontier(round, depth, probe);
        if (!frontier.stats.complete) break;
        if (frontier.prefixes.size() >= static_cast<usize>(jobs) * 4) break;
        if (frontier.prefixes.size() == last_count) break;
        last_count = frontier.prefixes.size();
      }
    }
    if (!frontier.stats.complete) return run_round_sequential(round);

    // Phase 2: one task per subtree. Slots are pre-sized; each task folds
    // into its own local report only.
    std::vector<SubtreeResult> slots(frontier.prefixes.size());
    harness::TaskPool pool(jobs);
    pool.run(frontier.prefixes.size(), [&](u64 i) {
      SubtreeResult& slot = slots[static_cast<usize>(i)];
      const ExploreRunner run_one = [&](const rma::PickHook& hook) {
        const rma::SimOptions opts =
            exhaustive_options(explored, hook, /*record=*/true);
        const ScheduleOutcome outcome = rerun(opts);
        fold_outcome(slot.report, outcome);
        if (outcome.failed() && !slot.failed) {
          slot.failed = true;
          slot.fail_outcome = outcome;
        }
        return !outcome.failed();  // stop this subtree at its first failure
      };
      slot.stats = explore_impl(round, run_one,
                                &frontier.prefixes[static_cast<usize>(i)]);
      // Subtrees after a failing one are dead work (the merge below stops
      // there); subtrees before it must still finish for exact counts.
      if (slot.failed) pool.stop_after(i);
    });

    // Deterministic merge, in DFS order, up to and including the first
    // failing subtree — exactly the schedules the sequential DFS would
    // have run before stopping at its first counterexample.
    ExploreStats total;
    total.complete = true;
    usize failing = slots.size();
    for (usize i = 0; i < slots.size(); ++i) {
      report += slots[i].report;
      total.schedules += slots[i].stats.schedules;
      total.pruned_by_preemption += slots[i].stats.pruned_by_preemption;
      total.truncated_by_depth += slots[i].stats.truncated_by_depth;
      total.complete = total.complete && slots[i].stats.complete;
      if (slots[i].failed) {
        failing = i;
        break;
      }
    }
    total.pruned_by_preemption += frontier.stats.pruned_by_preemption;
    if (round.max_schedules != 0 && total.schedules > round.max_schedules) {
      // The sequential DFS would have stopped at the cap; the shards,
      // each individually under budget, overshot it. Counts beyond the
      // cap stay in the report (they were really enumerated) but the
      // space is not certified complete.
      total.complete = false;
    }
    if (failing < slots.size()) {
      total.aborted = true;
      total.complete = false;
      // Shrinking and trace-file writing happen once, here, with the
      // campaign-global schedule index: after merging through the failing
      // subtree, report.schedules_run equals the sequential count at the
      // failure, so coordinates, file name, and the ddmin-shrunk trace
      // come out identical to the jobs=1 run. The placeholder hook only
      // marks the options as hook-driven (the failing run was already
      // recorded up front) — it is never invoked.
      const rma::SimOptions fail_opts = exhaustive_options(
          explored, [](const std::vector<Rank>& c) { return c.front(); },
          /*record=*/true);
      capture_first_failure(report, explored,
                            slots[failing].fail_outcome,
                            report.schedules_run - 1, fail_opts, rerun);
    }
    return total;
  };

  const auto run_round = [&](const ExploreConfig& round) {
    return jobs > 1 ? run_round_parallel(round) : run_round_sequential(round);
  };
  const ExploreStats stats =
      iterative ? iterate_budgets(explore, run_round) : run_round(explore);
  if (stats.complete) ++report.exhausted_spaces;
  return report;
}

CheckReport check_rw_exhaustive(const CheckConfig& config,
                                const ExploreConfig& explore,
                                const RwLockFactory& factory, bool iterative) {
  return check_exhaustive(config, explore, lock_workload(factory), iterative);
}

}  // namespace rmalock::mc
