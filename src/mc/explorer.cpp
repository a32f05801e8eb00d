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

/// The DFS. Decisions 0..prefix.size()-1 are forced to the recorded ranks
/// — their preemption cost is re-derived and charged, but they are never
/// branched — and the DFS enumerates only the subtree below: the unit of
/// work of an exhaustive campaign round. The empty prefix is the whole
/// tree.
ExploreStats explore_impl(const ExploreConfig& config,
                          const ExploreRunner& run_one,
                          const std::vector<Rank>& prefix) {
  const usize prefix_len = prefix.size();
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
        const Rank forced = prefix[d];
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
/// round is explored (a plain DFS in explore_iterative, a campaign round in
/// check_exhaustive): budget transfer, early stop on abort/incomplete, and
/// the nothing-pruned termination.
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
  return explore_impl(config, run_one, {});
}

ExploreStats explore_iterative(const ExploreConfig& config,
                               const ExploreRunner& run_one) {
  return iterate_budgets(config, [&](const ExploreConfig& round) {
    return explore_schedules(round, run_one);
  });
}

namespace {

/// SimOptions for one hook-driven exhaustive schedule (shared by the
/// frontier probes and the subtree explorations).
rma::SimOptions exhaustive_options(const CheckConfig& config,
                                   const rma::PickHook& hook, bool record) {
  rma::SimOptions opts = schedule_options(config, 0);
  opts.pick_hook = hook;
  // Recording happens up front when requested: these schedules are driven
  // by the (stateful) DFS hook and cannot be re-executed after the fact
  // for a lazy recording.
  opts.record_schedule = record;
  return opts;
}

/// The subtrees one round explores, as decision prefixes in DFS order —
/// the order the DFS of the whole tree visits them, which is what makes
/// the merge deterministic.
struct Frontier {
  /// The whole tree as one subtree by default.
  std::vector<std::vector<Rank>> prefixes{{}};
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
  frontier.prefixes.clear();
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
  frontier.stats = explore_impl(bounded, recording, {});
  return frontier;
}

/// One explored subtree, merged on the calling thread in DFS order.
struct SubtreeResult {
  CheckReport report;  // local fold of this subtree's schedules
  ExploreStats stats;  // `aborted` iff its last schedule failed
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

  // Explores the subtree below `prefix` within `round`'s bounds, stopping
  // at its first failure: a pool task, or the merge's re-run of the
  // subtree that crosses the schedule cap.
  const auto explore_subtree = [&](const ExploreConfig& round,
                                   const std::vector<Rank>& prefix) {
    SubtreeResult slot;
    const ExploreRunner run_one = [&](const rma::PickHook& hook) {
      const ScheduleOutcome outcome =
          rerun(exhaustive_options(explored, hook, /*record=*/true));
      fold_outcome(slot.report, outcome);
      if (outcome.failed()) slot.fail_outcome = outcome;
      return !outcome.failed();  // stop this subtree at its first failure
    };
    slot.stats = explore_impl(round, run_one, prefix);
    return slot;
  };

  const auto run_round = [&](const ExploreConfig& round) -> ExploreStats {
    // Phase 1 (jobs > 1): cut the tree into subtrees with cheap unrecorded
    // probe runs, deepening until the frontier is a few times wider than
    // the pool (load balance across skewed subtrees) or stops growing (the
    // whole space is smaller than the cut). A probe that runs into the
    // schedule cap leaves the whole tree as the one subtree.
    Frontier frontier;
    if (jobs > 1) {
      const ExploreRunner probe = [&](const rma::PickHook& hook) {
        (void)rerun(exhaustive_options(explored, hook, /*record=*/false));
        return true;  // failures resurface deterministically in phase 2
      };
      usize last_count = 0;
      for (usize depth = 2; depth <= 16; depth += 2) {
        Frontier cut = enumerate_frontier(round, depth, probe);
        if (!cut.stats.complete) {
          frontier = Frontier{};
          break;
        }
        frontier = std::move(cut);
        if (frontier.prefixes.size() >= static_cast<usize>(jobs) * 4) break;
        if (frontier.prefixes.size() == last_count) break;
        last_count = frontier.prefixes.size();
      }
    }

    // Phase 2: one task per subtree, each folding into its own slot.
    // Subtrees after one that stopped early (a failure, or a cap reached
    // inside it) are dead work: the merge stops at or before it.
    std::vector<SubtreeResult> slots(frontier.prefixes.size());
    harness::TaskPool pool(jobs);
    pool.run(slots.size(), [&](u64 i) {
      const auto at = static_cast<usize>(i);
      slots[at] = explore_subtree(round, frontier.prefixes[at]);
      if (!slots[at].stats.complete) pool.stop_after(i);
    });

    // Deterministic merge in DFS order: exactly the schedules the DFS of
    // the whole tree runs before it drains, fails or spends the cap.
    ExploreStats total;
    total.complete = true;
    total.pruned_by_preemption = frontier.stats.pruned_by_preemption;
    for (usize i = 0; i < slots.size(); ++i) {
      SubtreeResult& slot = slots[i];
      if (round.max_schedules != 0) {
        // Every task ran with the whole round's budget; the budget left
        // at this subtree is what the DFS of the whole tree would have.
        const u64 left = round.max_schedules - total.schedules;
        if (left == 0) {  // spent with subtrees left; 0 reads as unbounded
          total.complete = false;
          break;
        }
        if (slot.stats.schedules > left) {
          ExploreConfig rest = round;
          rest.max_schedules = left;
          slot = explore_subtree(rest, frontier.prefixes[i]);
        }
      }
      report += slot.report;
      total.schedules += slot.stats.schedules;
      total.pruned_by_preemption += slot.stats.pruned_by_preemption;
      total.truncated_by_depth += slot.stats.truncated_by_depth;
      if (slot.stats.aborted) {
        total.aborted = true;
        // Shrinking and trace-file writing happen once, here, with the
        // campaign-global schedule index: after merging through the
        // failing subtree, report.schedules_run - 1 is the failure's index
        // in the DFS of the whole tree, so coordinates, file name and the
        // ddmin-shrunk trace do not depend on the frontier. The placeholder
        // hook only marks the options as hook-driven (the failing run was
        // already recorded up front) — it is never invoked.
        const rma::SimOptions fail_opts = exhaustive_options(
            explored, [](const std::vector<Rank>& c) { return c.front(); },
            /*record=*/true);
        capture_first_failure(report, explored, slot.fail_outcome,
                              report.schedules_run - 1, fail_opts, rerun);
      }
      if (!slot.stats.complete) {
        total.complete = false;
        break;
      }
    }
    return total;
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
