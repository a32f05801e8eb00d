// World — a set of P processes with RMA windows, able to run SPMD bodies.
//
// Usage mirrors an MPI program:
//
//   auto world = rma::SimWorld::create(opts);
//   locks::RmaRw lock(*world, params);      // collective: allocates window
//   world->run([&](rma::RmaComm& comm) {    // like MPI_Init..Finalize
//     lock.acquire_read(comm);
//     ...
//     lock.release_read(comm);
//   });
//
// Window words persist across run() calls, so a world can execute warmup
// and measurement phases (or a sequence of tests) against the same lock
// state. Offsets are allocated collectively before any run.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "rma/comm.hpp"
#include "topo/topology.hpp"

namespace rmalock::rma {

/// A recorded schedule: the rank chosen at every scheduler decision point of
/// a SimWorld run under a list policy (kRandom/kPct/kReplay). Replaying the
/// same picks against the same SimOptions re-executes the run bit-identically
/// (the engine has no other source of nondeterminism); a truncated or edited
/// trace still replays — unmatched decisions fall back to the deterministic
/// smallest-rank policy — which is what makes ddmin-style shrinking possible.
///
/// Armed fault decisions share the pick stream, as negative picks whose
/// encoding rma/faults.hpp documents. A disarmed fault class records
/// nothing, so traces from before it existed stay bit-compatible.
struct ScheduleTrace {
  std::vector<Rank> picks;

  [[nodiscard]] bool empty() const { return picks.empty(); }
  [[nodiscard]] usize size() const { return picks.size(); }

  friend bool operator==(const ScheduleTrace&, const ScheduleTrace&) = default;
};

/// Outcome of one World::run() invocation.
struct RunResult {
  /// True if the runtime detected that every unfinished process was blocked
  /// forever (SimWorld only; ThreadWorld cannot detect this).
  bool deadlocked = false;
  /// True if the configured step limit stopped the run (model checking).
  bool step_limit_hit = false;
  /// Engine steps executed (SimWorld; 0 for ThreadWorld).
  u64 steps = 0;
  /// Virtual (SimWorld) or wall (ThreadWorld) time of the longest process.
  Nanos makespan_ns = 0;
  /// Scheduler decisions taken, when SimOptions::record_schedule was set
  /// under a list policy (kRandom/kPct/kReplay); empty otherwise.
  ScheduleTrace schedule;
  /// kReplay only: decisions whose recorded rank was not runnable (possible
  /// with shrunk/edited traces) and fell back to the smallest runnable rank.
  /// 0 on a faithful replay of an unmodified trace.
  u64 replay_divergences = 0;
  /// Crash events injected at declared crash points (SimWorld with
  /// SimOptions::max_crashes > 0; always 0 otherwise). With restarts
  /// enabled a process can contribute several.
  u64 crashes = 0;
  /// Torn multi-word reads injected at armed get_vec calls (SimWorld with
  /// SimOptions::max_tears > 0; always 0 otherwise).
  u64 tears = 0;
  /// Straggler delays injected at armed remote ops (SimWorld with
  /// SimOptions::max_delays > 0; always 0 otherwise).
  u64 delays = 0;
  /// Transient partitions opened at armed remote ops (SimWorld with
  /// SimOptions::max_partitions > 0; always 0 otherwise).
  u64 partitions = 0;
  /// Clock-drift events injected at armed remote ops (SimWorld with
  /// SimOptions::max_drift_events > 0; always 0 otherwise).
  u64 drift_events = 0;
  /// Ranks that were dead when the run finished (fail-stop crashes, or
  /// crashes whose restart never got scheduled before the run ended).
  std::vector<Rank> crashed_ranks;

  [[nodiscard]] bool ok() const { return !deadlocked && !step_limit_hit; }
};

class World {
 public:
  virtual ~World() = default;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] i32 nprocs() const { return topology_.nprocs(); }

  /// Collectively allocates `words` consecutive window words on every rank,
  /// each starting at `init`, and returns their base offset (same on all
  /// ranks, like an MPI window created over a symmetric heap). Earlier words
  /// keep their values. A structure whose words all start at one value needs
  /// no write_word pass over the ranks. Must not be called during run().
  WinOffset allocate(usize words, i64 init = 0) {
    const WinOffset base = static_cast<WinOffset>(allocated_words_);
    allocated_words_ += words;
    grow_windows(base, init);
    return base;
  }

  [[nodiscard]] usize window_words() const { return allocated_words_; }

  /// Capacity hint: the windows are about to grow to `words` words per
  /// rank through further allocate() calls, so a runtime can size its
  /// storage once instead of regrowing it per call. No-op by default; like
  /// allocate(), not during run().
  virtual void reserve(usize /*words*/) {}

  /// Runs `body` on all P processes and waits for completion.
  virtual RunResult run(const std::function<void(RmaComm&)>& body) = 0;

  /// Direct window access for initialization and post-run inspection
  /// (not legal while run() is in flight).
  [[nodiscard]] virtual i64 read_word(Rank rank, WinOffset offset) const = 0;
  virtual void write_word(Rank rank, WinOffset offset, i64 value) = 0;

  /// Sum of the op statistics of all processes from completed runs.
  [[nodiscard]] virtual OpStats aggregate_stats() const = 0;

 protected:
  explicit World(topo::Topology topology) : topology_(std::move(topology)) {}

  /// Extends every rank's window to window_words() words: the words from
  /// `first` on are new and start at `init`, earlier words are untouched.
  virtual void grow_windows(WinOffset first, i64 init) = 0;

  topo::Topology topology_;

 private:
  usize allocated_words_ = 0;
};

}  // namespace rmalock::rma
