// Schedule traces: serialization and counterexample shrinking.
//
// A SimWorld run under a list policy (kRandom/kPct/kReplay) is fully
// determined by its SimOptions seed plus the sequence of scheduler picks
// (rma::ScheduleTrace). This module makes that pair a first-class artifact:
//
//   * TraceCase bundles a trace with everything needed to re-execute it —
//     topology, world seed, workload shape, and the fault knobs — in a
//     line-oriented text format. A disarmed fault class writes no line, and
//     the magic names the newest class armed: "rmalock-trace v5" with drift
//     (a "drift" line), v4 with the gray model ("delays"/"partitions"), v3
//     with tears ("tears"), v2 otherwise; v1 files (which predate the crash
//     model) still parse. Fault decisions live in the picks stream as
//     negative picks (encoding: rma/faults.hpp).
//   * shrink_trace() reduces a failing trace to a minimal counterexample
//     with the classic delta-debugging loop (Zeller & Hildebrandt's ddmin):
//     first the shortest failing prefix (violations are detected during
//     execution, so failing-ness is monotone in prefix length and binary
//     search applies), then complement-based chunk removal. Replaying a
//     shortened trace is always well-defined because SimWorld falls back to
//     the deterministic smallest-rank policy beyond (or on divergence from)
//     the trace.
#pragma once

#include <functional>
#include <string>

#include "rma/sim_world.hpp"

namespace rmalock::mc {

/// A self-contained, serializable repro case: one recorded schedule plus the
/// workload parameters and fault knobs (rma::FaultKnobs) needed to
/// re-execute it. `workload` is a free-form id the producing binary
/// understands (mc_verification maps it back to a workload); everything
/// else is interpreted by the checker itself.
struct TraceCase : rma::FaultKnobs {
  std::string workload;    // producer-defined workload id (e.g. "ex:rma-mcs")
  std::string lock_name;   // informational: Lock::name() of the subject
  std::string kind;        // violation kind: "mutex", "deadlock", or "none"
  topo::Topology topology;
  rma::SchedPolicy recorded_policy = rma::SchedPolicy::kRandom;
  u64 world_seed = 1;      // SimOptions::seed of the recorded run
  i32 acquires_per_proc = 0;
  double writer_fraction = 0.5;
  /// Explicit per-rank roles (CheckConfig::writer_roles); empty = roles
  /// drawn from (world_seed, rank) with writer_fraction.
  std::vector<bool> writer_roles;
  u64 max_steps = 0;
  rma::ScheduleTrace trace;
};

/// Largest process count a trace file may declare: well above the 1024 the
/// benches run, small enough that replaying it stays within memory.
inline constexpr i32 kMaxTraceProcs = 4096;

/// Human-readable policy name ("virtual-time"/"random"/"pct"/"replay").
[[nodiscard]] const char* policy_name(rma::SchedPolicy policy);

/// Renders a TraceCase in the "rmalock-trace" text format.
[[nodiscard]] std::string serialize_trace(const TraceCase& c);

/// Parses serialize_trace() output. Returns false (and sets *error when
/// non-null) on malformed input — a known key whose value does not parse,
/// a topology over kMaxTraceProcs processes, a picks count beyond the
/// input — and never throws; unknown keys are ignored for forward
/// compatibility.
bool parse_trace(const std::string& text, TraceCase* out, std::string* error);

/// File wrappers around serialize/parse. Return false on I/O or parse
/// errors (with *error set when non-null).
bool write_trace_file(const std::string& path, const TraceCase& c,
                      std::string* error);
bool read_trace_file(const std::string& path, TraceCase* out,
                     std::string* error);

/// Oracle for shrinking: replays a candidate trace and returns true iff the
/// original violation still reproduces (same kind; counts may differ).
using TraceOracle = std::function<bool(const rma::ScheduleTrace&)>;

struct ShrinkStats {
  u64 replays = 0;         // oracle invocations spent
  usize initial_len = 0;
  usize final_len = 0;
};

/// ddmin-style reduction of `failing` (which must satisfy the oracle) to a
/// locally minimal counterexample. `max_replays` bounds the oracle budget
/// (0 = unbounded); the result always satisfies the oracle.
[[nodiscard]] rma::ScheduleTrace shrink_trace(const rma::ScheduleTrace& failing,
                                              const TraceOracle& still_fails,
                                              u64 max_replays = 2000,
                                              ShrinkStats* stats = nullptr);

}  // namespace rmalock::mc
