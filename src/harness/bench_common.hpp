// Shared scaffolding for the figure-reproduction benchmark binaries.
//
// Every bench binary sweeps P like the paper (16..1024, 16 processes per
// node, N = 2 machine levels), prints an aligned series table, and ends
// with SHAPE-CHECK verdicts that compare the measured ordering/ratios
// against the paper's qualitative claims (absolute numbers are not
// expected to match — see EXPERIMENTS.md). --json writes the same points
// as machine-readable records.
//
// Environment knobs:
//   RMALOCK_PS     comma-separated P sweep override (e.g. "16,64,256")
//   RMALOCK_QUICK  =1: small sweep and fewer ops (CI smoke)
//   RMALOCK_SMOKE  =1: minimal sweep, must finish in <2s (ctest smoke);
//                  implies RMALOCK_QUICK
//   RMALOCK_SEED   world seed (default 1)
//   RMALOCK_JOBS   campaign worker threads (default 1 = sequential;
//                  0 = all hardware threads) — see docs/PERF.md,
//                  "Parallel campaigns"
// A numeric value that does not parse completely, or a P <= 0, aborts with
// a message naming the variable.
//
// Bench mains call apply_bench_cli(argc, argv) first, which maps the
// --smoke / --quick / --jobs flags onto these knobs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "obs/hist.hpp"
#include "obs/trace.hpp"
#include "rma/sim_world.hpp"
#include "topo/topology.hpp"

namespace rmalock::harness {

struct BenchEnv {
  std::vector<i32> ps{16, 32, 64, 128, 256, 512, 1024};
  i32 procs_per_node = 16;
  u64 seed = 1;
  bool quick = false;
  bool smoke = false;
  /// Campaign worker threads (--jobs / RMALOCK_JOBS): 1 = sequential
  /// (default), <= 0 = all hardware threads. Parallel sweeps keep every
  /// virtual-time metric bit-identical to the sequential run; only wall
  /// clock changes.
  i32 jobs = 1;

  static BenchEnv from_env();

  /// Paper machine model: N = 2 (whole machine + compute nodes).
  [[nodiscard]] topo::Topology topology_for(i32 p) const;

  /// SimWorld options for one configuration.
  [[nodiscard]] rma::SimOptions sim_options_for(i32 p) const;

  /// Per-process op count that keeps the total near `total_target`
  /// (deterministic virtual time needs no large samples; this bounds
  /// engine wall time at high P).
  [[nodiscard]] i32 ops_for(i32 p, i32 total_target, i32 min_ops = 4) const;
};

/// Translates bench CLI flags into the environment knobs above, so every
/// bench binary accepts the same interface:
///   --smoke        minimal sweep for ctest smoke runs (sets RMALOCK_SMOKE
///                  and, unless the caller exported one, RMALOCK_PS=16,32)
///   --quick        the RMALOCK_QUICK=1 sweep
///   --jobs <n>     campaign worker threads (RMALOCK_JOBS; 1 = sequential
///                  default, 0 = all hardware threads)
///   --json <path>  write the figure's results as a machine-readable
///                  "rmalock-bench-v2" JSON record to <path> when the
///                  report is printed (see docs/PERF.md for the schema and
///                  how to compare records across revisions)
///   --trace-out <path>  arm the deterministic event tracer for (part of)
///                  the run and write a Chrome trace-event / Perfetto JSON
///                  file to <path> (see docs/OBSERVABILITY.md)
/// Unknown arguments abort with a usage message. Must run before the first
/// BenchEnv::from_env() call.
void apply_bench_cli(int argc, char** argv);

/// Path given via --json ("" when absent).
[[nodiscard]] const std::string& bench_json_path();

/// Path given via --trace-out ("" when absent). Benches that support trace
/// export arm an obs::Tracer on one representative configuration when this
/// is non-empty and hand it to maybe_write_bench_trace.
[[nodiscard]] const std::string& bench_trace_out_path();

/// Writes `tracer`'s events to bench_trace_out_path() as Chrome trace-event
/// JSON (no-op when --trace-out was absent). Prints where the trace went;
/// warns and keeps going on I/O failure — tracing must never kill a bench.
void maybe_write_bench_trace(const obs::Tracer& tracer);

/// Git revision the binary was built from (CMake configure-time stamp;
/// "unknown" outside a git checkout).
[[nodiscard]] const char* bench_git_rev();

/// Collects (series, P, metric) -> value, renders figure output.
class FigureReport {
 public:
  FigureReport(std::string figure_id, std::string title,
               std::string paper_expectation);

  void add(const std::string& series, i32 p, const std::string& metric,
           double value);

  /// One sweep point's metrics, produced by a (possibly parallel) measure
  /// step and merged later. Keeping the measurement result separate from
  /// the report lets a TaskPool fill pre-sized slots concurrently while
  /// the report itself stays single-threaded.
  struct SeriesPoint {
    std::string series;
    i32 p = 0;
    std::vector<std::pair<std::string, double>> metrics;

    bool operator==(const SeriesPoint&) const = default;
  };

  /// Order-preserving merge: adds every point exactly as a sequential
  /// loop of add() calls would, so series/metric/P orderings (and thus
  /// tables and JSON records) are independent of the order in
  /// which parallel workers finished the measurements.
  void add_points(const std::vector<SeriesPoint>& points);

  [[nodiscard]] double value(const std::string& series, i32 p,
                             const std::string& metric) const;
  [[nodiscard]] bool has(const std::string& series, i32 p,
                         const std::string& metric) const;

  /// Records a qualitative comparison against the paper.
  void check(const std::string& name, bool pass, const std::string& detail);

  /// Records one named scalar gauge for the JSON "metrics" object (v2):
  /// run-wide observability counters that are not (series, P) sweep points —
  /// per-shard LockSpace gauges, fault-event counts, tracer totals. Last
  /// write wins; insertion order is preserved in the JSON.
  void add_metric(const std::string& name, double value);

  /// Records one named latency histogram for the JSON "histograms" array
  /// (v2): bucket-level summaries (count/min/max/mean/p50/p95/p99 plus the
  /// occupied log-buckets) of a streaming histogram. Last write wins;
  /// insertion order is preserved in the JSON.
  void add_histogram(const std::string& name, const obs::LogHistogram& hist);

  /// Prints the header, one pivot table per metric (rows = series,
  /// columns = P), and the shape-check verdicts. Also writes the JSON
  /// record when --json was given (see write_json).
  void print() const;

  /// Writes the report as one "rmalock-bench-v2" JSON object:
  /// {schema, bench, title, git_rev, seed, quick, smoke, procs_per_node,
  ///  jobs, wall_time_s,
  ///  records: [{series, p, metric, value}...],
  ///  checks: [{name, pass, detail}...],
  ///  metrics: {name: value, ...},
  ///  histograms: [{name, count, min, max, mean, p50, p95, p99,
  ///                buckets: [{lo, hi, count}...]}...]}.
  /// Every v1 key keeps its v1 meaning, so v1 readers (which key off
  /// "records"/"checks" and tolerate unknown keys) still parse v2 records;
  /// "metrics" and "histograms" are the v2 additions (empty when unused).
  /// `jobs` is the resolved campaign worker count and `wall_time_s` the
  /// wall clock from report construction to this write — together they
  /// let cross-revision comparisons separate engine regressions from
  /// parallel-speedup changes. Returns false (and keeps going — benches
  /// must not die on I/O) when the file cannot be written.
  bool write_json(const std::string& path) const;

  /// True iff all shape checks passed.
  [[nodiscard]] bool all_checks_passed() const;

 private:
  struct Check {
    std::string name;
    bool pass;
    std::string detail;
  };

  std::string figure_id_;
  std::string title_;
  std::string expectation_;
  std::vector<std::string> series_order_;
  std::vector<std::string> metric_order_;
  std::vector<i32> ps_;
  std::map<std::string, std::map<i32, std::map<std::string, double>>> data_;
  std::vector<Check> checks_;
  // Insertion-ordered so the JSON byte layout is deterministic.
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, obs::LogHistogram>> histograms_;
  /// Started at construction; write_json() reports its elapsed seconds as
  /// the campaign's wall time.
  Timer wall_;
};

}  // namespace rmalock::harness
