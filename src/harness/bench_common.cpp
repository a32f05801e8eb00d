#include "harness/bench_common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/check.hpp"
#include "harness/task_pool.hpp"

namespace rmalock::harness {

namespace {

/// `text` as one whole integer of type T; aborts naming `var` when any
/// character is left over or the value does not fit.
template <typename T>
T parse_env_int(const char* var, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  RMALOCK_CHECK_MSG(ec == std::errc() && end == text.data() + text.size(),
                    var << "=\"" << text << "\" is not an integer");
  return value;
}

}  // namespace

BenchEnv BenchEnv::from_env() {
  BenchEnv env;
  if (const char* quick = std::getenv("RMALOCK_QUICK");
      quick != nullptr && std::strcmp(quick, "0") != 0) {
    env.quick = true;
    env.ps = {16, 64, 256};
  }
  if (const char* smoke = std::getenv("RMALOCK_SMOKE");
      smoke != nullptr && std::strcmp(smoke, "0") != 0) {
    env.smoke = true;
    env.quick = true;
    env.ps = {16, 32};  // minimal sweep; an explicit RMALOCK_PS still wins
  }
  if (const char* seed = std::getenv("RMALOCK_SEED")) {
    env.seed = parse_env_int<u64>("RMALOCK_SEED", seed);
  }
  if (const char* jobs = std::getenv("RMALOCK_JOBS")) {
    env.jobs = parse_env_int<i32>("RMALOCK_JOBS", jobs);
  }
  if (const char* ps = std::getenv("RMALOCK_PS")) {
    env.ps.clear();
    std::string_view rest = ps;
    for (;;) {
      const usize comma = rest.find(',');
      const i32 p = parse_env_int<i32>("RMALOCK_PS", rest.substr(0, comma));
      RMALOCK_CHECK_MSG(p > 0, "RMALOCK_PS=\"" << ps << "\" has P <= 0");
      env.ps.push_back(p);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  return env;
}

topo::Topology BenchEnv::topology_for(i32 p) const {
  RMALOCK_CHECK_MSG(p >= procs_per_node && p % procs_per_node == 0,
                    "P=" << p << " must be a multiple of procs_per_node="
                         << procs_per_node);
  // Always N = 2 so lock parameters have the same shape across the sweep
  // (a single node is simply a machine with one leaf).
  return topo::Topology::uniform({p / procs_per_node}, procs_per_node);
}

rma::SimOptions BenchEnv::sim_options_for(i32 p) const {
  rma::SimOptions opts;
  opts.topology = topology_for(p);
  opts.seed = seed;
  return opts;
}

i32 BenchEnv::ops_for(i32 p, i32 total_target, i32 min_ops) const {
  const i32 target = smoke ? total_target / 16
                           : (quick ? total_target / 4 : total_target);
  return std::max(min_ops, target / p);
}

namespace {
std::string g_json_path;
std::string g_trace_out_path;
}  // namespace

const std::string& bench_json_path() { return g_json_path; }

const std::string& bench_trace_out_path() { return g_trace_out_path; }

void maybe_write_bench_trace(const obs::Tracer& tracer) {
  if (g_trace_out_path.empty()) return;
  if (obs::write_chrome_trace(tracer, g_trace_out_path)) {
    std::printf("trace written to %s (%llu events, %llu overwritten)\n",
                g_trace_out_path.c_str(),
                static_cast<unsigned long long>(tracer.total_emitted()),
                static_cast<unsigned long long>(tracer.total_dropped()));
  } else {
    std::fprintf(stderr, "warning: could not write %s\n",
                 g_trace_out_path.c_str());
  }
}

const char* bench_git_rev() {
#ifdef RMALOCK_GIT_REV
  return RMALOCK_GIT_REV;
#else
  return "unknown";
#endif
}

void apply_bench_cli(int argc, char** argv) {
  for (i32 i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      setenv("RMALOCK_SMOKE", "1", /*overwrite=*/1);
      // A two-point sweep keeps smoke runs under the ctest budget while
      // still exercising the P-dependent code paths; an explicit
      // RMALOCK_PS from the caller wins.
      setenv("RMALOCK_PS", "16,32", /*overwrite=*/0);
    } else if (std::strcmp(arg, "--quick") == 0) {
      setenv("RMALOCK_QUICK", "1", /*overwrite=*/1);
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      setenv("RMALOCK_JOBS", argv[++i], /*overwrite=*/1);
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      g_json_path = argv[++i];
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--quick] [--jobs <n>] "
                   "[--json <path>] [--trace-out <path>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
}

FigureReport::FigureReport(std::string figure_id, std::string title,
                           std::string paper_expectation)
    : figure_id_(std::move(figure_id)),
      title_(std::move(title)),
      expectation_(std::move(paper_expectation)) {}

void FigureReport::add(const std::string& series, i32 p,
                       const std::string& metric, double value) {
  if (std::find(series_order_.begin(), series_order_.end(), series) ==
      series_order_.end()) {
    series_order_.push_back(series);
  }
  if (std::find(metric_order_.begin(), metric_order_.end(), metric) ==
      metric_order_.end()) {
    metric_order_.push_back(metric);
  }
  if (std::find(ps_.begin(), ps_.end(), p) == ps_.end()) ps_.push_back(p);
  data_[series][p][metric] = value;
}

double FigureReport::value(const std::string& series, i32 p,
                           const std::string& metric) const {
  return data_.at(series).at(p).at(metric);
}

bool FigureReport::has(const std::string& series, i32 p,
                       const std::string& metric) const {
  const auto s = data_.find(series);
  if (s == data_.end()) return false;
  const auto pp = s->second.find(p);
  if (pp == s->second.end()) return false;
  return pp->second.count(metric) > 0;
}

void FigureReport::add_points(const std::vector<SeriesPoint>& points) {
  for (const SeriesPoint& point : points) {
    for (const auto& [metric, value] : point.metrics) {
      add(point.series, point.p, metric, value);
    }
  }
}

void FigureReport::check(const std::string& name, bool pass,
                         const std::string& detail) {
  checks_.push_back(Check{name, pass, detail});
}

void FigureReport::add_metric(const std::string& name, double value) {
  for (auto& [existing, slot] : metrics_) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

void FigureReport::add_histogram(const std::string& name,
                                 const obs::LogHistogram& hist) {
  for (auto& [existing, slot] : histograms_) {
    if (existing == name) {
      slot = hist;
      return;
    }
  }
  histograms_.emplace_back(name, hist);
}

bool FigureReport::all_checks_passed() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.pass; });
}

void FigureReport::print() const {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure_id_.c_str(), title_.c_str());
  std::printf("paper: %s\n", expectation_.c_str());
  std::printf("==========================================================\n");
  for (const std::string& metric : metric_order_) {
    std::printf("\n[%s] %s\n", figure_id_.c_str(), metric.c_str());
    std::printf("%-26s", "series \\ P");
    for (const i32 p : ps_) std::printf("%12d", p);
    std::printf("\n");
    for (const std::string& series : series_order_) {
      std::printf("%-26s", series.c_str());
      for (const i32 p : ps_) {
        if (has(series, p, metric)) {
          std::printf("%12.3f", value(series, p, metric));
        } else {
          std::printf("%12s", "-");
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
  if (!checks_.empty()) {
    std::printf("\n");
    for (const Check& c : checks_) {
      std::printf("SHAPE-CHECK [%s] %s: %s — %s\n", figure_id_.c_str(),
                  c.name.c_str(), c.pass ? "PASS" : "FAIL", c.detail.c_str());
    }
  }
  std::printf("\n");
  std::fflush(stdout);
  if (!bench_json_path().empty()) {
    if (write_json(bench_json_path())) {
      std::printf("JSON written to %s\n\n", bench_json_path().c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   bench_json_path().c_str());
    }
  }
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool FigureReport::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const BenchEnv env = BenchEnv::from_env();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"rmalock-bench-v2\",\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(figure_id_).c_str());
  std::fprintf(f, "  \"title\": \"%s\",\n", json_escape(title_).c_str());
  std::fprintf(f, "  \"git_rev\": \"%s\",\n", json_escape(bench_git_rev()).c_str());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(env.seed));
  std::fprintf(f, "  \"quick\": %s,\n", env.quick ? "true" : "false");
  std::fprintf(f, "  \"smoke\": %s,\n", env.smoke ? "true" : "false");
  std::fprintf(f, "  \"procs_per_node\": %d,\n", env.procs_per_node);
  std::fprintf(f, "  \"jobs\": %d,\n", TaskPool::resolve_jobs(env.jobs));
  std::fprintf(f, "  \"wall_time_s\": %.6f,\n", wall_.elapsed_s());
  std::fprintf(f, "  \"records\": [");
  bool first = true;
  for (const std::string& series : series_order_) {
    for (const i32 p : ps_) {
      for (const std::string& metric : metric_order_) {
        if (!has(series, p, metric)) continue;
        std::fprintf(f, "%s\n    {\"series\": \"%s\", \"p\": %d, "
                     "\"metric\": \"%s\", \"value\": %.9g}",
                     first ? "" : ",", json_escape(series).c_str(), p,
                     json_escape(metric).c_str(), value(series, p, metric));
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"checks\": [");
  for (usize i = 0; i < checks_.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"pass\": %s, "
                 "\"detail\": \"%s\"}",
                 i == 0 ? "" : ",", json_escape(checks_[i].name).c_str(),
                 checks_[i].pass ? "true" : "false",
                 json_escape(checks_[i].detail).c_str());
  }
  std::fprintf(f, "\n  ],\n");
  // v2 additions: run-wide scalar gauges and histogram bucket summaries.
  // Always emitted (empty when unused) so the v2 shape is uniform.
  std::fprintf(f, "  \"metrics\": {");
  for (usize i = 0; i < metrics_.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.9g", i == 0 ? "" : ",",
                 json_escape(metrics_[i].first).c_str(), metrics_[i].second);
  }
  std::fprintf(f, "%s},\n", metrics_.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"histograms\": [");
  for (usize i = 0; i < histograms_.size(); ++i) {
    const obs::LogHistogram& h = histograms_[i].second;
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"count\": %llu, "
                 "\"min\": %.9g, \"max\": %.9g, \"mean\": %.9g, "
                 "\"p50\": %.9g, \"p95\": %.9g, \"p99\": %.9g, "
                 "\"buckets\": [",
                 i == 0 ? "" : ",", json_escape(histograms_[i].first).c_str(),
                 static_cast<unsigned long long>(h.count()), h.min(), h.max(),
                 h.mean(), h.percentile(50), h.percentile(95),
                 h.percentile(99));
    const std::vector<obs::LogHistogram::Bucket> buckets = h.buckets();
    for (usize b = 0; b < buckets.size(); ++b) {
      std::fprintf(f, "%s{\"lo\": %.9g, \"hi\": %.9g, \"count\": %llu}",
                   b == 0 ? "" : ", ", buckets[b].lo, buckets[b].hi,
                   static_cast<unsigned long long>(buckets[b].count));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "%s]\n}\n", histograms_.empty() ? "" : "\n  ");
  std::fclose(f);
  return true;
}

}  // namespace rmalock::harness
