#include "mc/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace rmalock::mc {

const char* policy_name(rma::SchedPolicy policy) {
  switch (policy) {
    case rma::SchedPolicy::kVirtualTime:
      return "virtual-time";
    case rma::SchedPolicy::kRandom:
      return "random";
    case rma::SchedPolicy::kPct:
      return "pct";
    case rma::SchedPolicy::kReplay:
      return "replay";
  }
  return "random";
}

namespace {

// v2 added the crash-injection keys and the negative crash picks; v1 files
// (no crash model) parse unchanged. v3 adds the torn-read keys — emitted
// (and the magic bumped) only when the fault model is armed, so every
// pre-tear case keeps serializing byte-identically as v2. v4 adds the
// gray-failure keys ("delays"/"partitions") under the same rule: emitted
// (and the magic bumped) only when the gray model is armed, keeping every
// pre-gray case byte-identical in its older format. v5 adds the clock-drift
// key ("drift") under the same rule again.
const char kMagicV5[] = "rmalock-trace v5";
const char kMagicV4[] = "rmalock-trace v4";
const char kMagicV3[] = "rmalock-trace v3";
const char kMagic[] = "rmalock-trace v2";
const char kMagicV1[] = "rmalock-trace v1";

bool parse_policy(const std::string& name, rma::SchedPolicy* out) {
  if (name == "virtual-time") *out = rma::SchedPolicy::kVirtualTime;
  else if (name == "random") *out = rma::SchedPolicy::kRandom;
  else if (name == "pct") *out = rma::SchedPolicy::kPct;
  else if (name == "replay") *out = rma::SchedPolicy::kReplay;
  else return false;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Reads the next whitespace-delimited field into `out`; false if it is
/// missing, malformed, out of range for T, or followed by junk.
template <typename T>
bool read_field(std::istream& fields, T* out) {
  std::string token;
  if (!(fields >> token)) return false;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Reads every remaining field of a line, in order; false if any fails.
template <typename... T>
bool read_fields(std::istream& fields, T*... out) {
  return (read_field(fields, out) && ...);
}

/// Parses a "topology" line's fields, rejecting process counts above
/// kMaxTraceProcs before anything multiplies them.
bool parse_topology(std::istream& fields, topo::Topology* out) {
  std::string fanout_spec;
  i32 procs_per_leaf = 0;
  if (!(fields >> fanout_spec) || !read_field(fields, &procs_per_leaf) ||
      procs_per_leaf < 1 || procs_per_leaf > kMaxTraceProcs) {
    return false;
  }
  std::vector<i32> fanouts;
  i32 procs = procs_per_leaf;
  if (fanout_spec != "-") {
    std::istringstream spec(fanout_spec);
    i32 fanout = 0;
    while (spec.peek() != EOF) {
      std::string item;
      std::getline(spec, item, ',');
      std::istringstream one(item);
      if (!read_field(one, &fanout) || fanout < 1 ||
          fanout > kMaxTraceProcs / procs) {
        return false;
      }
      procs *= fanout;
      fanouts.push_back(fanout);
    }
  }
  *out = topo::Topology::uniform(std::move(fanouts), procs_per_leaf);
  return true;
}

}  // namespace

std::string serialize_trace(const TraceCase& c) {
  const bool gray = c.max_delays != 0 || c.max_partitions != 0;
  const bool drift = c.max_drift_events != 0;
  std::ostringstream out;
  out << (drift ? kMagicV5
                : (gray ? kMagicV4 : (c.max_tears != 0 ? kMagicV3 : kMagic)))
      << "\n";
  out << "workload " << c.workload << "\n";
  out << "lock " << c.lock_name << "\n";
  out << "kind " << c.kind << "\n";
  out << "topology ";
  const auto& fanouts = c.topology.fanouts();
  if (fanouts.empty()) {
    out << "-";
  } else {
    for (usize i = 0; i < fanouts.size(); ++i) {
      out << (i > 0 ? "," : "") << fanouts[i];
    }
  }
  out << " " << c.topology.procs_per_leaf() << "\n";
  out << "policy " << policy_name(c.recorded_policy) << "\n";
  out << "seed " << c.world_seed << "\n";
  out << "acquires " << c.acquires_per_proc << "\n";
  out << "writer_fraction "
      << std::setprecision(std::numeric_limits<double>::max_digits10)
      << c.writer_fraction << "\n";
  if (!c.writer_roles.empty()) {
    out << "roles ";
    for (const bool writer : c.writer_roles) out << (writer ? '1' : '0');
    out << "\n";
  }
  out << "max_steps " << c.max_steps << "\n";
  if (c.max_crashes != 0) {
    out << "crashes " << c.max_crashes << " " << c.crash_chance_permille << " "
        << (c.restart_crashed ? 1 : 0) << " "
        << (c.adversarial_suspicion ? 1 : 0) << "\n";
  }
  if (c.max_tears != 0) {
    out << "tears " << c.max_tears << " " << c.tear_chance_permille << "\n";
  }
  if (gray) {
    out << "delays " << c.max_delays << " " << c.delay_chance_permille << " "
        << c.delay_factor << "\n";
    out << "partitions " << c.max_partitions << " " << c.partition_span
        << "\n";
  }
  if (drift) {
    out << "drift " << c.max_drift_events << " " << c.drift_chance_permille
        << " " << c.max_drift_permille << " " << c.skew_window << "\n";
  }
  out << "picks " << c.trace.picks.size() << "\n";
  for (usize i = 0; i < c.trace.picks.size(); ++i) {
    out << c.trace.picks[i] << ((i + 1) % 32 == 0 ? "\n" : " ");
  }
  if (c.trace.picks.size() % 32 != 0) out << "\n";
  return out.str();
}

bool parse_trace(const std::string& text, TraceCase* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) ||
      (line != kMagic && line != kMagicV1 && line != kMagicV3 &&
       line != kMagicV4 && line != kMagicV5)) {
    return fail(error, "missing 'rmalock-trace v1/v2/v3/v4/v5' header");
  }
  *out = TraceCase{};
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // blank line
    bool ok = true;
    // Free-form strings (workload, lock, kind, roles) may be empty.
    if (key == "workload") {
      fields >> out->workload;
    } else if (key == "lock") {
      // Lock names may contain spaces; take the rest of the line.
      std::getline(fields >> std::ws, out->lock_name);
    } else if (key == "kind") {
      fields >> out->kind;
    } else if (key == "topology") {
      ok = parse_topology(fields, &out->topology);
    } else if (key == "policy") {
      std::string name;
      ok = (fields >> name) && parse_policy(name, &out->recorded_policy);
    } else if (key == "seed") {
      ok = read_field(fields, &out->world_seed);
    } else if (key == "acquires") {
      ok = read_field(fields, &out->acquires_per_proc);
    } else if (key == "writer_fraction") {
      ok = read_field(fields, &out->writer_fraction);
    } else if (key == "roles") {
      std::string bits;
      fields >> bits;
      out->writer_roles.clear();
      for (const char c : bits) {
        ok = ok && (c == '0' || c == '1');
        out->writer_roles.push_back(c == '1');
      }
    } else if (key == "max_steps") {
      ok = read_field(fields, &out->max_steps);
    } else if (key == "crashes") {
      i32 restart = 0;
      i32 adversarial = 0;
      ok = read_fields(fields, &out->max_crashes, &out->crash_chance_permille,
                       &restart, &adversarial);
      out->restart_crashed = restart != 0;
      out->adversarial_suspicion = adversarial != 0;
    } else if (key == "tears") {
      ok = read_fields(fields, &out->max_tears, &out->tear_chance_permille);
    } else if (key == "delays") {
      ok = read_fields(fields, &out->max_delays, &out->delay_chance_permille,
                       &out->delay_factor);
    } else if (key == "partitions") {
      ok = read_fields(fields, &out->max_partitions, &out->partition_span);
    } else if (key == "drift") {
      ok = read_fields(fields, &out->max_drift_events,
                       &out->drift_chance_permille, &out->max_drift_permille,
                       &out->skew_window);
    } else if (key == "picks") {
      // Every pick takes at least one byte of input: a larger count is
      // malformed, and bounding it first keeps the reserve below in check.
      usize count = 0;
      if (!read_field(fields, &count) || count > text.size()) {
        return fail(error, "bad picks count: " + line);
      }
      out->trace.picks.clear();
      out->trace.picks.reserve(count);
      // Picks may span lines: read from the underlying stream.
      for (usize i = 0; i < count; ++i) {
        Rank pick;
        if (!(fields >> pick) && !(in >> pick)) {
          return fail(error, "trace truncated: expected " +
                                 std::to_string(count) + " picks, got " +
                                 std::to_string(i));
        }
        out->trace.picks.push_back(pick);
      }
    }
    // Unknown keys: ignored (forward compatibility).
    if (!ok) return fail(error, "bad " + key + " line: " + line);
  }
  if (!out->writer_roles.empty() &&
      out->writer_roles.size() !=
          static_cast<usize>(out->topology.nprocs())) {
    return fail(error, "roles line has " +
                           std::to_string(out->writer_roles.size()) +
                           " entries for " +
                           std::to_string(out->topology.nprocs()) +
                           " processes");
  }
  return true;
}

bool write_trace_file(const std::string& path, const TraceCase& c,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) return fail(error, "cannot open for writing: " + path);
  out << serialize_trace(c);
  out.flush();
  if (!out) return fail(error, "write failed: " + path);
  return true;
}

bool read_trace_file(const std::string& path, TraceCase* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace(text.str(), out, error);
}

// ---------------------------------------------------------------------------
// ddmin shrinking
// ---------------------------------------------------------------------------

rma::ScheduleTrace shrink_trace(const rma::ScheduleTrace& failing,
                                const TraceOracle& still_fails,
                                u64 max_replays, ShrinkStats* stats) {
  ShrinkStats local;
  local.initial_len = failing.picks.size();
  std::vector<Rank> current = failing.picks;

  const auto budget_left = [&] {
    return max_replays == 0 || local.replays < max_replays;
  };
  const auto fails = [&](const std::vector<Rank>& picks) {
    if (!budget_left()) return false;
    ++local.replays;
    rma::ScheduleTrace candidate;
    candidate.picks = picks;
    return still_fails(candidate);
  };

  // Stage 0: the empty trace (pure fallback schedule) may already fail.
  if (!current.empty() && fails({})) {
    current.clear();
  }

  // Stage 1: shortest failing prefix. Replay of a prefix re-executes the
  // recorded run unchanged up to the violation point, so failing-ness is
  // monotone in prefix length — binary search applies. This discards all
  // decisions recorded after the violation in O(log n) replays.
  if (!current.empty()) {
    usize lo = 0;                  // longest known-good prefix length - 1
    usize hi = current.size();     // shortest known-failing prefix length
    while (lo + 1 < hi && budget_left()) {
      const usize mid = lo + (hi - lo) / 2;
      std::vector<Rank> prefix(current.begin(),
                               current.begin() + static_cast<i64>(mid));
      if (fails(prefix)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    current.resize(hi);
  }

  // Stage 2: ddmin over the remaining picks — try removing each of n chunks'
  // complement; on success restart coarse, otherwise refine granularity.
  usize n = 2;
  while (current.size() >= 2 && budget_left()) {
    const usize chunk = std::max<usize>(1, (current.size() + n - 1) / n);
    bool reduced = false;
    for (usize start = 0; start < current.size() && budget_left();
         start += chunk) {
      const usize end = std::min(start + chunk, current.size());
      std::vector<Rank> candidate;
      candidate.reserve(current.size() - (end - start));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<i64>(start));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<i64>(end), current.end());
      if (fails(candidate)) {
        current = std::move(candidate);
        n = std::max<usize>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;  // 1-minimal: no single pick can be removed
      n = std::min(current.size(), n * 2);
    }
  }

  local.final_len = current.size();
  if (stats != nullptr) *stats = local;
  rma::ScheduleTrace result;
  result.picks = std::move(current);
  return result;
}

}  // namespace rmalock::mc
