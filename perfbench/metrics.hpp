// The benchmark's own metric math: percentiles, medians and the reporting
// rule for timings. It deliberately shares no code with obs::LogHistogram
// or harness::summarize, so a later change to those cannot move a number
// this benchmark prints.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// sample such that at least q percent of the samples are <= it. Exact (no
/// interpolation, no bucketing), so a virtual-time percentile reproduces
/// bit for bit. q in [0, 100]; an empty sample gives 0.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  double rank = std::ceil(q / 100.0 * n);
  if (rank < 1.0) rank = 1.0;
  if (rank > n) rank = n;
  return sorted[static_cast<std::size_t>(rank) - 1];
}

/// The highest percentile (in hundredths) that still leaves at least ten
/// samples above it under the nearest-rank rule, or -1 when the sample has
/// fewer than 11 values. This is the tail a timing is reported with.
inline double tail_percentile(std::size_t n) {
  if (n < 11) return -1.0;
  const double q =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::floor(q * 100.0) / 100.0;
}

/// Median by the nearest-rank rule on a copy (the lower middle value for an
/// even count, so the result is always one of the samples).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

/// One timing distribution as it is reported: median, the named p99, the
/// highest percentile with ten samples beyond it, and the sample count.
struct Dist {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double tail_q = -1;  // -1: fewer than 11 samples, no tail reported
  double tail = 0;
};

/// Sorts `values` in place and summarizes them.
inline Dist summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  Dist d;
  d.n = values.size();
  d.p50 = percentile_sorted(values, 50.0);
  d.p99 = percentile_sorted(values, 99.0);
  d.tail_q = tail_percentile(values.size());
  if (d.tail_q >= 0) d.tail = percentile_sorted(values, d.tail_q);
  return d;
}

/// Metric and workload names are restricted to [A-Za-z0-9_.-]+, starting
/// with a letter or digit, at most 64 characters.
inline bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name[0])) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

/// FNV-1a over 64-bit words: the fingerprint that proves two runs of one
/// build produced the same virtual-time results.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t word) { add(static_cast<std::uint64_t>(word)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
