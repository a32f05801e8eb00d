// Per-process RMA operation statistics.
//
// Counters are indexed by (operation kind, distance class). Distance class 0
// is a self access, 1 is within the leaf element (same compute node), and
// class c >= 2 means the deepest common element of origin and target is
// level N - c + 1 (higher class = farther). These counters drive the
// topology ablation (bench/ablation_topology) and the locality property
// tests: e.g., RMA-MCS must issue asymptotically fewer class>=2 ops per
// acquire than D-MCS.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "rma/op.hpp"
#include "topo/topology.hpp"

namespace rmalock::rma {

/// Distance class of an access from `origin` to `target` under `topo`:
/// 0 = self, 1 = same leaf, ..., N = crosses the whole machine.
[[nodiscard]] inline i32 distance_class(const topo::Topology& topo,
                                        Rank origin, Rank target) {
  if (origin == target) return 0;
  return topo.num_levels() - topo.common_level(origin, target) + 1;
}

class OpStats {
 public:
  OpStats() = default;
  explicit OpStats(i32 num_distance_classes)
      : width_(static_cast<usize>(num_distance_classes) + 1),
        counts_(kOpKindCount * width_, 0) {}

  void record(OpKind kind, i32 dclass) {
    ++counts_[slot(kind, static_cast<usize>(dclass))];
  }

  [[nodiscard]] u64 count(OpKind kind, i32 dclass) const {
    return counts_[slot(kind, static_cast<usize>(dclass))];
  }

  /// All ops of one kind across distances.
  [[nodiscard]] u64 total(OpKind kind) const {
    u64 sum = 0;
    for (usize d = 0; d < width_; ++d) sum += counts_[slot(kind, d)];
    return sum;
  }

  /// All ops with distance class >= dclass ("remote traffic beyond ...").
  [[nodiscard]] u64 total_at_least(i32 dclass) const {
    u64 sum = 0;
    for (usize k = 0; k < kOpKindCount; ++k) {
      for (usize d = static_cast<usize>(dclass); d < width_; ++d) {
        sum += counts_[k * width_ + d];
      }
    }
    return sum;
  }

  [[nodiscard]] u64 total_ops() const { return total_at_least(0); }

  /// The `num_distance_classes` the stats were constructed with. A row
  /// holds one extra slot (class 0 = self), so this subtracts it back out
  /// rather than reporting the raw row width.
  [[nodiscard]] i32 num_distance_classes() const {
    return width_ == 0 ? 0 : static_cast<i32>(width_) - 1;
  }

  void reset() { std::fill(counts_.begin(), counts_.end(), 0); }

  OpStats& operator+=(const OpStats& other) {
    if (counts_.empty()) {
      *this = other;
      return *this;
    }
    combine(other, [](u64& a, u64 b) { a += b; });
    return *this;
  }

  /// Counter-wise difference (for measuring a phase: after - before).
  OpStats& operator-=(const OpStats& other) {
    combine(other, [](u64& a, u64 b) { a -= b; });
    return *this;
  }

 private:
  [[nodiscard]] usize slot(OpKind kind, usize dclass) const {
    return static_cast<usize>(kind) * width_ + dclass;
  }

  /// Applies `op` to every (kind, class) counter both stats hold.
  template <typename Op>
  void combine(const OpStats& other, Op op) {
    const usize width = std::min(width_, other.width_);
    for (usize k = 0; k < kOpKindCount; ++k) {
      for (usize d = 0; d < width; ++d) {
        op(counts_[k * width_ + d], other.counts_[k * other.width_ + d]);
      }
    }
  }

  usize width_ = 0;  // distance classes per kind, self (class 0) included
  // counts_[kind * width_ + distance_class]: one flat row per op kind.
  std::vector<u64> counts_;
};

}  // namespace rmalock::rma
