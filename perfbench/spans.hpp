// The benchmark's own spans: recorded from outside the library, around the
// calls the benchmark makes into each layer, and kept in memory until the run
// ends.
//
// A rank span is stamped with the calling rank's virtual clock
// (RmaComm::now_ns) and carries the rank's OpStats delta over the call.
// SimWorld serves both reads as plain loads, so recording a span cannot
// perturb the run: a traced iteration must reproduce the untraced one bit
// for bit, which the benchmark checks. A root span is a host-level phase
// (world creation, lock build, World::run, the explorer call) and is the
// only kind that records wall time: inside World::run the ranks are fibers
// interleaved on one thread, so a per-call wall duration would include
// other ranks' work.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rma/comm.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  // Root spans (host level, wall time).
  kWorldCreate,
  kLockBuild,
  kSpaceBuild,
  kWorldRun,
  kExplore,
  // Rank spans (virtual time).
  kRequest,
  kKeygen,
  kThink,
  kSpaceAcquireRead,
  kSpaceAcquire,
  kSpaceTryAcquire,
  kSpaceReleaseRead,
  kSpaceRelease,
  kLockAcquireRead,
  kLockAcquireWrite,
  kLockReleaseRead,
  kLockReleaseWrite,
  kPayloadGet,
  kPayloadPut,
  kCount,
};

/// Span names are "<layer>.<call>", the layer being the library module the
/// call enters.
inline const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorldCreate: return "rma.world_create";
    case SpanKind::kLockBuild: return "locks.build";
    case SpanKind::kSpaceBuild: return "lockspace.build";
    case SpanKind::kWorldRun: return "rma.world_run";
    case SpanKind::kExplore: return "mc.check_rw_exhaustive";
    case SpanKind::kRequest: return "workload.request";
    case SpanKind::kKeygen: return "workload.keygen_next";
    case SpanKind::kThink: return "workload.think";
    case SpanKind::kSpaceAcquireRead: return "lockspace.acquire_read";
    case SpanKind::kSpaceAcquire: return "lockspace.acquire";
    case SpanKind::kSpaceTryAcquire: return "lockspace.try_acquire_for";
    case SpanKind::kSpaceReleaseRead: return "lockspace.release_read";
    case SpanKind::kSpaceRelease: return "lockspace.release";
    case SpanKind::kLockAcquireRead: return "locks.acquire_read";
    case SpanKind::kLockAcquireWrite: return "locks.acquire_write";
    case SpanKind::kLockReleaseRead: return "locks.release_read";
    case SpanKind::kLockReleaseWrite: return "locks.release_write";
    case SpanKind::kPayloadGet: return "rma.payload_get";
    case SpanKind::kPayloadPut: return "rma.payload_put";
    case SpanKind::kCount: break;
  }
  return "?";
}

/// Op counts of one OpStats, in the classes the per-layer metrics use.
struct OpCounts {
  std::uint64_t ops = 0;      // every recorded op, flushes included
  std::uint64_t atomics = 0;  // FAO + CAS + Accumulate
  std::uint64_t remote = 0;   // distance class >= 2 (leaves the node)
};

inline OpCounts op_counts(const rmalock::rma::OpStats& stats) {
  using rmalock::rma::OpKind;
  OpCounts c;
  c.ops = stats.total_ops();
  c.atomics = stats.total(OpKind::kFao) + stats.total(OpKind::kCas) +
              stats.total(OpKind::kAccumulate);
  c.remote = stats.total_at_least(2);
  return c;
}

/// Op counts of one span: the caller's OpStats delta over the call. 32-bit
/// (deltas wrap correctly) to keep a traced run's span log compact.
struct SpanOps {
  std::uint32_t ops = 0;
  std::uint32_t atomics = 0;
  std::uint32_t remote = 0;
};

struct Span {
  std::int32_t parent = -1;
  std::int32_t rank = -1;  // -1: root span
  std::uint32_t request = 0;
  SpanOps ops;
  std::int64_t vstart = 0;  // virtual ns
  std::int64_t vend = 0;
  std::int64_t wall_ns = -1;  // root spans only
  SpanKind kind = SpanKind::kRequest;
  bool sampled = true;  // written by write_tsv (see kSampledRequests)

  [[nodiscard]] std::int64_t vdur() const { return vend - vstart; }
};

class SpanLog {
 public:
  /// write_tsv keeps every root span and the spans of each rank's first
  /// kSampledRequests requests: the full log of a traced run holds millions
  /// of spans, and the report's per-name table already covers all of them.
  static constexpr std::uint32_t kSampledRequests = 32;

  explicit SpanLog(int nprocs)
      : stacks_(static_cast<std::size_t>(nprocs)),
        requests_(static_cast<std::size_t>(nprocs), 0) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Opens a host-level span; wall time runs until end_root.
  int begin_root(SpanKind kind) {
    Span s;
    s.kind = kind;
    s.parent = roots_.empty() ? -1 : roots_.back();
    s.wall_ns = wall_now();
    spans_.push_back(s);
    roots_.push_back(static_cast<int>(spans_.size()) - 1);
    return roots_.back();
  }
  /// Closes the innermost root span; `vdur_ns` is its virtual duration
  /// (World::run's makespan, 0 for phases outside virtual time).
  void end_root(int id, std::int64_t vdur_ns) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.wall_ns = wall_now() - s.wall_ns;
    s.vend = vdur_ns;
    roots_.pop_back();
  }

  int begin(rmalock::rma::RmaComm& comm, SpanKind kind, std::uint64_t request) {
    auto& stack = stacks_[static_cast<std::size_t>(comm.rank())];
    Span s;
    s.kind = kind;
    s.rank = comm.rank();
    s.request = static_cast<std::uint32_t>(request);
    s.parent = !stack.empty() ? stack.back()
                              : (roots_.empty() ? -1 : roots_.back());
    if (kind == SpanKind::kRequest) {
      s.sampled = ++requests_[static_cast<std::size_t>(comm.rank())] <=
                  kSampledRequests;
    } else if (!stack.empty()) {
      s.sampled = spans_[static_cast<std::size_t>(stack.back())].sampled;
    }
    s.vstart = comm.now_ns();
    s.ops = truncated(op_counts(comm.stats()));
    spans_.push_back(s);
    stack.push_back(static_cast<int>(spans_.size()) - 1);
    return stack.back();
  }
  void end(rmalock::rma::RmaComm& comm, int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.vend = comm.now_ns();
    const SpanOps now = truncated(op_counts(comm.stats()));
    s.ops.ops = now.ops - s.ops.ops;
    s.ops.atomics = now.atomics - s.ops.atomics;
    s.ops.remote = now.remote - s.ops.remote;
    stacks_[static_cast<std::size_t>(comm.rank())].pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its virtual duration minus the durations of
  /// its direct children on the same rank (root spans: 0).
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].rank >= 0) self[i] = spans_[i].vdur();
    }
    for (const Span& s : spans_) {
      if (s.rank < 0 || s.parent < 0) continue;
      const auto p = static_cast<std::size_t>(s.parent);
      if (spans_[p].rank == s.rank) self[p] -= s.vdur();
    }
    return self;
  }

  /// One line per sampled span, tab-separated, header first. Ids are
  /// indices into the full log, so parent links stay valid.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_times();
    std::fprintf(f,
                 "id\tparent\trank\trequest\tname\tvstart_ns\tvend_ns\t"
                 "self_ns\twall_ns\tops\tatomics\tremote\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!s.sampled) continue;
      std::fprintf(f, "%zu\t%d\t%d\t%u\t%s\t%lld\t%lld\t%lld\t%lld\t%u\t%u\t%u\n",
                   i, s.parent, s.rank, s.request,
                   span_name(s.kind), static_cast<long long>(s.vstart),
                   static_cast<long long>(s.vend),
                   static_cast<long long>(self[i]),
                   static_cast<long long>(s.wall_ns), s.ops.ops,
                   s.ops.atomics, s.ops.remote);
    }
    return std::fclose(f) == 0;
  }

 private:
  static SpanOps truncated(const OpCounts& c) {
    return SpanOps{static_cast<std::uint32_t>(c.ops),
                   static_cast<std::uint32_t>(c.atomics),
                   static_cast<std::uint32_t>(c.remote)};
  }

  static std::int64_t wall_now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::vector<int>> stacks_;  // open rank spans, per rank
  std::vector<std::uint32_t> requests_;   // request spans begun, per rank
  std::vector<int> roots_;                // open root spans
};

/// RAII rank span; a null log (the untraced run) costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, rmalock::rma::RmaComm& comm, SpanKind kind,
             std::uint64_t request)
      : log_(log), comm_(comm) {
    if (log_ != nullptr) id_ = log_->begin(comm, kind, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(comm_, id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  rmalock::rma::RmaComm& comm_;
  int id_ = -1;
};

}  // namespace perfbench
