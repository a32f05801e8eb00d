// The RMA communication interface — the paper's Listing 1, verbatim.
//
// Every lock protocol in src/locks is written against this interface only,
// which is the paper's own portability argument (§6, Table 3): any RMA/PGAS
// layer providing put/get/accumulate/fetch-and-op/compare-and-swap/flush can
// host the locks. This repository ships two implementations:
//
//   * rma::SimWorld   — deterministic virtual-time discrete-event runtime
//                       (performance studies at P up to 1024, model checking);
//   * rma::ThreadWorld — real threads + std::atomic (concurrency stress).
//
// Memory semantics: operations are applied atomically and become visible in
// a sequentially consistent order. MPI-3 additionally requires a Flush
// before *reading* returned values; here the value of a blocking call is
// usable on return, a stronger model under which every MPI-correct
// protocol behaves the same. Flush remains a completion/cost point.
//
// Nonblocking issue: iput/iaccumulate/iget are the pipelined variants of
// put/accumulate/get (MPI-3 request-based RMA, foMPI's nonblocking puts).
// Their effects are applied (and an iget's word read) at issue like every
// other op, but their latency is charged at the next flush(target) as
// max(completion times) — overlapped issues to C targets cost ~1 round
// trip + C injection slots instead of C round trips, and two igets at one
// target completed by one flush cost one round trip instead of two.
// Ordering guarantees: (1) an iput/iaccumulate carries release
// ordering — everything the issuer wrote before it is visible to any
// process that observes its effect (lock handoffs may publish flags
// directly with iput); (2) effects are visible to other processes no later
// than the issuer's next flush(target), which also orders two nonblocking
// ops on either side of it.
//
// A window is an array of 64-bit signed words per process; offsets are word
// indices. The null rank ∅ is kNilRank (-1).
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "rma/op.hpp"
#include "rma/op_stats.hpp"
#include "topo/topology.hpp"

namespace rmalock::rma {

/// Outcome of a deadline-aware single-attempt op (try_get/try_cas).
/// kTimeout means the runtime decided the op would not complete by the
/// caller's deadline — the op was NOT applied and `value` is meaningless.
/// kOk means the op was applied and `value` carries the fetched/previous
/// word; the op may still have completed *after* the deadline (a straggler
/// that was slow but alive), so deadline-sensitive callers re-check
/// now_ns() on return.
enum class TryStatus : u8 { kOk, kTimeout };

struct TryResult {
  TryStatus status = TryStatus::kOk;
  i64 value = 0;

  [[nodiscard]] bool ok() const { return status == TryStatus::kOk; }
};

class RmaComm {
 public:
  virtual ~RmaComm() = default;

  RmaComm(const RmaComm&) = delete;
  RmaComm& operator=(const RmaComm&) = delete;

  /// Rank of the calling process (0-based) and the process count P.
  [[nodiscard]] virtual Rank rank() const = 0;
  [[nodiscard]] virtual i32 nprocs() const = 0;
  [[nodiscard]] virtual const topo::Topology& topology() const = 0;

  // --- Listing 1 -----------------------------------------------------------

  /// Place atomically src_data in target's window.
  virtual void put(i64 src_data, Rank target, WinOffset offset) = 0;

  /// Fetch and return atomically data from target's window.
  virtual i64 get(Rank target, WinOffset offset) = 0;

  /// Apply atomically op using oprd to data at target.
  virtual void accumulate(i64 oprd, Rank target, WinOffset offset,
                          AccumOp op) = 0;

  /// Atomically apply op using oprd to data at target and return the
  /// previous value of the modified data.
  virtual i64 fao(i64 oprd, Rank target, WinOffset offset, AccumOp op) = 0;

  /// Atomically compare cmp_data with data at target and, if equal, replace
  /// it with src_data; return the previous data.
  virtual i64 cas(i64 src_data, i64 cmp_data, Rank target,
                  WinOffset offset) = 0;

  /// Ranged get: fetch n consecutive words starting at offset into out.
  /// Atomicity is guaranteed PER WORD only — on real RMA hardware a
  /// multi-word read is not a single atomic unit, and concurrent writers may
  /// interleave between the words (a "torn read"). Protocols that read
  /// multi-word payloads without holding a lock MUST validate (version
  /// words, checksums, retry loops); see LockSpace::optimistic_read.
  /// SimWorld models the tear as an explorable fault so the model checker
  /// can explore every tear placement.
  virtual void get_vec(Rank target, WinOffset offset, i64* out, usize n) = 0;

  /// Complete all pending RMA calls started by the calling process and
  /// targeted at target. This is the completion/cost point of the
  /// nonblocking ops below.
  virtual void flush(Rank target) = 0;

  // --- nonblocking issue (see the header comment) --------------------------

  /// Pipelined put: effect applied at issue, completion charged by the next
  /// flush(target).
  virtual void iput(i64 src_data, Rank target, WinOffset offset) = 0;

  /// Pipelined accumulate: effect applied at issue, completion charged by
  /// the next flush(target).
  virtual void iaccumulate(i64 oprd, Rank target, WinOffset offset,
                           AccumOp op) = 0;

  /// Pipelined get (MPI-3's request-based Get): returns the word as it is at
  /// issue; the round trip is charged by the next flush(target), so reads
  /// of several words at one target completed by one flush cost ~1 round
  /// trip. The caller must flush(target) before acting on the value, as
  /// MPI requires.
  virtual i64 iget(Rank target, WinOffset offset) = 0;

  // --- deadline-aware single attempts --------------------------------------
  // Gray-failure plumbing: the blocking ops above spin forever with
  // impunity, which is exactly what a congested link or transiently
  // unreachable target breaks. The try_* variants attempt the op ONCE and
  // let the runtime fail fast (kTimeout, op not applied) when it can prove
  // the op cannot complete by `deadline_ns` (absolute, in this process's
  // now_ns() timeline). Runtimes without a gray-failure model fall back to
  // the blocking op — always correct, never times out.

  /// Single-attempt get with a completion deadline.
  virtual TryResult try_get(Rank target, WinOffset offset, Nanos deadline_ns) {
    (void)deadline_ns;
    return TryResult{TryStatus::kOk, get(target, offset)};
  }

  /// Single-attempt compare-and-swap with a completion deadline.
  virtual TryResult try_cas(i64 src_data, i64 cmp_data, Rank target,
                            WinOffset offset, Nanos deadline_ns) {
    (void)deadline_ns;
    return TryResult{TryStatus::kOk, cas(src_data, cmp_data, target, offset)};
  }

  // --- failure model -------------------------------------------------------

  /// Declared crash point: a place where the calling process volunteers to
  /// be killed. A runtime with crash injection armed (SimWorld with
  /// SimOptions::max_crashes > 0) treats each call as an explorable binary
  /// decision — survive or fail-stop here — covered by record/replay and
  /// the exhaustive explorer like any scheduling decision. Runtimes without
  /// crash injection (ThreadWorld, or an unarmed SimWorld) ignore it
  /// entirely: no cost, no decision, no trace entry.
  virtual void crash_point() {}

  /// Failure detector: true iff the runtime suspects `target` has crashed.
  /// The default (no failure model) never suspects anyone. SimWorld models
  /// either a perfect detector (suspected == crashed) or, under
  /// SimOptions::adversarial_suspicion, one whose timeouts always fire —
  /// recovery protocols must keep their safety property even when a live
  /// owner is falsely suspected.
  [[nodiscard]] virtual bool suspected(Rank target) {
    (void)target;
    return false;
  }

  // --- runtime services ----------------------------------------------------

  /// Model `ns` nanoseconds of local computation (busy work in the CS,
  /// backoff delays, ...). Virtual time in SimWorld, busy-wait in
  /// ThreadWorld.
  virtual void compute(Nanos ns) = 0;

  /// Current time of this process: virtual clock (SimWorld) or real
  /// monotonic clock (ThreadWorld).
  [[nodiscard]] virtual Nanos now_ns() = 0;

  /// This process's *local wall clock* — what a time-based lease reads.
  /// Unlike now_ns() (the cost-model clock), this is subject to the clock
  /// fault model: under SimWorld with SimOptions::max_drift_events armed it
  /// runs fast or slow (± max_drift_permille) and steps within ±
  /// skew_window, and may even move backward across a step. Disarmed (and
  /// on runtimes without a clock model) it equals perfect shared time.
  /// Protocols must never compare local_now_ns readings across ranks —
  /// that is exactly the bug the drift campaigns exist to catch.
  [[nodiscard]] virtual Nanos local_now_ns() { return now_ns(); }

  /// Collective barrier over all processes of the world. On return in
  /// SimWorld, all clocks are synchronized to the latest arrival — the
  /// harness brackets measurement phases with barriers.
  virtual void barrier() = 0;

  /// Per-process deterministic RNG (seeded from world seed + rank).
  [[nodiscard]] virtual Xoshiro256& rng() = 0;

  /// Per-process op statistics.
  [[nodiscard]] virtual OpStats& stats() = 0;

  /// The world's structured event tracer, or null when tracing is disarmed.
  /// Lock protocols record their phase spans through ObsSpan below; the null
  /// case costs one branch.
  [[nodiscard]] virtual obs::Tracer* tracer() = 0;

 protected:
  RmaComm() = default;
};

/// Emits one event through comm's tracer, stamped with comm's clock; the
/// disarmed (null-tracer) case is a single predictable branch. Use ObsSpan
/// below for scope-shaped spans; this is for span edges that cross call
/// boundaries (a critical section begins at the end of acquire() and ends
/// at the start of release()).
inline void obs_event(RmaComm& comm, obs::EventCode code, obs::Phase phase,
                      i64 a = 0, i64 b = 0) {
  obs::Tracer* tracer = comm.tracer();
  if (tracer != nullptr) [[unlikely]] {
    tracer->emit(comm.rank(), code, phase, comm.now_ns(), a, b);
  }
}

/// RAII span recorder for lock-protocol phases: emits a kBegin event on
/// construction and the matching kEnd on destruction (stack order gives
/// well-nested spans per rank, the Chrome trace-event requirement), both
/// stamped with the comm's virtual clock. Against a disarmed world
/// (tracer() == nullptr) construction and destruction are each a single
/// predictable branch — protocols may scope spans unconditionally.
///
/// The end event is emitted even when the scope unwinds through an
/// exception (a SimWorld injected crash), so post-mortems show the phase
/// the victim died in.
class ObsSpan {
 public:
  ObsSpan(RmaComm& comm, obs::EventCode code, i64 a = 0, i64 b = 0)
      : tracer_(comm.tracer()) {
    if (tracer_ != nullptr) [[unlikely]] {
      comm_ = &comm;
      code_ = code;
      a_ = a;
      b_ = b;
      tracer_->emit(comm.rank(), code, obs::Phase::kBegin, comm.now_ns(), a,
                    b);
    }
  }
  ~ObsSpan() {
    if (tracer_ != nullptr) [[unlikely]] {
      tracer_->emit(comm_->rank(), code_, obs::Phase::kEnd, comm_->now_ns(),
                    a_, b_);
    }
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  obs::Tracer* tracer_;
  RmaComm* comm_ = nullptr;
  obs::EventCode code_ = obs::EventCode::kMark;
  i64 a_ = 0;
  i64 b_ = 0;
};

}  // namespace rmalock::rma
