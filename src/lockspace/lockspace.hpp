// LockSpace — a sharded, topology-aware manager for millions of named locks.
//
// Every bench and test below this layer exercises one global lock instance;
// a lock *service* (the paper's DHT case study scaled out, the ROADMAP's
// "millions of users") needs many named locks with skewed popularity. A
// LockSpace multiplexes an arbitrary 64-bit key space onto a fixed grid of
// physical lock instances:
//
//   key --hash--> shard s --hash--> slot within s --> one locks:: instance
//
// * Directory: owner-computes. resolve(key) is pure arithmetic over the
//   configured shard/slot counts — every process computes home rank and
//   slot in O(1) with zero extra round trips (no directory server, no
//   lookup RPC). This is the placement style of the paper's DHT (§5.3) and
//   of ALock's per-key handle tables.
// * Topology-aware homing: shards are spread across the machine's leaf
//   elements round-robin (leaf-major), and inside its shard's leaf every
//   slot gets its own home: slot j sits j ranks past the shard home,
//   wrapping within the leaf. The slot home hosts the hot word of
//   centralized backends (foMPI-Spin/RW lock word, D-MCS tail, lease word)
//   and sets where RMA-RW puts its counters: offset (slot home mod T_DC)
//   inside every T_DC group, so the slots of a shard spread their reader
//   traffic over distinct ranks of each node instead of piling onto the
//   node leaders. The queue trees (RMA-MCS, DTree, RMA-RW writers) stay on
//   the representative ranks. The shard home keeps the shard's identity:
//   LockRef::home, the payload and version words, quarantine and
//   re-homing are per shard.
// * Striping: two keys that collide on (shard, slot) share a physical lock.
//   Mutual exclusion per key is preserved (the shared lock is simply
//   coarser); cross-key concurrency is what slots_per_shard buys.
// * Eager construction: the constructor (collective, outside run(), like
//   any lock constructor) builds every slot's backend instance against the
//   world itself, plane by plane and global slot ascending, so each slot's
//   words sit at a fixed offset of one contiguous grid and no lock is ever
//   built inside run(). A per-slot `used` flag, set when an acquire first
//   looks the slot up, keeps the working-set gauge (instantiated_slots) and
//   limits the orphan sweep and the migration drain to slots ever used.
// * Per-shard counters: read/write acquires and timed-acquire timeouts,
//   exported per shard by metrics().
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "locks/factory.hpp"
#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {
class LeaseExclusive;
}

namespace rmalock::lockspace {

struct LockSpaceConfig {
  /// Number of shards; 0 = one per leaf element (compute node).
  i32 shards = 0;
  /// Physical lock instances per shard. Keys stripe over
  /// shards * slots_per_shard independent locks.
  i32 slots_per_shard = 16;
  locks::Backend backend = locks::Backend::kRmaRw;
  /// Payload words per slot published through the versioned read path
  /// (optimistic_read / write_payload / locked_read). 0 = no versioned
  /// data area; the optimistic API is then unavailable. The payload arena
  /// (1 version word + payload_words data words per slot, on the shard's
  /// home rank) is allocated after the slot grid, so backend footprints
  /// are unaffected.
  i32 payload_words = 0;
  /// PLANTED-BUG knob (MC verification only): skip the version
  /// re-validation read in optimistic_read, certifying torn observations.
  /// The optimistic MC campaigns must catch this — and a torn-read-blind
  /// run must NOT (the false negative the fault model exists to prevent).
  bool skip_read_validation = false;
  /// Graceful degradation: consecutive try_acquire_for timeouts on a shard
  /// before the shard is quarantined (0 = never). A quarantined shard
  /// fails fast with AcquireStatus::kDegraded instead of burning the
  /// caller's deadline against ranks the fault model says are gray. The
  /// score covers all the leaf ranks that host the shard's slots
  /// (home_of_slot), and a success on any slot clears it, so one gray slot
  /// home among healthy ones may never trip the quarantine.
  i32 quarantine_after = 0;
  /// Epoch-stamped re-homing: number of successor placements (slot planes)
  /// pre-reserved beyond the original one, so a gray shard can be migrated
  /// to a fresh home mid-run (rehome_shard). 0 = off. Exclusive backends
  /// only. Each extra plane costs a full grid of instances.
  i32 rehome_epochs = 0;
  /// PLANTED-BUG knob (MC verification only): skip the post-acquire
  /// control-word re-validation — the fence that deflects a claimant whose
  /// plane was migrated away between its directory read and its grant. With
  /// the fence skipped, a migration can admit one owner on the old plane
  /// and one on the new: two owners across the migration epoch. The
  /// rehome MC campaigns must catch this.
  bool rehome_skip_fence = false;
  /// PLANTED-BUG knob (MC verification only): write_payload_fenced accepts
  /// every write without validating the caller's fencing token against the
  /// newest admitted one. A time-based lease then has no resource-side
  /// defense left: once local clocks let a paused or drift-slow holder's
  /// belief overlap a reclaimer's grant, the stale holder's write commits.
  /// The clock-drift MC campaigns must catch this as a stale-token commit.
  bool skip_token_check = false;
};

/// Result of the O(1) directory computation for one key.
struct LockRef {
  i32 shard = 0;
  i32 slot = 0;        // within the shard
  Rank home = 0;       // shard's home rank
  u32 global_slot = 0; // shard * slots_per_shard + slot
};

class LockSpace {
 public:
  /// Collective: builds the backend instance of every slot on every plane.
  /// Must run outside World::run(), like any lock constructor. The world
  /// must outlive the LockSpace.
  LockSpace(rma::World& world, LockSpaceConfig config);

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  // --- directory (pure arithmetic, zero RTTs) ------------------------------

  [[nodiscard]] LockRef resolve(u64 key) const;

  /// Home rank of shard s: shards spread leaf-major across the machine.
  [[nodiscard]] Rank home_of_shard(i32 shard) const;

  /// Home rank of slot `slot` (within shard `shard`) at migration epoch
  /// `plane` (0 = original placement): `slot` ranks past the shard's home
  /// at that epoch, wrapping inside the home's leaf. Slot 0 at plane 0 is
  /// home_of_shard. The slot's backend instance is built with it.
  [[nodiscard]] Rank home_of_slot(i32 shard, i32 slot, i32 plane) const;

  /// First `count` keys (scanning upward from 0) that resolve to pairwise
  /// distinct slots — the keys tests and MC campaigns use so "different
  /// keys" provably means "different physical locks". Requires
  /// count <= total_slots().
  [[nodiscard]] std::vector<u64> distinct_slot_keys(i32 count) const;

  // --- lock protocol -------------------------------------------------------
  // Exclusive mode works with every backend (RW backends take the writer
  // path). Shared mode degrades to exclusive on exclusive-only backends —
  // readers serialize, which is exactly the regime the RW comparison
  // benches quantify; rw_capable() tells callers which case they are in.

  void acquire(rma::RmaComm& comm, u64 key);
  void release(rma::RmaComm& comm, u64 key);
  void acquire_read(rma::RmaComm& comm, u64 key);
  void release_read(rma::RmaComm& comm, u64 key);

  // --- deadlines, health, re-homing ----------------------------------------
  // The gray-failure story: a straggling or partitioned rank that homes a
  // shard's slots makes blocking acquires arbitrarily slow without ever
  // tripping the crash detector. try_acquire_for bounds each attempt by the
  // caller's deadline; repeated timeouts score the shard's health (one
  // score for the leaf ranks that host its slots) and eventually
  // quarantine it (fail-fast kDegraded); an operator — or a bench policy —
  // then migrates the shard to a healthy successor leaf with rehome_shard.

  /// Deadline-bounded exclusive acquire (write path on RW backends).
  /// `deadline_ns` is absolute virtual time, as in ExclusiveLock. On
  /// success release with the ordinary release(key) — the space remembers
  /// which plane the grant landed on.
  locks::AcquireResult try_acquire_for(rma::RmaComm& comm, u64 key,
                                       Nanos deadline_ns,
                                       const locks::RetryPolicy& retry = {});

  /// Migrates `shard` to its next epoch plane (fresh home rank, fresh slot
  /// instances). Two-phase: CAS the shard's control word to `migrating`
  /// (new claimants wait), drain every used old-plane slot by
  /// acquiring and releasing it once — bounded by `drain_budget_ns` of
  /// virtual time — then commit the bumped epoch. Returns false without
  /// migrating if the shard is already migrating, out of planes, the CAS
  /// is lost, or the drain times out (the control word is restored).
  /// Safety: a claimant granted on the old plane after the drain re-reads
  /// the control word before entering its CS and bails (the fence), so no
  /// two owners exist across the migration epoch.
  bool rehome_shard(rma::RmaComm& comm, i32 shard, Nanos drain_budget_ns);

  [[nodiscard]] bool shard_quarantined(i32 shard) const;
  /// Clears the shard's timeout score and lifts its quarantine (operator
  /// action after a rehome or a repaired network).
  void reset_shard_health(i32 shard);

  // --- versioned payload (optimistic reads) --------------------------------
  // Per-slot version word bumped odd/even around every write-side critical
  // section; readers snapshot the payload lock-free and validate the
  // version unchanged. Write sessions store payload words in ascending
  // index order, which gives snapshots a checkable consistency order: any
  // single-instant observation is non-increasing in write-session age along
  // the word index, so an "older word after a newer word" observation can
  // only come from a torn (time-split) read — the property the optimistic
  // MC monitor checks.

  [[nodiscard]] bool optimistic_capable() const {
    return config_.payload_words > 0;
  }
  [[nodiscard]] i32 payload_words() const { return config_.payload_words; }

  /// Writer-side publication of the key's payload. The caller MUST hold
  /// acquire(key): the version bump to odd (before the data words) and back
  /// to even (after) assumes write sessions are serialized by the lock.
  /// Returns the closing (even) version word the session published — its
  /// low kTokenSeqBits are the slot's session sequence number, which
  /// monitors use to recover the slot's own admission order.
  i64 write_payload(rma::RmaComm& comm, u64 key, const i64* data, usize n);

  /// Token-validating publication for time-based leases (TimedLease):
  /// unlike write_payload it does NOT trust the caller to be serialized —
  /// the write session begins with a CAS on the version word that
  /// atomically (a) rejects any token older than the newest one the slot
  /// has admitted and (b) serializes concurrent fenced writers. Returns
  /// true iff the write was admitted; false means the caller's token is
  /// stale — its lease was reclaimed out from under it — and no word was
  /// written. This is the resource-side half of the fencing-token story:
  /// a paused or drift-slow holder that still believes its lease valid
  /// fails *here*, deterministically, instead of corrupting the payload.
  /// With LockSpaceConfig::skip_token_check set (planted bug) it degrades
  /// to the trusting write_payload and always returns true. On acceptance,
  /// `admitted_version` (if non-null) receives the closing version word the
  /// session published (see write_payload's return value).
  bool write_payload_fenced(rma::RmaComm& comm, u64 key, i64 token,
                            const i64* data, usize n,
                            i64* admitted_version = nullptr);

  // Version-word layout under fenced writes: (token << kTokenSeqBits) | seq,
  // where seq keeps the plain seqlock odd/even discipline (even = quiescent,
  // odd = publication in progress). Plain write_payload's v+1/v+2 bumps
  // touch only the seq field, so the two write paths and optimistic_read
  // (which compares full version words) compose unchanged. The seq field
  // caps write sessions per slot at ~2^19, CHECKed loudly on overflow.
  static constexpr i32 kTokenSeqBits = 20;
  static constexpr i64 kTokenSeqMask = (i64{1} << kTokenSeqBits) - 1;
  [[nodiscard]] static i64 token_of_version(i64 v) {
    return v >> kTokenSeqBits;
  }

  /// Reads the payload under the read lock — always a consistent snapshot;
  /// the comparison baseline for the optimistic path.
  void locked_read(rma::RmaComm& comm, u64 key, i64* out, usize n);

  /// Current version word of the key's slot (even = quiescent, odd = write
  /// in progress). Stable only while the caller holds the write lock.
  [[nodiscard]] i64 payload_version(rma::RmaComm& comm, u64 key);

  struct OptimisticResult {
    /// Payload attempts that validated (or, with fell_back, the locked
    /// read); out[] holds a read of the payload either way.
    bool ok = false;
    /// Retries exhausted; out[] was read under the read lock instead.
    bool fell_back = false;
    /// Optimistic attempts that did not validate before success/fallback.
    u32 retries = 0;
  };

  /// Lock-free versioned read: snapshot version, get_vec the payload,
  /// validate the version unchanged-and-even; retry up to
  /// kOptimisticRetries times, then fall back to locked_read.
  OptimisticResult optimistic_read(rma::RmaComm& comm, u64 key, i64* out,
                                   usize n);
  static constexpr u32 kOptimisticRetries = 3;

  /// Administrative recovery sweep: walks every used slot whose
  /// backend is a LeaseExclusive and reclaims leases held by
  /// suspected-crashed owners, fencing each with a bumped epoch. Returns
  /// the number of orphaned leases reclaimed. Any rank may run the sweep
  /// (including concurrently with regular claimants — the reclaim CAS makes
  /// the race benign); non-lease backends always recover 0.
  u64 recover_orphans(rma::RmaComm& comm);

  [[nodiscard]] bool rw_capable() const {
    return locks::backend_is_rw(config_.backend);
  }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const LockSpaceConfig& config() const { return config_; }
  [[nodiscard]] i32 shards() const { return num_shards_; }
  [[nodiscard]] i32 slots_per_shard() const { return config_.slots_per_shard; }
  [[nodiscard]] u32 total_slots() const {
    return static_cast<u32>(num_shards_) *
           static_cast<u32>(config_.slots_per_shard);
  }
  /// Slots an acquire has looked up so far (granted or timed out), summed
  /// over planes: the space's working set.
  [[nodiscard]] u64 instantiated_slots() const;
  [[nodiscard]] std::string describe() const;

  // --- per-shard accounting ------------------------------------------------

  [[nodiscard]] u64 shard_write_acquires(i32 shard) const {
    return shards_[static_cast<usize>(shard)]->write_acquires.load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] u64 shard_read_acquires(i32 shard) const {
    return shards_[static_cast<usize>(shard)]->read_acquires.load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] u64 total_acquires() const;

  /// One shard's gauges, snapshot at call time — the unit of the bench
  /// metrics export (rmalock-bench-v2 "metrics" object). Counters are
  /// relaxed-atomic reads: exact after run() joins, advisory mid-run.
  struct ShardMetrics {
    i32 shard = 0;
    Rank home = 0;
    u64 write_acquires = 0;
    u64 read_acquires = 0;
    u64 timeouts = 0;
    bool quarantined = false;
    /// Slots of this shard an acquire has looked up, summed over planes
    /// (the shard's working set).
    u64 instantiated_slots = 0;
  };
  /// Every shard's gauges in shard-index order (deterministic export).
  [[nodiscard]] std::vector<ShardMetrics> metrics() const;

 private:
  struct Shard {
    Rank home = 0;
    std::atomic<u64> write_acquires{0};
    std::atomic<u64> read_acquires{0};
    // Health score of the leaf ranks hosting this shard's slots: cumulative
    // and consecutive timed-acquire timeouts over all its slots. consec
    // resets on a success on any slot; crossing quarantine_after trips the
    // quarantine latch (cleared only by reset_shard_health).
    std::atomic<u64> timeouts{0};
    std::atomic<i32> consec_timeouts{0};
    std::atomic<bool> quarantined{false};
  };

  struct Slot {
    // Set when an acquire first looks the slot up; the working-set gauge.
    std::atomic<bool> used{false};
    // The backend instance; on an RW backend, acquire/release are the
    // writer path.
    std::unique_ptr<locks::ExclusiveLock> ex;
    // Non-owning views of `ex`: as an RwLock (null on exclusive backends,
    // whose readers serialize), and as a LeaseExclusive when the backend is
    // lease-capable, so recover_orphans can sweep without casts.
    locks::RwLock* rw = nullptr;
    locks::LeaseExclusive* lease = nullptr;
  };

  /// Returns the (plane, slot) backend instance and marks it used. Plane 0
  /// is the original placement; planes 1..rehome_epochs are the migration
  /// successors.
  Slot& use_slot(const LockRef& ref, i32 plane);

  [[nodiscard]] bool rehoming() const { return config_.rehome_epochs > 0; }
  [[nodiscard]] i32 planes() const { return config_.rehome_epochs + 1; }
  [[nodiscard]] usize slot_index(i32 plane, u32 global_slot) const {
    return static_cast<usize>(plane) * static_cast<usize>(total_slots()) +
           static_cast<usize>(global_slot);
  }
  /// Shard control words live on rank 0, packing (epoch << 1) | migrating.
  [[nodiscard]] WinOffset ctl_offset(i32 shard) const {
    return rehome_ctl_base_ + static_cast<WinOffset>(shard);
  }
  [[nodiscard]] i64 read_ctl(rma::RmaComm& comm, i32 shard) const;
  /// The one blocking grant path of acquire and acquire_read: `shared`
  /// takes an RW backend's read side, otherwise the write side is taken.
  /// With re-homing on, it also resolves the shard's plane, waits out a
  /// migration in flight and applies the migration fence.
  void acquire_slot(rma::RmaComm& comm, const LockRef& ref, bool shared);
  /// Releases what acquire_slot granted, on the plane it landed on.
  void release_slot(rma::RmaComm& comm, const LockRef& ref, bool shared);
  void record_timeout(i32 shard);
  void record_success(i32 shard);

  /// Window offset of slot `global_slot`'s version word (payload words
  /// follow it) on the shard's home rank.
  [[nodiscard]] WinOffset version_offset(u32 global_slot) const {
    return payload_base_ +
           static_cast<WinOffset>(static_cast<usize>(global_slot) *
                                  payload_stride_);
  }

  rma::World& world_;
  LockSpaceConfig config_;
  i32 num_shards_ = 0;
  usize words_per_slot_ = 0;   // window footprint of one instance
  WinOffset payload_base_ = 0; // versioned-payload arena (when payload_words)
  usize payload_stride_ = 0;   // 1 version word + payload_words per slot
  WinOffset rehome_ctl_base_ = 0;  // per-shard control words (when rehoming)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Slot> slots_;    // planes() x total_slots(), plane-major
  // Per-rank stack of live grants as (global_slot, plane), so release(key)
  // finds the plane a grant landed on. Each rank only touches its own
  // stack. Maintained only when re-homing is enabled.
  std::vector<std::vector<std::pair<u32, i32>>> holds_;
};

}  // namespace rmalock::lockspace
