// Distributed hashtable (§5.3) — the paper's irregular-workload case study.
//
// The DHT stores 64-bit integers and consists of *local volumes*, one per
// process, each made of:
//   * a fixed-size table of buckets, and
//   * a fixed-size overflow heap for elements displaced by hash collisions.
//
// Each bucket exposes its value plus head/last pointers into the overflow
// chain; the heap has a next-free cursor. Everything lives in the owner's
// RMA window, so any process can operate on any volume remotely.
//
// Two synchronization flavours, matching the paper's comparison:
//
//   * atomics-only ("foMPI-A"): inserts race with CAS on the bucket; a
//     loser claims an overflow slot by FAO on the next-free cursor and
//     appends itself by atomically swapping the bucket's last-pointer
//     (the paper uses a second CAS; the swap is the retry-free equivalent)
//     and then linking its predecessor.
//   * lock-protected (`*_locked`): the caller holds an external lock
//     (foMPI-RW or RMA-RW in the benchmarks); inside the CS plain put/get
//     suffice, which is cheaper per op on real NICs than remote atomics —
//     the tradeoff Fig. 6 explores.
//
// Concurrent-read note (atomics mode): values are written before they are
// linked, so readers never observe an uninitialized element; a reader may
// miss an element whose linking is still in flight (benign for the
// benchmark, same as the paper's design).
#pragma once

#include <vector>

#include "rma/world.hpp"

namespace rmalock::dht {

struct DhtConfig {
  /// Buckets per local volume.
  i32 table_buckets = 256;
  /// Overflow-heap entries per local volume.
  i32 heap_entries = 1024;
};

/// Outcome of one insert. The overflow heap is fixed-size, so exhaustion
/// is an expected, reportable condition under skewed workloads — benches
/// surface it as a drop rate instead of aborting the run.
enum class InsertStatus : u8 {
  kInserted,   // value stored (bucket slot or a fresh overflow element)
  kDuplicate,  // value already present; nothing written
  kHeapFull,   // owner's overflow heap is exhausted; value dropped
};

class DistributedHashTable {
 public:
  /// Collective: allocates and initializes every volume.
  DistributedHashTable(rma::World& world, DhtConfig config);

  /// Value-based volume placement for whole-table workloads.
  [[nodiscard]] Rank owner_of(i64 value) const {
    return static_cast<Rank>(hash(value) % static_cast<u64>(nprocs_));
  }

  // --- atomics-only protocol (foMPI-A) -------------------------------------

  /// Inserts into `owner`'s volume. kDuplicate iff the value already sat in
  /// its bucket slot (set fast path); chained duplicates are possible under
  /// races, as in the paper's design. kHeapFull drops the value when the
  /// overflow heap is exhausted.
  InsertStatus insert_atomic(rma::RmaComm& comm, Rank owner, i64 value) const;
  [[nodiscard]] bool contains_atomic(rma::RmaComm& comm, Rank owner,
                                     i64 value) const;

  // --- lock-protected protocol (caller holds foMPI-RW / RMA-RW) ------------

  InsertStatus insert_locked(rma::RmaComm& comm, Rank owner, i64 value) const;
  [[nodiscard]] bool contains_locked(rma::RmaComm& comm, Rank owner,
                                     i64 value) const;

  // --- inspection (outside run(), for tests and validation) ---------------

  /// All values stored in `owner`'s volume.
  [[nodiscard]] std::vector<i64> snapshot(const rma::World& world,
                                          Rank owner) const;
  /// Overflow allocation cursor at `owner`. Can exceed heap_entries after
  /// kHeapFull inserts: the atomic protocol's FAO claims slots optimistically
  /// and a failed claim is not handed back (the over-increment is benign —
  /// the cursor only ever grows, so no live slot is ever reused).
  [[nodiscard]] i64 overflow_used(const rma::World& world, Rank owner) const;

  [[nodiscard]] const DhtConfig& config() const { return config_; }

  /// Bucket index of a value.
  [[nodiscard]] i64 bucket_of(i64 value) const {
    return static_cast<i64>(hash(value) % static_cast<u64>(config_.table_buckets));
  }

  /// Reserved sentinel: values equal to this cannot be stored.
  static constexpr i64 kEmpty = INT64_MIN;

 private:
  [[nodiscard]] static u64 hash(i64 value) {
    u64 state = static_cast<u64>(value) + 0x2545f4914f6cdd1dULL;
    return splitmix64(state);
  }

  // Window offsets of bucket b / heap entry h within a volume.
  [[nodiscard]] WinOffset bucket_value(i64 b) const {
    return bucket_values_ + b;
  }
  [[nodiscard]] WinOffset bucket_head(i64 b) const { return bucket_heads_ + b; }
  [[nodiscard]] WinOffset bucket_last(i64 b) const { return bucket_lasts_ + b; }
  [[nodiscard]] WinOffset heap_value(i64 h) const { return heap_values_ + h; }
  [[nodiscard]] WinOffset heap_next(i64 h) const { return heap_nexts_ + h; }

  /// Claims an overflow slot and links it behind the bucket's chain.
  /// False iff the heap is exhausted (nothing linked).
  bool append_overflow_atomic(rma::RmaComm& comm, Rank owner, i64 bucket,
                              i64 value) const;

  DhtConfig config_;
  i32 nprocs_;
  // One array per field, each started at its empty value by allocate().
  WinOffset next_free_;      // heap allocation cursor, one word
  WinOffset bucket_values_;  // per bucket: stored value or kEmpty
  WinOffset bucket_heads_;   // per bucket: first overflow entry or kNilRank
  WinOffset bucket_lasts_;   // per bucket: last overflow entry or kNilRank
  WinOffset heap_values_;    // per heap entry: value or kEmpty
  WinOffset heap_nexts_;     // per heap entry: next entry or kNilRank
};

}  // namespace rmalock::dht
