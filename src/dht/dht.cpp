#include "dht/dht.hpp"

#include "common/check.hpp"

namespace rmalock::dht {

DistributedHashTable::DistributedHashTable(rma::World& world, DhtConfig config)
    : config_(config), nprocs_(world.nprocs()) {
  RMALOCK_CHECK(config_.table_buckets >= 1);
  RMALOCK_CHECK(config_.heap_entries >= 1);
  const usize buckets = static_cast<usize>(config_.table_buckets);
  const usize entries = static_cast<usize>(config_.heap_entries);
  next_free_ = world.allocate(1);
  bucket_values_ = world.allocate(buckets, kEmpty);
  bucket_heads_ = world.allocate(buckets, kNilRank);
  bucket_lasts_ = world.allocate(buckets, kNilRank);
  heap_values_ = world.allocate(entries, kEmpty);
  heap_nexts_ = world.allocate(entries, kNilRank);
}

// ---------------------------------------------------------------------------
// Atomics-only protocol (foMPI-A)
// ---------------------------------------------------------------------------

bool DistributedHashTable::append_overflow_atomic(rma::RmaComm& comm,
                                                  Rank owner, i64 bucket,
                                                  i64 value) const {
  // Claim an overflow slot by atomically incrementing the next-free pointer.
  const i64 slot = comm.fao(1, owner, next_free_, rma::AccumOp::kSum);
  comm.flush(owner);
  if (slot >= config_.heap_entries) {
    // Heap exhausted: the value is dropped and reported upward. The FAO
    // already moved the cursor past capacity; that over-increment is benign
    // (the cursor only grows, so no claimed slot is ever handed out twice)
    // and keeps the failure path to the single atomic the claim always pays.
    return false;
  }
  // Initialize the element before publishing it.
  comm.put(value, owner, heap_value(slot));
  comm.put(kNilRank, owner, heap_next(slot));
  comm.flush(owner);
  // Publish: atomically take over the last-pointer, then link behind the
  // previous last element (or the bucket head if the chain was empty).
  const i64 prev_last =
      comm.fao(slot, owner, bucket_last(bucket), rma::AccumOp::kReplace);
  comm.flush(owner);
  if (prev_last == kNilRank) {
    comm.put(slot, owner, bucket_head(bucket));
  } else {
    comm.put(slot, owner, heap_next(prev_last));
  }
  comm.flush(owner);
  return true;
}

InsertStatus DistributedHashTable::insert_atomic(rma::RmaComm& comm,
                                                 Rank owner, i64 value) const {
  RMALOCK_CHECK_MSG(value != kEmpty, "kEmpty sentinel cannot be stored");
  const i64 bucket = bucket_of(value);
  // Fast path: claim the bucket slot.
  const i64 previous = comm.cas(value, kEmpty, owner, bucket_value(bucket));
  comm.flush(owner);
  if (previous == kEmpty) return InsertStatus::kInserted;
  if (previous == value) return InsertStatus::kDuplicate;
  // Collision: the losing process goes to the overflow heap.
  return append_overflow_atomic(comm, owner, bucket, value)
             ? InsertStatus::kInserted
             : InsertStatus::kHeapFull;
}

bool DistributedHashTable::contains_atomic(rma::RmaComm& comm, Rank owner,
                                           i64 value) const {
  // Lock-free mode must read with atomics (the paper's foMPI-A variant
  // "only synchronizes accesses with CAS/FAO"): a FAO adding zero is the
  // canonical RMA atomic fetch. This is the regime's inherent cost — AMOs
  // serialize in the target NIC where plain gets would pipeline.
  const auto atomic_fetch = [&](WinOffset offset) {
    const i64 fetched = comm.fao(0, owner, offset, rma::AccumOp::kSum);
    comm.flush(owner);
    return fetched;
  };
  const i64 bucket = bucket_of(value);
  const i64 slot_value = atomic_fetch(bucket_value(bucket));
  if (slot_value == value) return true;
  if (slot_value == kEmpty) return false;  // empty bucket has no chain
  i64 cursor = atomic_fetch(bucket_head(bucket));
  while (cursor != kNilRank) {
    const i64 element = atomic_fetch(heap_value(cursor));
    const i64 next = atomic_fetch(heap_next(cursor));
    if (element == value) return true;
    cursor = next;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lock-protected protocol: plain put/get, mutual exclusion provided by the
// caller's reader-writer lock.
// ---------------------------------------------------------------------------

InsertStatus DistributedHashTable::insert_locked(rma::RmaComm& comm,
                                                 Rank owner, i64 value) const {
  RMALOCK_CHECK_MSG(value != kEmpty, "kEmpty sentinel cannot be stored");
  const i64 bucket = bucket_of(value);
  const i64 slot_value = comm.get(owner, bucket_value(bucket));
  comm.flush(owner);
  if (slot_value == kEmpty) {
    comm.put(value, owner, bucket_value(bucket));
    comm.flush(owner);
    return InsertStatus::kInserted;
  }
  if (slot_value == value) return InsertStatus::kDuplicate;
  // Walk the chain to keep exact set semantics (affordable under the lock).
  i64 cursor = comm.get(owner, bucket_head(bucket));
  comm.flush(owner);
  while (cursor != kNilRank) {
    const i64 element = comm.get(owner, heap_value(cursor));
    const i64 next = comm.get(owner, heap_next(cursor));
    comm.flush(owner);
    if (element == value) return InsertStatus::kDuplicate;
    cursor = next;
  }
  // Append a new overflow element.
  const i64 slot = comm.get(owner, next_free_);
  comm.flush(owner);
  if (slot >= config_.heap_entries) {
    // Heap exhausted: drop and report. Under the lock nothing was written,
    // so the cursor stays exactly at capacity here.
    return InsertStatus::kHeapFull;
  }
  comm.put(slot + 1, owner, next_free_);
  comm.put(value, owner, heap_value(slot));
  comm.put(kNilRank, owner, heap_next(slot));
  const i64 prev_last = comm.get(owner, bucket_last(bucket));
  comm.flush(owner);
  comm.put(slot, owner, bucket_last(bucket));
  if (prev_last == kNilRank) {
    comm.put(slot, owner, bucket_head(bucket));
  } else {
    comm.put(slot, owner, heap_next(prev_last));
  }
  comm.flush(owner);
  return InsertStatus::kInserted;
}

bool DistributedHashTable::contains_locked(rma::RmaComm& comm, Rank owner,
                                           i64 value) const {
  // Under the reader lock the structure is stable, so plain RDMA gets
  // suffice — this is the payoff of lock-protected reads versus foMPI-A's
  // atomic fetches (Fig. 6): gets pipeline through the target NIC.
  const i64 bucket = bucket_of(value);
  const i64 slot_value = comm.get(owner, bucket_value(bucket));
  comm.flush(owner);
  if (slot_value == value) return true;
  if (slot_value == kEmpty) return false;  // empty bucket has no chain
  i64 cursor = comm.get(owner, bucket_head(bucket));
  comm.flush(owner);
  while (cursor != kNilRank) {
    const i64 element = comm.get(owner, heap_value(cursor));
    const i64 next = comm.get(owner, heap_next(cursor));
    comm.flush(owner);
    if (element == value) return true;
    cursor = next;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

std::vector<i64> DistributedHashTable::snapshot(const rma::World& world,
                                                Rank owner) const {
  std::vector<i64> values;
  for (i64 b = 0; b < config_.table_buckets; ++b) {
    const i64 slot_value = world.read_word(owner, bucket_value(b));
    if (slot_value != kEmpty) values.push_back(slot_value);
    i64 cursor = world.read_word(owner, bucket_head(b));
    while (cursor != kNilRank) {
      values.push_back(world.read_word(owner, heap_value(cursor)));
      cursor = world.read_word(owner, heap_next(cursor));
    }
  }
  return values;
}

i64 DistributedHashTable::overflow_used(const rma::World& world,
                                        Rank owner) const {
  return world.read_word(owner, next_free_);
}

}  // namespace rmalock::dht
